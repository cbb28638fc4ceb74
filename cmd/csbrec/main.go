// csbrec inspects flight-recorder recordings (internal/obs/rec): window
// summaries, per-series statistics, window slices, the cycle-stamped
// event log, SLO checks, tolerance-aware recording diffs for regression
// gating, and Perfetto counter-track export so recorded history lines up
// with journey/ctrace slices on one timeline. A counter is shown by its
// change over each window, a gauge (an occupancy) by its value at the
// window's end.
//
// Usage:
//
//	csbrec summary file.rec
//	csbrec series [-m glob] file.rec
//	csbrec slice [-from N] [-to M] [-m glob] file.rec
//	csbrec events file.rec
//	csbrec check -slo 'spec-or-@file' file.rec   (exit 1 on any breach)
//	csbrec diff [-tol F] a.rec b.rec             (exit 1 when different)
//	csbrec perfetto [-o out.json] file.rec
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"csbsim/internal/obs/rec"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "summary":
		err = cmdSummary(args, os.Stdout)
	case "series":
		err = cmdSeries(args, os.Stdout)
	case "slice":
		err = cmdSlice(args, os.Stdout)
	case "events":
		err = cmdEvents(args, os.Stdout)
	case "check":
		err = cmdCheck(args, os.Stdout)
	case "diff":
		err = cmdDiff(args, os.Stdout)
	case "perfetto":
		err = cmdPerfetto(args, os.Stdout)
	case "-h", "-help", "--help", "help":
		usage()
		return
	default:
		fmt.Fprintf(os.Stderr, "csbrec: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "csbrec:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  csbrec summary file.rec                      recording overview
  csbrec series [-m glob] file.rec             per-series stats over all windows
  csbrec slice [-from N] [-to M] [-m glob] f   windows in a cycle range
  csbrec events file.rec                       the cycle-stamped event log
  csbrec check -slo spec|@file file.rec        evaluate an SLO spec (exit 1 on breach)
  csbrec diff [-tol F] a.rec b.rec             compare recordings (exit 1 when different)
  csbrec perfetto [-o out.json] file.rec       Perfetto counter-track export
`)
}

// loadRec parses one recording, warning about truncation.
func loadRec(path string) (*rec.Recording, error) {
	rc, err := rec.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if rc.Truncated {
		fmt.Fprintf(os.Stderr, "csbrec: warning: %s has a truncated tail (aborted writer?); using the valid prefix\n", path)
	}
	return rc, nil
}

// one positional recording argument.
func oneArg(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	if fs.NArg() != 1 {
		return "", fmt.Errorf("want exactly one recording file, got %d args", fs.NArg())
	}
	return fs.Arg(0), nil
}

func cmdSummary(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("summary", flag.ContinueOnError)
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "recording %s (format v%d)\n", path, rc.Version)
	fmt.Fprintf(out, "  sources:   %s\n", strings.Join(rc.Sources, ", "))
	gauges := 0
	for i := range rc.CtrNames {
		if rc.IsGauge(i) {
			gauges++
		}
	}
	fmt.Fprintf(out, "  series:    %d counters, %d gauges, %d histograms\n",
		len(rc.CtrNames)-gauges, gauges, len(rc.HistNames))
	fmt.Fprintf(out, "  cadence:   %d cycles/window\n", rc.Every)
	end := rc.End
	if len(rc.Windows) > 0 {
		end = rc.Windows[len(rc.Windows)-1].C1
	}
	fmt.Fprintf(out, "  windows:   %d, cycles %d..%d\n", len(rc.Windows), rc.Start, end)
	status := "clean close (footer present)"
	if !rc.Clean {
		status = "no footer (writer did not flush)"
	}
	if rc.Truncated {
		status += ", truncated tail"
	}
	fmt.Fprintf(out, "  status:    %s\n", status)
	if len(rc.SLOSpecs) > 0 {
		fmt.Fprintf(out, "  slo:       %s\n", strings.Join(rc.SLOSpecs, "; "))
	}
	if len(rc.Events) > 0 {
		byKind := map[string]int{}
		for _, ev := range rc.Events {
			byKind[ev.Kind]++
		}
		var kinds []string
		for _, k := range []string{"watchdog", "node_down", "link_outage", "slo_breach", "slo_recover", "slo_unbound"} {
			if byKind[k] > 0 {
				kinds = append(kinds, fmt.Sprintf("%s=%d", k, byKind[k]))
				delete(byKind, k)
			}
		}
		for k, n := range byKind { //csb:orderless — leftover kinds, cosmetic order
			kinds = append(kinds, fmt.Sprintf("%s=%d", k, n))
		}
		fmt.Fprintf(out, "  events:    %d (%s)\n", len(rc.Events), strings.Join(kinds, " "))
	} else {
		fmt.Fprintf(out, "  events:    0\n")
	}
	return nil
}

// matchGlob is csbrec's -m filter (same '*' semantics as SLO specs).
func matchGlob(pat, name string) bool {
	if pat == "" {
		return true
	}
	return rec.MatchSeries(pat, name)
}

func cmdSeries(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("series", flag.ContinueOnError)
	m := fs.String("m", "", "series glob filter ('*' wildcards)")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	if len(rc.Windows) == 0 {
		return fmt.Errorf("%s holds no windows", path)
	}
	first, last := &rc.Windows[0], &rc.Windows[len(rc.Windows)-1]
	span := last.C1 - first.C0
	for i, name := range rc.CtrNames {
		if !matchGlob(*m, name) {
			continue
		}
		if rc.IsGauge(i) {
			lo, hi := last.CtrEnd[i], last.CtrEnd[i]
			for wi := range rc.Windows {
				v := rc.Windows[wi].CtrEnd[i]
				lo, hi = min(lo, v), max(hi, v)
			}
			fmt.Fprintf(out, "gauge %-43s end=%-10d min=%d max=%d\n", name, last.CtrEnd[i], lo, hi)
			continue
		}
		var total, maxDelta uint64
		for wi := range rc.Windows {
			d := rc.Windows[wi].CtrDelta[i]
			total += d
			maxDelta = max(maxDelta, d)
		}
		rate := float64(total) * 1000 / float64(span)
		fmt.Fprintf(out, "ctr  %-44s end=%-10d delta=%-10d rate=%.3f/kcycle peak_window=%d\n",
			name, last.CtrEnd[i], total, rate, maxDelta)
	}
	for i, name := range rc.HistNames {
		if !matchGlob(*m, name) {
			continue
		}
		var n uint64
		var worst *rec.Window
		var p99lo, p99hi uint64
		seen := false
		for wi := range rc.Windows {
			h := &rc.Windows[wi].Hist[i]
			if h.N == 0 {
				continue
			}
			n += h.N
			if !seen || h.P99 < p99lo {
				p99lo = h.P99
			}
			if !seen || h.P99 > p99hi {
				p99hi = h.P99
				worst = &rc.Windows[wi]
			}
			seen = true
		}
		if !seen {
			fmt.Fprintf(out, "hist %-44s n=0\n", name)
			continue
		}
		fmt.Fprintf(out, "hist %-44s n=%-8d p99=[%d..%d] worst_window=(%d,%d]\n",
			name, n, p99lo, p99hi, worst.C0, worst.C1)
	}
	return nil
}

func cmdSlice(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("slice", flag.ContinueOnError)
	from := fs.Uint64("from", 0, "first cycle of interest")
	to := fs.Uint64("to", ^uint64(0), "last cycle of interest")
	m := fs.String("m", "", "series glob filter ('*' wildcards)")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	printed := 0
	for wi := range rc.Windows {
		w := &rc.Windows[wi]
		if w.C1 < *from || w.C0 >= *to {
			continue
		}
		fmt.Fprintf(out, "window %d (%d,%d]\n", w.Index, w.C0, w.C1)
		for i, name := range rc.CtrNames {
			if !matchGlob(*m, name) {
				continue
			}
			if rc.IsGauge(i) {
				fmt.Fprintf(out, "  gauge %-43s value=%d\n", name, w.CtrEnd[i])
				continue
			}
			fmt.Fprintf(out, "  ctr  %-44s end=%-10d delta=%d\n", name, w.CtrEnd[i], w.CtrDelta[i])
		}
		for i, name := range rc.HistNames {
			if !matchGlob(*m, name) {
				continue
			}
			h := &w.Hist[i]
			if h.N == 0 {
				fmt.Fprintf(out, "  hist %-44s n=0\n", name)
				continue
			}
			fmt.Fprintf(out, "  hist %-44s n=%-6d min=%d p50=%d p95=%d p99=%d max=%d mean=%.1f\n",
				name, h.N, h.Min, h.P50, h.P95, h.P99, h.Max, h.Mean())
		}
		printed++
	}
	if printed == 0 {
		return fmt.Errorf("no windows intersect cycles [%d,%d]", *from, *to)
	}
	return nil
}

func cmdEvents(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("events", flag.ContinueOnError)
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	for _, ev := range rc.Events {
		line := fmt.Sprintf("cycle %-10d %-12s", ev.Cycle, ev.Kind)
		if ev.Node != "" {
			line += " " + ev.Node
		}
		if ev.Rule != "" {
			line += fmt.Sprintf("  rule=%q", ev.Rule)
		}
		if ev.Value != 0 {
			line += fmt.Sprintf("  value=%g", ev.Value)
		}
		fmt.Fprintln(out, line)
	}
	fmt.Fprintf(out, "%d events\n", len(rc.Events))
	return nil
}

// loadSLO parses a -slo argument: a literal spec, or @path to a file.
func loadSLO(arg string) (*rec.SLO, error) {
	if arg == "" {
		return nil, fmt.Errorf("missing -slo spec")
	}
	if strings.HasPrefix(arg, "@") {
		data, err := os.ReadFile(arg[1:])
		if err != nil {
			return nil, err
		}
		arg = string(data)
	}
	return rec.ParseSLO(arg)
}

func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	sloArg := fs.String("slo", "", "SLO spec string, or @file")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	slo, err := loadSLO(*sloArg)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	res := slo.Check(rc)
	for _, raw := range res.Unbound {
		fmt.Fprintf(os.Stderr, "csbrec: warning: rule %q matches no series\n", raw)
	}
	breaches := 0
	for _, ev := range res.Events {
		if ev.Kind == "slo_breach" {
			breaches++
		}
		fmt.Fprintf(out, "cycle %-10d %-12s %s  rule=%q  value=%g\n", ev.Cycle, ev.Kind, ev.Node, ev.Rule, ev.Value)
	}
	for _, a := range res.Active {
		fmt.Fprintf(out, "STILL BREACHED at end: %s  rule=%q  value=%g (since cycle %d)\n", a.Series, a.Rule, a.Value, a.Since)
	}
	if breaches > 0 || len(res.Active) > 0 {
		return fmt.Errorf("%d breach(es) over %d windows", breaches, len(rc.Windows))
	}
	fmt.Fprintf(out, "ok: %d rules over %d windows, no breaches\n", len(slo.Rules), len(rc.Windows))
	return nil
}

func cmdDiff(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("diff", flag.ContinueOnError)
	tol := fs.Float64("tol", 0, "relative tolerance on numeric comparisons (0 = exact)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 2 {
		return fmt.Errorf("want exactly two recording files")
	}
	a, err := loadRec(fs.Arg(0))
	if err != nil {
		return err
	}
	b, err := loadRec(fs.Arg(1))
	if err != nil {
		return err
	}
	diffs := rec.Diff(a, b, *tol)
	for _, d := range diffs {
		fmt.Fprintln(out, d)
	}
	if len(diffs) > 0 {
		return fmt.Errorf("recordings differ (%d difference(s), tol=%g)", len(diffs), *tol)
	}
	return nil
}

// traceEvent mirrors the Chrome trace-event subset ctrace emits, plus
// the "C" counter phase — loading this file together with a ctrace or
// journey export lines recorded history up with the slices.
type traceEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   uint64         `json:"ts"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid,omitempty"`
	S    string         `json:"s,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

func cmdPerfetto(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("perfetto", flag.ContinueOnError)
	outPath := fs.String("o", "-", "output path ('-' = stdout)")
	m := fs.String("m", "", "series glob filter ('*' wildcards)")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	const pid = 99 // past the ctrace per-node pids, so merged loads don't collide
	events := []traceEvent{{Name: "process_name", Ph: "M", PID: pid,
		Args: map[string]any{"name": "flight recorder"}}}
	for wi := range rc.Windows {
		w := &rc.Windows[wi]
		for i, name := range rc.CtrNames {
			if !matchGlob(*m, name) {
				continue
			}
			track, v := name+" (delta)", w.CtrDelta[i]
			if rc.IsGauge(i) {
				track, v = name, w.CtrEnd[i]
			}
			events = append(events, traceEvent{Name: track, Ph: "C", Ts: w.C1, PID: pid,
				Args: map[string]any{"value": v}})
		}
		for i, name := range rc.HistNames {
			if !matchGlob(*m, name) {
				continue
			}
			h := &w.Hist[i]
			events = append(events, traceEvent{Name: name + " p99", Ph: "C", Ts: w.C1, PID: pid,
				Args: map[string]any{"value": h.P99}})
		}
	}
	for _, ev := range rc.Events {
		name := ev.Kind
		if ev.Node != "" {
			name += " " + ev.Node
		}
		e := traceEvent{Name: name, Ph: "i", Ts: ev.Cycle, PID: pid, S: "g"}
		if ev.Rule != "" || ev.Value != 0 {
			e.Args = map[string]any{}
			if ev.Rule != "" {
				e.Args["rule"] = ev.Rule
			}
			if ev.Value != 0 {
				e.Args["value"] = ev.Value
			}
		}
		events = append(events, e)
	}
	doc := struct {
		TraceEvents     []traceEvent `json:"traceEvents"`
		DisplayTimeUnit string       `json:"displayTimeUnit"`
	}{events, "ns"}

	w := out
	if *outPath != "-" {
		f, err := os.Create(*outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		w = f
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&doc)
}
