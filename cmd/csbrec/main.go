// csbrec inspects flight-recorder recordings (internal/obs/rec): window
// summaries, per-series statistics (a histogram's exact over the whole
// run, from the footer), window slices, the cycle-stamped event log, the
// store journeys of a `csbsim -journeys -record` run and the wire spans
// of a `csbcluster -trace -record` run, an ASCII pipeline diagram of the
// last retired instructions of a `csbsim -record` run, SLO checks,
// tolerance-aware recording diffs for regression gating, and Perfetto
// export: counter tracks of the recorded history; for a csbsim run the
// last instructions' lifetimes, bus transactions and store journeys
// with flow arrows between them; for a csbcluster run one timeline per
// node with the wire spans and their flow arrows. A counter is shown by
// its change over each window, a gauge (an occupancy) by its value at
// the window's end.
//
// Usage:
//
//	csbrec summary file.rec
//	csbrec series [-m glob] file.rec
//	csbrec slice [-from N] [-to M] [-m glob] file.rec
//	csbrec events file.rec
//	csbrec journeys [-top N] [-recent N] [-kind K] [-addr A | -range lo:hi] file.rec
//	csbrec pipeview [-n N] file.rec
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
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"csbsim/internal/cluster/ctrace"
	"csbsim/internal/obs"
	"csbsim/internal/obs/journey"
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
	case "journeys":
		err = cmdJourneys(args, os.Stdout)
	case "pipeview":
		err = cmdPipeview(args, os.Stdout)
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
  csbrec series [-m glob] file.rec             per-series stats over the whole run
  csbrec slice [-from N] [-to M] [-m glob] f   windows in a cycle range
  csbrec events file.rec                       the cycle-stamped event log
  csbrec journeys [-top N] [-recent N] [-kind K] [-addr A | -range lo:hi] f
                                               slowest and most recent store journeys
                                               and wire spans
  csbrec pipeview [-n N] file.rec              pipeline diagram of the last N instructions
  csbrec check -slo spec|@file file.rec        evaluate an SLO spec (exit 1 on breach)
  csbrec diff [-tol F] a.rec b.rec             compare recordings (exit 1 when different)
  csbrec perfetto [-o out.json] file.rec       Perfetto export: counter tracks, instructions,
                                               bus transactions, journeys, wire spans
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
	if len(rc.Spans) > 0 {
		var done, dropped int
		for _, s := range rc.Spans {
			if s.Done {
				done++
			} else if s.Dropped {
				dropped++
			}
		}
		fmt.Fprintf(out, "  spans:     %d (%d completed, %d dropped)\n", len(rc.Spans), done, dropped)
	}
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
		if rc.Total != nil {
			fmt.Fprintf(out, "hist %-44s %s\n", name, histStats(&rc.Total[i], 8))
			continue
		}
		// No footer: per-window quantiles do not merge, so show their range.
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
			fmt.Fprintf(out, "  hist %-44s %s\n", name, histStats(&w.Hist[i], 6))
		}
		printed++
	}
	if printed == 0 {
		return fmt.Errorf("no windows intersect cycles [%d,%d]", *from, *to)
	}
	return nil
}

// histStats renders a histogram's statistics, its count padded to width.
func histStats(h *rec.HistWindow, width int) string {
	if h.N == 0 {
		return "n=0"
	}
	return fmt.Sprintf("n=%-*d min=%d p50=%d p95=%d p99=%d max=%d mean=%.1f",
		width, h.N, h.Min, h.P50, h.P95, h.P99, h.Max, h.Mean())
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

func cmdJourneys(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("journeys", flag.ContinueOnError)
	top := fs.Int("top", 10, "show the N slowest journeys and spans (0 = none)")
	recent := fs.Int("recent", 0, "also list the N most recent journeys and spans (0 = none)")
	kind := fs.String("kind", "", "filter journeys by kind: uncached_store, csb_store or nic_descriptor")
	addr := fs.String("addr", "", "filter: journeys whose span contains this address (hex ok)")
	rng := fs.String("range", "", "filter: journeys starting inside lo:hi (hex ok)")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	keep, err := journeyFilter(*kind, *addr, *rng)
	if err != nil {
		return err
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	if len(rc.Slowest)+len(rc.Journeys)+len(rc.Spans) == 0 {
		return fmt.Errorf("%s holds no journeys or spans (record with csbsim -journeys -record or csbcluster -trace -record)", path)
	}
	filter := func(js []journey.Journey) []journey.Journey {
		var kept []journey.Journey
		for _, j := range js {
			if keep(j) {
				kept = append(kept, j)
			}
		}
		return kept
	}
	journeys := len(rc.Slowest)+len(rc.Journeys) > 0
	if *top > 0 && journeys {
		js := filter(rc.Slowest)
		js = js[:min(len(js), *top)]
		fmt.Fprintf(out, "slowest %d journeys:\n", len(js))
		journeyTable(out, js)
	}
	if *recent > 0 && journeys {
		js := filter(rc.Journeys)
		js = js[max(0, len(js)-*recent):]
		fmt.Fprintf(out, "most recent %d journeys:\n", len(js))
		journeyTable(out, js)
	}
	if *top > 0 && len(rc.Spans) > 0 {
		var done []ctrace.MergedSpan
		for _, s := range rc.Spans {
			if s.Done {
				done = append(done, s)
			}
		}
		// Slowest first; equal latencies keep trace-ID order.
		sort.SliceStable(done, func(i, j int) bool { return done[i].E2E > done[j].E2E })
		done = done[:min(len(done), *top)]
		fmt.Fprintf(out, "slowest %d spans:\n", len(done))
		spanTable(out, done)
	}
	if *recent > 0 && len(rc.Spans) > 0 {
		ss := rc.Spans[max(0, len(rc.Spans)-*recent):]
		fmt.Fprintf(out, "most recent %d spans:\n", len(ss))
		spanTable(out, ss)
	}
	return nil
}

// journeyFilter builds the -kind and -addr/-range predicate.
func journeyFilter(kind, addr, rng string) (func(journey.Journey) bool, error) {
	var want journey.Kind
	if kind != "" {
		var err error
		if want, err = journey.ParseKind(kind); err != nil {
			return nil, err
		}
	}
	inSpan := func(journey.Journey) bool { return true }
	switch {
	case addr != "" && rng != "":
		return nil, fmt.Errorf("-addr and -range are mutually exclusive")
	case addr != "":
		a, err := parseAddr(addr)
		if err != nil {
			return nil, err
		}
		inSpan = func(j journey.Journey) bool { return j.Addr <= a && a < j.Addr+uint64(j.Size) }
	case rng != "":
		lo, hi, ok := strings.Cut(rng, ":")
		l, err1 := parseAddr(lo)
		h, err2 := parseAddr(hi)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad range %q (want lo:hi)", rng)
		}
		inSpan = func(j journey.Journey) bool { return l <= j.Addr && j.Addr < h }
	}
	return func(j journey.Journey) bool { return (kind == "" || j.Kind == want) && inSpan(j) }, nil
}

// parseAddr reads a decimal or 0x-prefixed hex address.
func parseAddr(s string) (uint64, error) {
	v, err := strconv.ParseUint(s, 10, 64)
	if h, ok := strings.CutPrefix(s, "0x"); ok {
		v, err = strconv.ParseUint(h, 16, 64)
	}
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	return v, nil
}

// journeyTable prints one row per journey: its start cycle, then each
// later hop as the cycles since the previous stamp ("-" when the hop was
// not reached), the end-to-end latency and the flags.
func journeyTable(out io.Writer, js []journey.Journey) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "kind\tid\taddr\tsize\tstart\thop1\thop2\thop3\te2e\tflags")
	for _, j := range js {
		var flags []string
		if j.Coalesced {
			flags = append(flags, "coalesced")
		}
		if j.Aborted {
			flags = append(flags, "aborted")
		} else if !j.Done {
			flags = append(flags, "in-flight")
		}
		e2e := "-"
		if j.Done {
			e2e = strconv.FormatUint(j.E2E(), 10)
		}
		var cols [3]string
		n, prev := 0, j.T[journey.HopStart]
		for h, name := range journey.HopNames(j.Kind) {
			switch {
			case h == int(journey.HopStart) || name == "":
				continue
			case j.T[h] == 0:
				cols[n] = name + ":-"
			default:
				cols[n] = fmt.Sprintf("%s:+%d", name, j.T[h]-prev)
				prev = j.T[h]
			}
			n++
		}
		fmt.Fprintf(w, "%s\t%d\t%#x\t%d\t%d\t%s\t%s\t%s\t%s\t%s\n", j.Kind, j.ID, j.Addr, j.Size,
			j.T[journey.HopStart], cols[0], cols[1], cols[2], e2e, strings.Join(flags, ","))
	}
	w.Flush()
}

// spanTable prints one row per wire span: its route and size, its
// fifo_push cycle, then each later stamp as the cycles since the
// previous one ("-" when the hop was not reached), the end-to-end
// latency and the drop cycle or in-flight flag.
func spanTable(out io.Writer, ss []ctrace.MergedSpan) {
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "id\tfrom\tto\tsize\tstart")
	for _, name := range ctrace.HopNames[1:] {
		fmt.Fprintf(w, "\t%s", name)
	}
	fmt.Fprintln(w, "\te2e\tflags")
	for _, s := range ss {
		fmt.Fprintf(w, "%d\t%s\t%s\t%d\t%d", s.TraceID, s.From, s.To, s.Size, s.FIFOPush)
		prev := s.FIFOPush
		for _, t := range []uint64{s.TxStart, s.WireDepart, s.WireArrive, s.RxEnqueue, s.RxDrain} {
			if t == 0 {
				fmt.Fprint(w, "\t-")
				continue
			}
			fmt.Fprintf(w, "\t+%d", t-prev)
			prev = t
		}
		e2e, flag := "-", ""
		switch {
		case s.Done:
			e2e = strconv.FormatUint(s.E2E, 10)
		case s.Dropped:
			flag = fmt.Sprintf("dropped@%d", s.DropCycle)
		default:
			flag = "in-flight"
		}
		fmt.Fprintf(w, "\t%s\t%s\n", e2e, flag)
	}
	w.Flush()
}

func cmdPipeview(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("pipeview", flag.ContinueOnError)
	n := fs.Int("n", 20, "draw the last N retired instructions")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	if *n <= 0 {
		return fmt.Errorf("-n must be positive, got %d", *n)
	}
	rc, err := loadRec(path)
	if err != nil {
		return err
	}
	if len(rc.Insts) == 0 {
		return fmt.Errorf("%s holds no instructions (record with csbsim -record)", path)
	}
	fmt.Fprint(out, obs.FormatPipeline(rc.Insts[max(0, len(rc.Insts)-*n):]))
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

// traceEvent is the Chrome trace-event subset the export writes:
// metadata, counter, instant and complete events, and flow arrows (whose
// steps share a name, category and id). Timestamps are cycles written
// as microseconds: only the relative scale means anything.
type traceEvent struct {
	Name   string         `json:"name"`
	Cat    string         `json:"cat,omitempty"`
	Ph     string         `json:"ph"`
	Ts     uint64         `json:"ts"`
	Dur    uint64         `json:"dur,omitempty"`
	PID    int            `json:"pid"`
	TID    int            `json:"tid"`
	FlowID uint64         `json:"id,omitempty"`
	BP     string         `json:"bp,omitempty"`
	S      string         `json:"s,omitempty"`
	Args   map[string]any `json:"args,omitempty"`
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
	const pid = 99 // past the per-node pids of the span timelines
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
			// An empty window has no p99; plotting 0 would read as a drop.
			if !matchGlob(*m, name) || w.Hist[i].N == 0 {
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
	events = spanEvents(events, rc.Spans)
	events = pipelineEvents(events, rc)
	events = journeyEvents(events, rc)
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

// The span timelines' thread IDs: each node process has a tx and an rx
// thread.
const (
	tidTx = 1
	tidRx = 2
)

// spanEvents appends the wire spans as one process per node (sorted by
// name, numbered from 1) with tx and rx threads: a slice per packet on
// each side of the wire, and a flow arrow from the sender's wire_depart
// to the receiver's wire_arrive binding the two timelines.
func spanEvents(events []traceEvent, spans []ctrace.MergedSpan) []traceEvent {
	var names []string
	for _, s := range spans {
		names = append(names, s.From, s.To)
	}
	sort.Strings(names)
	names = slices.Compact(names)
	pid := make(map[string]int, len(names))
	for i, n := range names {
		pid[n] = 1 + i
		events = append(events,
			traceEvent{Name: "process_name", Ph: "M", PID: 1 + i,
				Args: map[string]any{"name": "node " + n}},
			traceEvent{Name: "thread_name", Ph: "M", PID: 1 + i, TID: tidTx,
				Args: map[string]any{"name": "nic tx"}},
			traceEvent{Name: "thread_name", Ph: "M", PID: 1 + i, TID: tidRx,
				Args: map[string]any{"name": "nic rx"}})
	}
	for _, s := range spans {
		tx := traceEvent{
			Name: fmt.Sprintf("pkt %d → %s", s.TraceID, s.To),
			Ph:   "X", Ts: s.FIFOPush, Dur: max(s.WireDepart-s.FIFOPush, 1),
			PID: pid[s.From], TID: tidTx,
			Args: map[string]any{
				"trace_id": s.TraceID, "size": s.Size,
				"fifo_push": s.FIFOPush, "tx_start": s.TxStart, "wire_depart": s.WireDepart,
			},
		}
		if s.Dropped {
			tx.Args["dropped_at"] = s.DropCycle
		}
		events = append(events, tx)
		if s.WireArrive == 0 {
			continue // still on the wire: sender side only
		}
		rxArgs := map[string]any{"trace_id": s.TraceID, "size": s.Size, "wire_arrive": s.WireArrive}
		if s.RxEnqueue != 0 {
			rxArgs["rx_enqueue"] = s.RxEnqueue
		}
		if s.RxDrain != 0 {
			rxArgs["rx_drain"] = s.RxDrain
		}
		if s.Done {
			rxArgs["e2e"] = s.E2E
		}
		rxEnd := max(s.WireArrive, s.RxEnqueue, s.RxDrain)
		events = append(events,
			traceEvent{Name: fmt.Sprintf("pkt %d ← %s", s.TraceID, s.From),
				Ph: "X", Ts: s.WireArrive, Dur: max(rxEnd-s.WireArrive, 1),
				PID: pid[s.To], TID: tidRx, Args: rxArgs},
			traceEvent{Name: "wire", Cat: "wire", Ph: "s", Ts: s.WireDepart,
				PID: pid[s.From], TID: tidTx, FlowID: s.TraceID},
			traceEvent{Name: "wire", Cat: "wire", Ph: "f", BP: "e", Ts: s.WireArrive,
				PID: pid[s.To], TID: tidRx, FlowID: s.TraceID})
	}
	return events
}

// The processes of a csbsim recording's pipeline tail and journeys, and
// the number of instruction rows: in-flight instructions rotate across
// the lanes (half the ROB) so overlapping lifetimes stay readable.
const (
	pidCPU = 1
	pidBus = 2
	pidMem = 3
	lanes  = 32
)

// lane returns an instruction's row in the cpu process.
func lane(e *obs.InstEvent) int { return 1 + int(e.Seq%lanes) }

// pipelineEvents appends the pipeline tail: one slice per instruction,
// fetch to retire, with its stage stamps in the args, and one per bus
// transaction, all on the CPU-cycle timeline.
func pipelineEvents(events []traceEvent, rc *rec.Recording) []traceEvent {
	if len(rc.Insts)+len(rc.Bus) == 0 {
		return events
	}
	events = append(events,
		traceEvent{Name: "process_name", Ph: "M", PID: pidCPU,
			Args: map[string]any{"name": "cpu pipeline"}},
		traceEvent{Name: "process_name", Ph: "M", PID: pidBus,
			Args: map[string]any{"name": "system bus"}})
	for i := range rc.Insts {
		e := &rc.Insts[i]
		start, end := e.Span()
		args := map[string]any{"seq": e.Seq, "pc": fmt.Sprintf("%#x", e.PC)}
		for _, st := range []struct {
			name  string
			cycle uint64
		}{
			{"fetch", e.Fetch}, {"dispatch", e.Dispatch}, {"issue", e.Issue},
			{"complete", e.Complete}, {"retire", e.Retire},
		} {
			if st.cycle != 0 {
				args[st.name] = st.cycle
			}
		}
		if e.IsMem {
			args["va"] = fmt.Sprintf("%#x", e.Addr)
		}
		events = append(events, traceEvent{Name: e.Disasm, Ph: "X", Ts: start, Dur: max(end-start, 1),
			PID: pidCPU, TID: lane(e), Args: args})
	}
	for _, e := range rc.Bus {
		dir, kind := "RD", "mem"
		if e.Write {
			dir = "WR"
		}
		if e.IO {
			kind = "io"
		}
		events = append(events, traceEvent{Name: fmt.Sprintf("%s %dB @%#x", dir, e.Size, e.Addr),
			Ph: "X", Ts: e.Start, Dur: max(e.End-e.Start, 1), PID: pidBus, TID: 1,
			Args: map[string]any{"kind": kind, "size": e.Size}})
	}
	return events
}

// journeyEvents appends the recent store journeys as a "memory system"
// process with one thread per journey kind: a slice spanning each
// journey, a nested slice per hop, and a flow arrow stitching the story
// across processes, from the retiring store's instruction slice through
// the journey to the bus transaction that carried it.
func journeyEvents(events []traceEvent, rc *rec.Recording) []traceEvent {
	if len(rc.Journeys) == 0 {
		return events
	}
	events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pidMem,
		Args: map[string]any{"name": "memory system"}})
	for i, name := range []string{"uncached stores", "csb stores", "nic descriptors"} {
		events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: pidMem, TID: 1 + i,
			Args: map[string]any{"name": name}})
	}
	// Memory instructions by address, so each journey finds the store
	// that started it: the journey's first stamp is taken the cycle the
	// store retires.
	byAddr := make(map[uint64][]*obs.InstEvent)
	for i := range rc.Insts {
		if e := &rc.Insts[i]; e.IsMem {
			byAddr[e.Addr] = append(byAddr[e.Addr], e)
		}
	}
	for flowID, j := range rc.Journeys {
		tid := 1 + int(j.Kind)
		start, end := j.T[journey.HopStart], j.T[journey.HopComplete]
		if end == 0 { // still in flight, or aborted mid-way
			end = slices.Max(j.T[:])
		}
		args := map[string]any{"id": j.ID, "size": j.Size, "coalesced": j.Coalesced, "aborted": j.Aborted}
		names := journey.HopNames(j.Kind)
		for h, name := range names {
			if name != "" && j.T[h] != 0 {
				args[name] = j.T[h]
			}
		}
		events = append(events, traceEvent{Name: fmt.Sprintf("%s @%#x", j.Kind, j.Addr),
			Ph: "X", Ts: start, Dur: max(end-start, 1), PID: pidMem, TID: tid, Args: args})
		// One child slice per pair of consecutive stamped hops.
		prev := journey.HopStart
		for h := prev + 1; h < journey.NumHops; h++ {
			if names[h] == "" || j.T[h] == 0 {
				continue
			}
			events = append(events, traceEvent{Name: names[prev] + "→" + names[h],
				Ph: "X", Ts: j.T[prev], Dur: max(j.T[h]-j.T[prev], 1), PID: pidMem, TID: tid})
			prev = h
		}
		// The store is matched by address and retire cycle. The CPU's
		// cycle counter leads the machine clock by one (it increments at
		// the top of its Tick), so the store is stamped one cycle after
		// the journey opens. The bus transaction is matched by the grant
		// stamp, its first occupied cycle.
		steps := make([]traceEvent, 0, 3)
		for _, e := range byAddr[j.Addr] {
			if e.Retire == start || e.Retire == start+1 {
				ts, _ := e.Span()
				steps = append(steps, traceEvent{Ts: ts, PID: pidCPU, TID: lane(e)})
				break
			}
		}
		steps = append(steps, traceEvent{Ts: start, PID: pidMem, TID: tid})
		if g := j.T[journey.HopBusGrant]; g != 0 && len(rc.Bus) > 0 {
			steps = append(steps, traceEvent{Ts: g, PID: pidBus, TID: 1})
		}
		if len(steps) < 2 {
			continue // an arrow needs two ends
		}
		for i := range steps {
			steps[i].Name, steps[i].Cat, steps[i].Ph, steps[i].FlowID = "store journey", "journey", "t", uint64(flowID+1)
		}
		steps[0].Ph = "s"
		steps[len(steps)-1].Ph, steps[len(steps)-1].BP = "f", "e" // bind the end to the enclosing slice
		events = append(events, steps...)
	}
	return events
}
