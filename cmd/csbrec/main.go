// csbrec inspects flight-recorder recordings (internal/obs/rec): window
// summaries, per-series statistics (a histogram's exact over the whole
// run, from the footer), window slices, the cycle-stamped event log, the
// journeys of a `csbsim -journeys -record` run and every node's journeys
// plus the wire journeys of a `csbcluster -trace -record` run, an ASCII
// pipeline diagram of the last retired instructions of a `csbsim
// -record` run, SLO checks, tolerance-aware recording diffs for
// regression gating, and Perfetto export: counter tracks of the recorded
// history; for a csbsim run the last instructions' lifetimes, bus
// transactions and store journeys with flow arrows between them; for a
// csbcluster run one process per node with its journeys, and a flow
// arrow from sender to receiver per wire journey. top is the live
// dashboard (top.go): it follows a recording as the simulator writes
// it, rendering each window. A counter is shown by its change over each
// window, a gauge (an occupancy) by its value at the window's end.
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
//	csbrec top [-frames N] [-plain] [-at CYCLE] file.rec
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"text/tabwriter"

	"csbsim/internal/obs"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
)

// commands maps each subcommand to its implementation.
var commands = map[string]func(args []string, out io.Writer) error{
	"summary":  cmdSummary,
	"series":   cmdSeries,
	"slice":    cmdSlice,
	"events":   cmdEvents,
	"journeys": cmdJourneys,
	"pipeview": cmdPipeview,
	"check":    cmdCheck,
	"diff":     cmdDiff,
	"perfetto": cmdPerfetto,
	"top":      cmdTop,
}

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	os.Exit(dispatch(os.Args[1], os.Args[2:], os.Stdout, os.Stderr))
}

// dispatch executes one subcommand and returns the process exit status. A
// subcommand's -h prints its flags and succeeds, as help does.
func dispatch(cmd string, args []string, stdout, stderr io.Writer) int {
	switch cmd {
	case "-h", "-help", "--help", "help":
		usage()
		return 0
	}
	f, ok := commands[cmd]
	if !ok {
		fmt.Fprintf(stderr, "csbrec: unknown command %q\n", cmd)
		usage()
		return 2
	}
	if err := f(args, stdout); err != nil && !errors.Is(err, flag.ErrHelp) {
		fmt.Fprintln(stderr, "csbrec:", err)
		return 1
	}
	return 0
}

func usage() {
	fmt.Fprint(os.Stderr, `usage:
  csbrec summary file.rec                      recording overview
  csbrec series [-m glob] file.rec             per-series stats over the whole run
  csbrec slice [-from N] [-to M] [-m glob] f   windows in a cycle range
  csbrec events file.rec                       the cycle-stamped event log
  csbrec journeys [-top N] [-recent N] [-kind K] [-addr A | -range lo:hi] f
                                               slowest and most recent journeys, by kind
  csbrec pipeview [-n N] file.rec              pipeline diagram of the last N instructions
  csbrec check -slo spec|@file file.rec        evaluate an SLO spec (exit 1 on breach)
  csbrec diff [-tol F] a.rec b.rec             compare recordings (exit 1 when different)
  csbrec perfetto [-o out.json] file.rec       Perfetto export: counter tracks, instructions,
                                               bus transactions, every node's journeys
  csbrec top [-frames N] [-plain] [-at CYCLE] f
                                               live dashboard: follow the recording and
                                               render each window
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
	if len(rc.Journeys) > 0 {
		var done, aborted int
		for _, j := range rc.Journeys {
			if j.Done {
				done++
			} else if j.Aborted {
				aborted++
			}
		}
		fmt.Fprintf(out, "  journeys:  %d recent (%d completed, %d aborted)\n", len(rc.Journeys), done, aborted)
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
	top := fs.Int("top", 10, "show the N slowest journeys of each kind (0 = none)")
	recent := fs.Int("recent", 0, "also list the N most recent journeys of each kind (0 = none)")
	kind := fs.String("kind", "", "filter journeys by kind: uncached_store, csb_store, nic_descriptor or wire")
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
	if len(rc.Slowest)+len(rc.Journeys) == 0 {
		return fmt.Errorf("%s holds no journeys (record with csbsim -journeys -record or csbcluster -trace -record)", path)
	}
	// of returns the journeys of kind k that pass the filter.
	of := func(k journey.Kind, js []journey.Journey) []journey.Journey {
		var kept []journey.Journey
		for _, j := range js {
			if j.Kind == k && keep(j) {
				kept = append(kept, j)
			}
		}
		return kept
	}
	// One table per kind with journeys to show. A tracer keeps one
	// slowest set over all its kinds, so a kind may have recent
	// journeys but no slowest table.
	kinds := journey.KindWire + 1 // the last kind
	for k := range kinds {
		// The slowest sets of several tracers, merged: slowest first,
		// equal latencies in recording order.
		js := of(k, rc.Slowest)
		sort.SliceStable(js, func(a, b int) bool { return js[a].E2E() > js[b].E2E() })
		if js = js[:min(len(js), max(*top, 0))]; len(js) > 0 {
			fmt.Fprintf(out, "slowest %d %s journeys:\n", len(js), k)
			journeyTable(out, k, js)
		}
	}
	for k := range kinds {
		js := of(k, rc.Journeys)
		sort.SliceStable(js, func(a, b int) bool { return js[a].T[journey.HopStart] < js[b].T[journey.HopStart] })
		if js = js[len(js)-min(len(js), max(*recent, 0)):]; len(js) > 0 {
			fmt.Fprintf(out, "most recent %d %s journeys:\n", len(js), k)
			journeyTable(out, k, js)
		}
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
		inSpan = func(j journey.Journey) bool {
			return j.Kind != journey.KindWire && j.Addr <= a && a < j.Addr+uint64(j.Size)
		}
	case rng != "":
		lo, hi, ok := strings.Cut(rng, ":")
		l, err1 := parseAddr(lo)
		h, err2 := parseAddr(hi)
		if !ok || err1 != nil || err2 != nil {
			return nil, fmt.Errorf("bad range %q (want lo:hi)", rng)
		}
		inSpan = func(j journey.Journey) bool { return j.Kind != journey.KindWire && l <= j.Addr && j.Addr < h }
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

// journeyTable prints one row per journey of kind k: its node (a wire
// journey's route), ID, address (a store's or descriptor's) and size, its
// start cycle, then each later hop as the cycles since the previous
// stamp ("-" when the hop was not reached), the end-to-end latency and
// the flags: coalesced, aborted (dropped@<wire_depart> for a wire
// journey) or in-flight, and a wire journey's link to the sender's
// nic_descriptor journey.
func journeyTable(out io.Writer, k journey.Kind, js []journey.Journey) {
	wire := k == journey.KindWire
	names := journey.HopNames(k)
	w := tabwriter.NewWriter(out, 2, 4, 2, ' ', 0)
	fmt.Fprint(w, "node\tid\t")
	if !wire {
		fmt.Fprint(w, "addr\t")
	}
	fmt.Fprint(w, "size\tstart")
	for _, name := range names[journey.HopDepart:] {
		if name != "" {
			fmt.Fprintf(w, "\t%s", name)
		}
	}
	fmt.Fprintln(w, "\te2e\tflags")
	for _, j := range js {
		var flags []string
		if j.Coalesced {
			flags = append(flags, "coalesced")
		}
		switch {
		case j.Aborted && wire:
			flags = append(flags, fmt.Sprintf("dropped@%d", j.T[journey.HopWireDepart]))
		case j.Aborted:
			flags = append(flags, "aborted")
		case !j.Done:
			flags = append(flags, "in-flight")
		}
		if j.Link != 0 {
			flags = append(flags, fmt.Sprintf("link=%d", j.Link))
		}
		if wire {
			fmt.Fprintf(w, "%s->%s\t%d\t", j.Node, j.To, j.ID)
		} else {
			fmt.Fprintf(w, "%s\t%d\t%#x\t", j.Node, j.ID, j.Addr)
		}
		fmt.Fprintf(w, "%d\t%d", j.Size, j.T[journey.HopStart])
		prev := j.T[journey.HopStart]
		for h := journey.HopDepart; h <= k.Last(); h++ {
			switch {
			case names[h] == "":
				continue
			case j.T[h] == 0:
				fmt.Fprint(w, "\t-")
			default:
				fmt.Fprintf(w, "\t+%d", j.T[h]-prev)
				prev = j.T[h]
			}
		}
		e2e := "-"
		if j.Done {
			e2e = strconv.FormatUint(j.E2E(), 10)
		}
		fmt.Fprintf(w, "\t%s\t%s\n", e2e, strings.Join(flags, ","))
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

func cmdCheck(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("check", flag.ContinueOnError)
	sloArg := fs.String("slo", "", "SLO spec string, or @file")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	slo, err := rec.LoadSLO(*sloArg)
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
	const pid = 99 // past the per-node journey processes
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

// The processes of a csbsim recording's pipeline tail, the first
// node's journeys (later nodes' follow it), and the number of
// instruction rows: in-flight instructions rotate across the lanes (half
// the ROB) so overlapping lifetimes stay readable.
const (
	pidCPU = 1
	pidBus = 2
	pidMem = 3
	lanes  = 32
)

// A node process's threads: one per store or descriptor kind (1 + the
// kind), and the two sides of its wire journeys.
const (
	tidWireTx = 1 + int(journey.KindWire)
	tidWireRx = tidWireTx + 1
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

// journeyEvents appends the recent journeys, one process per node from
// pidMem on (in the order nodes first appear): the "memory system" of a
// csbsim recording's machine, whose pipeline tail holds its cpu and bus,
// or "node <name>" otherwise. A store or descriptor journey is a slice
// on its kind's thread with a nested slice per hop, and a flow arrow
// stitching the story across processes, from the retiring store's
// instruction slice through the journey to the bus transaction that
// carried it. A wire journey is a slice on the sender's wire tx thread
// and, once it arrived, one on the receiver's wire rx thread, with a
// flow arrow from the first to the second.
func journeyEvents(events []traceEvent, rc *rec.Recording) []traceEvent {
	if len(rc.Journeys) == 0 {
		return events
	}
	pids := map[string]int{}
	var nodes []string
	wire := false
	for _, j := range rc.Journeys {
		for _, n := range []string{j.Node, j.To} {
			if _, ok := pids[n]; n != "" && !ok {
				pids[n] = pidMem + len(nodes)
				nodes = append(nodes, n)
			}
		}
		wire = wire || j.Kind == journey.KindWire
	}
	threads := []string{"uncached stores", "csb stores", "nic descriptors"}
	if wire {
		threads = append(threads, "wire tx", "wire rx")
	}
	for _, n := range nodes {
		name := "node " + n
		if len(rc.Insts)+len(rc.Bus) > 0 {
			name = "memory system"
		}
		events = append(events, traceEvent{Name: "process_name", Ph: "M", PID: pids[n],
			Args: map[string]any{"name": name}})
		for i, thread := range threads {
			events = append(events, traceEvent{Name: "thread_name", Ph: "M", PID: pids[n], TID: 1 + i,
				Args: map[string]any{"name": thread}})
		}
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
	for i, j := range rc.Journeys {
		flowID := uint64(i + 1)
		if j.Kind == journey.KindWire {
			events = wireEvents(events, &j, pids, flowID)
			continue
		}
		pid, tid := pids[j.Node], 1+int(j.Kind)
		start, end := j.T[journey.HopStart], j.T[journey.HopComplete]
		if end == 0 { // still in flight, or aborted mid-way
			end = slices.Max(j.T[:])
		}
		args := map[string]any{"id": j.ID, "node": j.Node, "size": j.Size, "coalesced": j.Coalesced, "aborted": j.Aborted}
		names := journey.HopNames(j.Kind)
		for h, name := range names {
			if name != "" && j.T[h] != 0 {
				args[name] = j.T[h]
			}
		}
		events = append(events, traceEvent{Name: fmt.Sprintf("%s @%#x", j.Kind, j.Addr),
			Ph: "X", Ts: start, Dur: max(end-start, 1), PID: pid, TID: tid, Args: args})
		// One child slice per pair of consecutive stamped hops.
		prev := journey.HopStart
		for h := prev + 1; h <= j.Kind.Last(); h++ {
			if names[h] == "" || j.T[h] == 0 {
				continue
			}
			events = append(events, traceEvent{Name: names[prev] + "→" + names[h],
				Ph: "X", Ts: j.T[prev], Dur: max(j.T[h]-j.T[prev], 1), PID: pid, TID: tid})
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
		steps = append(steps, traceEvent{Ts: start, PID: pid, TID: tid})
		if g := j.T[journey.HopBusGrant]; g != 0 && len(rc.Bus) > 0 {
			steps = append(steps, traceEvent{Ts: g, PID: pidBus, TID: 1})
		}
		if len(steps) < 2 {
			continue // an arrow needs two ends
		}
		for i := range steps {
			steps[i].Name, steps[i].Cat, steps[i].Ph, steps[i].FlowID = "store journey", "journey", "t", flowID
		}
		steps[0].Ph = "s"
		steps[len(steps)-1].Ph, steps[len(steps)-1].BP = "f", "e" // bind the end to the enclosing slice
		events = append(events, steps...)
	}
	return events
}

// wireEvents appends one wire journey: the sender's slice from fifo_push
// to wire_depart, and once the packet arrived, the receiver's from
// wire_arrive to its last stamp, bound by a flow arrow.
func wireEvents(events []traceEvent, j *journey.Journey, pids map[string]int, flowID uint64) []traceEvent {
	t := &j.T
	tx := traceEvent{
		Name: fmt.Sprintf("pkt %d → %s", j.ID, j.To),
		Ph:   "X", Ts: t[journey.HopStart], Dur: max(t[journey.HopWireDepart]-t[journey.HopStart], 1),
		PID: pids[j.Node], TID: tidWireTx,
		Args: map[string]any{
			"id": j.ID, "size": j.Size, "link": j.Link, "dropped": j.Aborted,
			"fifo_push": t[journey.HopStart], "tx_start": t[journey.HopDepart], "wire_depart": t[journey.HopWireDepart],
		},
	}
	events = append(events, tx)
	if t[journey.HopWireArrive] == 0 {
		return events // dropped, or still on the wire: sender side only
	}
	rxArgs := map[string]any{"id": j.ID, "size": j.Size, "wire_arrive": t[journey.HopWireArrive]}
	if t[journey.HopRxEnqueue] != 0 {
		rxArgs["rx_enqueue"] = t[journey.HopRxEnqueue]
	}
	if t[journey.HopRxDrain] != 0 {
		rxArgs["rx_drain"] = t[journey.HopRxDrain]
	}
	if j.Done {
		rxArgs["e2e"] = j.E2E()
	}
	arrive := t[journey.HopWireArrive]
	end := max(arrive, t[journey.HopRxEnqueue], t[journey.HopRxDrain])
	return append(events,
		traceEvent{Name: fmt.Sprintf("pkt %d ← %s", j.ID, j.Node),
			Ph: "X", Ts: arrive, Dur: max(end-arrive, 1), PID: pids[j.To], TID: tidWireRx, Args: rxArgs},
		traceEvent{Name: "wire", Cat: "wire", Ph: "s", Ts: t[journey.HopWireDepart],
			PID: pids[j.Node], TID: tidWireTx, FlowID: flowID},
		traceEvent{Name: "wire", Cat: "wire", Ph: "f", BP: "e", Ts: arrive,
			PID: pids[j.To], TID: tidWireRx, FlowID: flowID})
}
