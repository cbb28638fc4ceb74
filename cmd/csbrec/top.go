// csbrec top: a terminal dashboard over a flight recording. It renders
// per-node throughput, RX-queue depth, end-to-end wire latency
// quantiles, the serving clients' panel and any SLO alerts for each
// window of a recording written by `csbcluster -record` or
// `csbsim -record`.
//
// top follows FILE: while the recording has no footer frame it keeps
// reading the frames the simulator appends, so the same command watches
// a live run and scrubs through a finished one:
//
//	csbcluster -serve -horizon 3000000 -record run.rec &
//	csbrec top run.rec
//
// A recording whose writer died without a footer is followed until
// interrupted. The dashboard redraws in place (ANSI clear) unless -plain
// is given, in which case windows append — the mode for logs and CI.
// -frames N exits after N windows. -at CYCLE renders only the window
// containing that cycle (the last window when the recording ends
// before it).
//
// Every number is the window's own: Δ columns are the window's counter
// deltas, gauges (rx pending, outstanding requests) their values at the
// window's end, histogram panels show the window's samples and
// quantiles, and the alerts panel replays the recording's own SLO spec
// up to the rendered window.

package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"csbsim/internal/obs/rec"
)

// pollEvery is how often a recording without a footer is re-read for
// appended frames.
var pollEvery = 100 * time.Millisecond

// view is the dashboard's rendering options.
type view struct {
	frames int    // stop after this many windows (0 = at the footer)
	plain  bool   // append windows instead of redrawing in place
	atSet  bool   // render only the window containing at
	at     uint64 // the cycle -at selects
}

func cmdTop(args []string, out io.Writer) error {
	var v view
	fs := flag.NewFlagSet("top", flag.ContinueOnError)
	fs.IntVar(&v.frames, "frames", 0, "exit after N windows (0 = at the recording's footer)")
	fs.BoolVar(&v.plain, "plain", false, "append windows instead of redrawing in place")
	fs.Uint64Var(&v.at, "at", 0, "render only the window containing this cycle")
	path, err := oneArg(fs, args)
	if err != nil {
		return err
	}
	fs.Visit(func(f *flag.Flag) { v.atSet = v.atSet || f.Name == "at" })
	return follow(out, path, v)
}

// follow reads the recording at path until its footer, rendering each
// window as the frame that completes it arrives.
func follow(out io.Writer, path string, v view) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	var (
		p     rec.Parser
		slo   *rec.SLO
		sloOK bool // slo has been parsed from the header
		next  int  // the next window to consider
		shown int
	)
	for {
		if _, err := io.Copy(&p, f); err != nil {
			return err
		}
		rc, err := p.Recording()
		if err != nil {
			if p.Done() {
				return fmt.Errorf("%s: %w", path, err)
			}
			time.Sleep(pollEvery)
			continue
		}
		if !sloOK && len(rc.SLOSpecs) > 0 {
			// A spec that does not parse came from a newer grammar:
			// degrade to no alerts panel.
			slo, _ = rec.ParseSLO(strings.Join(rc.SLOSpecs, "\n"))
		}
		sloOK = true
		end := len(rc.Windows)
		if v.atSet {
			// The first window ending at or after the cycle; the last
			// window once the footer shows none ever will.
			i := sort.Search(end, func(i int) bool { return rc.Windows[i].C1 >= v.at })
			if i == end && !p.Done() {
				time.Sleep(pollEvery)
				continue
			}
			next, end = max(min(i, end-1), 0), min(i+1, end)
		}
		for ; next < end; next++ {
			if !v.plain && !v.atSet {
				fmt.Fprint(out, "\x1b[2J\x1b[H") // clear + home
			}
			w := &rc.Windows[next]
			fmt.Fprintf(out, "%s  window %d  cycles %d..%d\n", path, next+1, w.C0, w.C1)
			render(out, rc, next, slo)
			shown++
			if v.atSet || v.frames > 0 && shown >= v.frames {
				return nil
			}
		}
		if p.Done() {
			if rc.Truncated {
				fmt.Fprintln(os.Stderr, "csbrec: warning: recording is truncated (a malformed frame ends it)")
			}
			if shown == 0 {
				return fmt.Errorf("%s: recording has no windows", path)
			}
			return nil
		}
		time.Sleep(pollEvery)
	}
}

// render draws window wi of a recording. A node is a recording source
// (the series prefix before the first '/'); the "cluster" source carries
// the fabric counters and the wire and client histograms.
func render(out io.Writer, rc *rec.Recording, wi int, slo *rec.SLO) {
	w := &rc.Windows[wi]
	hist := func(name string) *rec.HistWindow {
		if i := rc.HistIndex(name); i >= 0 {
			return &w.Hist[i]
		}
		return nil
	}
	ctr := func(name string) uint64 {
		if i := rc.CounterIndex(name); i >= 0 {
			return w.CtrEnd[i]
		}
		return 0
	}
	fmt.Fprintf(out, "csbrec top — cycle %d  (frame %d)\n\n", w.C1, w.Index+1)

	fmt.Fprintf(out, "%-10s %12s %8s %12s %8s\n", "node", "pkts sent", "Δsent", "rx pending", "rx hw")
	for _, node := range rc.Sources {
		if node == "cluster" {
			continue // the fabric's view of every node, rendered below
		}
		sent := pick(rc, node, "packets_sent")
		if sent < 0 {
			continue
		}
		var pending, hw uint64
		if i := pick(rc, node, "rx_pending"); i >= 0 {
			pending = w.CtrEnd[i]
		}
		if i := pick(rc, node, "rx_highwater"); i >= 0 {
			hw = w.CtrEnd[i]
		}
		fmt.Fprintf(out, "%-10s %12d %8d %12d %8d\n", node, w.CtrEnd[sent], w.CtrDelta[sent], pending, hw)
	}

	// Wire-latency quantiles from whichever source carries the wire
	// journeys' histograms (the "cluster" source in cluster runs).
	for _, node := range rc.Sources {
		e2e := hist(node + "/journey/e2e/wire")
		if e2e == nil {
			continue
		}
		// n counts the packets completed over the run, Δ this window's.
		fmt.Fprintf(out, "\ne2e latency: p50=%d p99=%d max=%d cycles  (n=%d, Δ%d)\n",
			e2e.P50, e2e.P99, e2e.Max, ctr(node+"/journey/wire/completed"), e2e.N)
		hopPrefix := node + "/journey/wire/"
		var hops []string
		for i, name := range rc.HistNames { // sorted, so hops render in name order
			if hop, ok := strings.CutPrefix(name, hopPrefix); ok {
				hops = append(hops, fmt.Sprintf("%s=%d", hop, w.Hist[i].P50))
			}
		}
		if len(hops) > 0 {
			fmt.Fprintf(out, "hops (p50): %s\n", strings.Join(hops, "  "))
		}
		break
	}

	// Serving-workload panel: the cluster registry carries one latency
	// histogram and issued/completed counters per load-generator client,
	// named after the client's node.
	for _, src := range rc.Sources {
		header := false
		for _, cl := range rc.Sources {
			pre := src + "/loadgen/" + cl + "/"
			h := hist(pre + "latency")
			if h == nil {
				continue
			}
			if !header {
				header = true
				fmt.Fprintf(out, "\n%-10s %10s %10s %8s %8s %8s %6s %10s %10s\n",
					"client", "issued", "completed", "Δdone", "outst", "retries", "lost", "p50", "p99")
			}
			fmt.Fprintf(out, "%-10s %10d %10d %8d %8d %8d %6d %10d %10d\n", cl,
				ctr(pre+"issued"), ctr(pre+"completed"), h.N,
				ctr(pre+"outstanding"), ctr(pre+"retries"), ctr(pre+"lost"), h.P50, h.P99)
		}
		if !header {
			continue
		}
		// Fabric-health line: only once wire faults or degradation have
		// actually bitten (the counters exist, at zero, in every run).
		drops, dups := ctr(src+"/fault_drops"), ctr(src+"/fault_dups")
		outage, down := ctr(src+"/outage_drops"), ctr(src+"/nodes_down")
		if drops+dups+outage+down > 0 {
			fmt.Fprintf(out, "wire faults: drops=%d dups=%d outage_drops=%d delay_cycles=%d",
				drops, dups, outage, ctr(src+"/fault_delay_cycles"))
			if down > 0 {
				fmt.Fprintf(out, "  DEGRADED: %d node(s) down, %d drops at corpses",
					down, ctr(src+"/degraded_drops"))
			}
			fmt.Fprintln(out)
		}
		break
	}

	// SLO alert panel: the recording's own spec replayed through this
	// window.
	if slo != nil {
		if alerts := slo.ActiveAt(rc, wi); len(alerts) > 0 {
			fmt.Fprintf(out, "\nALERTS (%d active):\n", len(alerts))
			for _, a := range alerts {
				fmt.Fprintf(out, "  BREACHED  %-44s %s  since cycle %d (last %.6g)\n",
					a.Series, a.Rule, a.Since, a.Value)
			}
		}
	}
	fmt.Fprintln(out)
}

// pick returns the index of node's counter called name, or -1: the
// series "<node>/<name>", else the first in sorted order ending in
// "/<name>" ("n0/dev0/packets_sent").
func pick(rc *rec.Recording, node, name string) int {
	if i := rc.CounterIndex(node + "/" + name); i >= 0 {
		return i
	}
	prefix := node + "/"
	for i, s := range rc.CtrNames {
		if strings.HasPrefix(s, prefix) && strings.HasSuffix(s, "/"+name) {
			return i
		}
	}
	return -1
}
