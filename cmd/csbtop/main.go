// Command csbtop is a live terminal dashboard for a running simulation:
// it consumes the telemetry SSE stream served by `csbcluster -telemetry`
// (or `csbsim -telemetry`) and renders per-node throughput, RX-queue
// depth, end-to-end wire latency quantiles, and any SLO alerts the
// flight recorder has active, refreshed on every frame the simulator
// publishes.
//
// Usage:
//
//	csbtop [-url http://127.0.0.1:8077] [-frames N] [-plain] [-once]
//	csbtop -replay run.rec [-at CYCLE] [-frames N] [-plain]
//
// Each SSE event is one telemetry.Frame keyed by simulated cycle. The
// dashboard redraws in place (ANSI clear) unless -plain is given, in
// which case frames append — the mode for logs and CI. -frames N exits
// after N frames (0 = run until the stream closes), so a bounded watch
// works in scripts:
//
//	csbcluster -rounds 200 -telemetry 127.0.0.1:8077 &
//	csbtop -frames 5 -plain
//
// -once fetches a single /snapshot frame, renders it, and exits 0 — the
// mode for health checks and one-shot status in scripts.
//
// -replay renders from a flight-recorder file (csbcluster -record)
// instead of a live stream: each recorded window becomes one frame, so
// the same dashboard scrubs through a finished run. -at CYCLE jumps to
// the single window containing that cycle. Replayed histogram panels
// show per-window samples (that is what recordings store), and the
// alerts panel replays the recording's own SLO spec up to the rendered
// window.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"sort"
	"strings"

	"csbsim/internal/obs/rec"
	"csbsim/internal/obs/telemetry"
)

func main() {
	var (
		url    = flag.String("url", "http://127.0.0.1:8077", "telemetry server base URL")
		frames = flag.Int("frames", 0, "exit after N frames (0 = until the stream closes)")
		plain  = flag.Bool("plain", false, "append frames instead of redrawing in place")
		once   = flag.Bool("once", false, "fetch one /snapshot frame, render it, exit 0")
		replay = flag.String("replay", "", "render windows from a flight-recorder file instead of a live stream")
		at     = flag.Uint64("at", 0, "with -replay: render only the window containing this cycle")
	)
	flag.Parse()
	atSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "at" {
			atSet = true
		}
	})

	if *replay != "" {
		if err := replayRun(*replay, atSet, *at, *frames, *plain); err != nil {
			fatal(err)
		}
		return
	}
	if *once {
		if err := renderOnce(*url); err != nil {
			fatal(err)
		}
		return
	}

	resp, err := http.Get(strings.TrimSuffix(*url, "/") + "/stream")
	if err != nil {
		fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fatal(fmt.Errorf("stream returned %s", resp.Status))
	}

	var prev *telemetry.Frame
	seen := 0
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "data: ") {
			continue
		}
		var f telemetry.Frame
		if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &f); err != nil {
			fmt.Fprintln(os.Stderr, "csbtop: bad frame:", err)
			continue
		}
		if !*plain {
			fmt.Print("\x1b[2J\x1b[H") // clear + home
		}
		render(&f, prev)
		prev = &f
		seen++
		if *frames > 0 && seen >= *frames {
			return
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
}

// renderOnce fetches a single /snapshot frame and renders it.
func renderOnce(url string) error {
	resp, err := http.Get(strings.TrimSuffix(url, "/") + "/snapshot")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("snapshot returned %s", resp.Status)
	}
	var f telemetry.Frame
	if err := json.NewDecoder(resp.Body).Decode(&f); err != nil {
		return fmt.Errorf("bad snapshot: %w", err)
	}
	render(&f, nil)
	return nil
}

// replayRun scrubs through a flight recording, rendering each window as
// one dashboard frame (or just the window at -at).
func replayRun(path string, atSet bool, at uint64, frames int, plain bool) error {
	rc, err := rec.ReadFile(path)
	if err != nil {
		return err
	}
	if rc.Truncated {
		fmt.Fprintln(os.Stderr, "csbtop: warning: recording is truncated (no clean footer)")
	}
	if len(rc.Windows) == 0 {
		return fmt.Errorf("%s: recording has no windows", path)
	}
	var slo *rec.SLO
	if len(rc.SLOSpecs) > 0 {
		// The recording carries its own spec; a parse failure here means a
		// newer grammar wrote the file — degrade to no alerts panel.
		slo, _ = rec.ParseSLO(strings.Join(rc.SLOSpecs, "\n"))
	}

	first, last := 0, len(rc.Windows)-1
	if atSet {
		i := sort.Search(len(rc.Windows), func(i int) bool { return rc.Windows[i].C1 >= at })
		if i == len(rc.Windows) {
			i = len(rc.Windows) - 1
		}
		first, last = i, i
	}
	var prev *telemetry.Frame
	seen := 0
	for wi := first; wi <= last; wi++ {
		f := frameFromWindow(rc, wi, slo)
		if wi > first {
			prev = frameFromWindow(rc, wi-1, nil)
		}
		if !plain && !atSet {
			fmt.Print("\x1b[2J\x1b[H")
		}
		fmt.Printf("replay %s  window %d/%d  cycles %d..%d\n", path, wi+1, len(rc.Windows), rc.Windows[wi].C0, rc.Windows[wi].C1)
		render(f, prev)
		seen++
		if frames > 0 && seen >= frames {
			break
		}
	}
	return nil
}

// frameFromWindow synthesizes a telemetry frame from one recorded
// window: counters carry end-of-window cumulative values, histogram
// panels carry the window's own samples. Series names split on the
// first '/' back into (node, name); the full series name is also keyed
// so prefix-skipped cluster-registry names ("cluster/nodes_down")
// resolve exactly as they do in live frames.
func frameFromWindow(rc *rec.Recording, wi int, slo *rec.SLO) *telemetry.Frame {
	w := &rc.Windows[wi]
	f := &telemetry.Frame{Cycle: w.C1, Seq: w.Index + 1, Nodes: map[string]*telemetry.NodeFrame{}}
	node := func(name string) *telemetry.NodeFrame {
		nf := f.Nodes[name]
		if nf == nil {
			nf = &telemetry.NodeFrame{Counters: map[string]uint64{}}
			f.Nodes[name] = nf
		}
		return nf
	}
	for i, name := range rc.CtrNames {
		src, restName := splitSeries(name)
		nf := node(src)
		nf.Counters[restName] = w.CtrEnd[i]
		if restName != name {
			nf.Counters[name] = w.CtrEnd[i]
		}
	}
	for i, name := range rc.HistNames {
		src, restName := splitSeries(name)
		nf := node(src)
		if nf.Histograms == nil {
			nf.Histograms = map[string]telemetry.HistFrame{}
		}
		h := &w.Hist[i]
		var hf telemetry.HistFrame
		hf.Count, hf.Min, hf.Max = h.N, h.Min, h.Max
		hf.P50, hf.P95, hf.P99 = h.P50, h.P95, h.P99
		hf.Mean = h.Mean()
		hf.Delta = h.N
		nf.Histograms[restName] = hf
		if restName != name {
			nf.Histograms[name] = hf
		}
	}
	if slo != nil {
		f.Alerts = slo.ActiveAt(rc, wi)
	}
	return f
}

// splitSeries splits "node/rest" at the first '/'; a bare name maps to
// itself as both node and counter.
func splitSeries(s string) (string, string) {
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, s
}

// render draws one frame. prev supplies the per-node deltas (throughput
// since the last frame).
func render(f, prev *telemetry.Frame) {
	fmt.Printf("csbtop — cycle %d  (frame %d", f.Cycle, f.Seq)
	if f.Dropped > 0 {
		fmt.Printf(", %d dropped", f.Dropped)
	}
	fmt.Println(")")
	fmt.Println()

	names := make([]string, 0, len(f.Nodes))
	for n := range f.Nodes {
		names = append(names, n)
	}
	// Natural order: "n2" before "n10", so wide clusters render in
	// topology order rather than lexicographically.
	sort.Slice(names, func(i, j int) bool { return natLess(names[i], names[j]) })

	fmt.Printf("%-10s %12s %8s %12s %8s\n", "node", "pkts sent", "Δsent", "rx pending", "rx hw")
	for _, name := range names {
		if name == "cluster" {
			continue // aggregate registry, rendered below via its histograms
		}
		nf := f.Nodes[name]
		sent, okSent := pick(nf.Counters, "packets_sent")
		if !okSent {
			continue
		}
		var delta uint64
		if prev != nil {
			if p, ok := prev.Nodes[name]; ok {
				if ps, ok := pick(p.Counters, "packets_sent"); ok && sent >= ps {
					delta = sent - ps
				}
			}
		}
		pending, _ := pick(nf.Counters, "rx_pending")
		hw, _ := pick(nf.Counters, "rx_highwater")
		fmt.Printf("%-10s %12d %8d %12d %8d\n", name, sent, delta, pending, hw)
	}

	// Wire-latency quantiles from whichever node carries the ctrace
	// histograms (the "cluster" node in cluster runs).
	for _, name := range names {
		nf := f.Nodes[name]
		e2e, ok := nf.Histograms["ctrace/e2e"]
		if !ok {
			continue
		}
		fmt.Printf("\ne2e latency: p50=%d p99=%d max=%d cycles  (n=%d, Δ%d)\n",
			e2e.P50, e2e.P99, e2e.Max, e2e.Count, e2e.Delta)
		hopNames := make([]string, 0, len(nf.Histograms))
		for h := range nf.Histograms {
			if strings.HasPrefix(h, "ctrace/hop/") {
				hopNames = append(hopNames, h)
			}
		}
		sort.Strings(hopNames)
		if len(hopNames) > 0 {
			fmt.Print("hops (p50): ")
			for i, h := range hopNames {
				if i > 0 {
					fmt.Print("  ")
				}
				fmt.Printf("%s=%d", strings.TrimPrefix(h, "ctrace/hop/"), nf.Histograms[h].P50)
			}
			fmt.Println()
		}
		break
	}

	// Serving-workload panel: the cluster registry carries one latency
	// histogram and issued/completed counters per load-generator client.
	for _, name := range names {
		nf := f.Nodes[name]
		var clients []string
		for h := range nf.Histograms {
			if strings.HasPrefix(h, "loadgen/") && strings.HasSuffix(h, "/latency") {
				clients = append(clients, strings.TrimSuffix(strings.TrimPrefix(h, "loadgen/"), "/latency"))
			}
		}
		if len(clients) == 0 {
			continue
		}
		sort.Slice(clients, func(i, j int) bool { return natLess(clients[i], clients[j]) })
		fmt.Printf("\n%-10s %10s %10s %8s %8s %8s %6s %10s %10s\n",
			"client", "issued", "completed", "Δdone", "outst", "retries", "lost", "p50", "p99")
		for _, cl := range clients {
			h := nf.Histograms["loadgen/"+cl+"/latency"]
			pre := "loadgen/" + cl + "/"
			fmt.Printf("%-10s %10d %10d %8d %8d %8d %6d %10d %10d\n", cl,
				nf.Counters[pre+"issued"], nf.Counters[pre+"completed"], h.Delta,
				nf.Counters[pre+"outstanding"], nf.Counters[pre+"retries"],
				nf.Counters[pre+"lost"], h.P50, h.P99)
		}
		// Fabric-health line: only once wire faults or degradation have
		// actually bitten (the counters exist, at zero, in every run).
		drops := nf.Counters["cluster/fault_drops"]
		dups := nf.Counters["cluster/fault_dups"]
		outage := nf.Counters["cluster/outage_drops"]
		down := nf.Counters["cluster/nodes_down"]
		if drops+dups+outage+down > 0 {
			fmt.Printf("wire faults: drops=%d dups=%d outage_drops=%d delay_cycles=%d",
				drops, dups, outage, nf.Counters["cluster/fault_delay_cycles"])
			if down > 0 {
				fmt.Printf("  DEGRADED: %d node(s) down, %d drops at corpses",
					down, nf.Counters["cluster/degraded_drops"])
			}
			fmt.Println()
		}
		break
	}

	// SLO alert panel: rules the flight recorder holds in breach as of
	// this frame (live: mirrored into the frame; replay: recomputed).
	if len(f.Alerts) > 0 {
		fmt.Printf("\nALERTS (%d active):\n", len(f.Alerts))
		for _, a := range f.Alerts {
			fmt.Printf("  BREACHED  %-44s %s  since cycle %d (last %.6g)\n",
				a.Series, a.Rule, a.Since, a.Value)
		}
	}
	fmt.Println()
}

// natLess orders strings with embedded decimal runs numerically ("n2" <
// "n10"), falling back to byte order.
func natLess(a, b string) bool {
	for len(a) > 0 && len(b) > 0 {
		if isDigit(a[0]) && isDigit(b[0]) {
			an, arest := splitNum(a)
			bn, brest := splitNum(b)
			if an != bn {
				return an < bn
			}
			a, b = arest, brest
			continue
		}
		if a[0] != b[0] {
			return a[0] < b[0]
		}
		a, b = a[1:], b[1:]
	}
	return len(a) < len(b)
}

func isDigit(c byte) bool { return c >= '0' && c <= '9' }

func splitNum(s string) (uint64, string) {
	var v uint64
	i := 0
	for i < len(s) && isDigit(s[i]) {
		v = v*10 + uint64(s[i]-'0')
		i++
	}
	return v, s[i:]
}

// pick finds a counter by suffix match on the path's last segment chain:
// exact name, "cluster/<node>/<name>" and "dev0/<name>" all resolve.
func pick(counters map[string]uint64, name string) (uint64, bool) {
	if v, ok := counters[name]; ok {
		return v, true
	}
	var keys []string
	for k := range counters {
		if strings.HasSuffix(k, "/"+name) {
			keys = append(keys, k)
		}
	}
	if len(keys) == 0 {
		return 0, false
	}
	// Deterministic choice when several devices match: first sorted key.
	sort.Strings(keys)
	return counters[keys[0]], true
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "csbtop:", err)
	os.Exit(1)
}
