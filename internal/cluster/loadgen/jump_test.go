package loadgen

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/fault"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/rec"
)

var update = flag.Bool("update", false, "rewrite testdata/effort.golden")

// serveGap is the serving benchmark's mean inter-arrival gap: 1.95
// requests per 1000 cycles per client.
const serveGap = 1538

// starScenario is one serving run on a 4-node star (or the topology
// edit sets): node 0 a CSB server, the other nodes with a link to it
// load-generator clients.
type starScenario struct {
	name   string
	gen    Config
	edit   func(*cluster.Config)
	faults *fault.Config
	trace  bool
	cycles uint64
}

// build assembles the scenario's cluster; without wakes every client's
// hook runs every cycle.
func (sc starScenario) build(t *testing.T, wakes bool) (*cluster.Cluster, []*Generator) {
	t.Helper()
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 4
	ccfg.Topology = cluster.TopoStar
	if sc.edit != nil {
		sc.edit(&ccfg)
	}
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := c.Node(0)
	ServerMapIO(srv, bench.SendCSB)
	src, err := ServerProgram(bench.SendCSB, 8)
	if err != nil {
		t.Fatal(err)
	}
	p, err := srv.M.LoadSource("server.s", src)
	if err != nil {
		t.Fatal(err)
	}
	srv.M.WarmProgram(p)
	var gens []*Generator
	for i := 1; i < 4; i++ {
		if _, err := c.Node(i).M.LoadSource("client.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		if _, ok := c.Link(i, 0); !ok {
			continue // the far side of a ring: no route to the server
		}
		gcfg := sc.gen
		gcfg.Seed += uint64(i)
		gcfg.Words = 8
		gcfg.Servers = []int{0}
		g := New(gcfg)
		if err := g.Attach(c, i); err != nil {
			t.Fatal(err)
		}
		if !wakes {
			g.stepEveryCycle(c)
		}
		gens = append(gens, g)
	}
	if sc.faults != nil {
		if _, err := c.AttachWireFaults(*sc.faults); err != nil {
			t.Fatal(err)
		}
	}
	if sc.trace {
		if _, err := c.AttachTrace(); err != nil {
			t.Fatal(err)
		}
	}
	c.AttachCounters()
	return c, gens
}

// render prints everything the runs must agree on: each generator's
// Stats and both latency histograms, every node's Stats JSON with its
// registry snapshot (less sim/effort/steps, the one count a jump
// changes), the cluster registry (the wire tracer's histograms and run
// counters among it), the halt cycle and, when traced, the wire
// journeys and every node's journeys.
func render(t *testing.T, c *cluster.Cluster, gens []*Generator) string {
	t.Helper()
	var b strings.Builder
	for _, g := range gens {
		var lat, retry counters.HistState
		g.hist.ReadState(&lat)
		g.rhist.ReadState(&retry)
		fmt.Fprintf(&b, "gen %+v\nlatency %+v\nretry %+v\n", g.Stats(), lat, retry)
	}
	for _, n := range c.Nodes() {
		st := n.M.Stats()
		delete(st.Counters.Counters, "sim/effort/steps")
		fmt.Fprintf(&b, "%s %s\n", n.Name(), mustJSON(t, st))
	}
	fmt.Fprintf(&b, "cluster %s\nhalt %d cycle %d\n", mustJSON(t, c.Registry().Snapshot()), c.HaltCycle(), c.Cycle())
	if tr := c.Trace(); tr != nil {
		fmt.Fprintf(&b, "wire journeys %s\n", mustJSON(t, tr.Retained()))
		for _, n := range c.Nodes() {
			fmt.Fprintf(&b, "%s journeys %s\n", n.Name(), mustJSON(t, n.M.Journeys().Retained()))
		}
	}
	return b.String()
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	js, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return js
}

// TestServeJumpIdentity runs serving scenarios with the clients' hook
// wakes and with their hooks called every cycle, inline and on the
// parallel engine at GOMAXPROCS 1 and 2, and requires every run to
// render identically: uniform, bursty and heavy-tailed arrivals,
// deadlines with retries, dropped and duplicated packets, an RX staging
// delay and bandwidth-limited links. With wakes, the halted clients must
// step through few of their cycles.
func TestServeJumpIdentity(t *testing.T) {
	retry := Config{MeanGap: 900, Timeout: 2500, MaxRetries: 3, BackoffBase: 300}
	scenarios := []starScenario{
		{name: "uniform", gen: Config{MeanGap: serveGap, Seed: 1}, trace: true},
		{name: "bursty", gen: Config{MeanGap: serveGap, Dist: DistBursty, Seed: 2}},
		{name: "heavytail", gen: Config{MeanGap: serveGap, Dist: DistHeavyTail, Seed: 3}, trace: true},
		{name: "retries+faults", gen: retry, trace: true, faults: &fault.Config{
			Seed: 5, WireDrop: 16, WireDup: 8, WireDelay: 16, WireDelayMax: 200}},
		{name: "rxdelay", gen: Config{MeanGap: 700, Seed: 4, IssueUntil: 60_000},
			edit: func(c *cluster.Config) { c.RxEnqueueDelay = 37 }, trace: true},
		{name: "bandwidth", gen: Config{MeanGap: 600, Dist: DistBursty, Seed: 6, Timeout: 4000, MaxRetries: 1},
			edit: func(c *cluster.Config) { c.Bandwidth = 3; c.WireLatency = 45 }},
	}
	type mode struct {
		name     string
		procs    int
		parallel bool
	}
	modes := []mode{{"inline", 0, false}, {"parallel@1", 1, true}, {"parallel@2", 2, true}}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, sc := range scenarios {
		const cycles = 90_000
		var want string
		for _, wakes := range []bool{true, false} {
			for _, md := range modes {
				if md.procs != 0 {
					runtime.GOMAXPROCS(md.procs)
				}
				c, gens := sc.build(t, wakes)
				if err := c.RunFor(cycles, md.parallel); err != nil {
					t.Fatalf("%s %s: %v", sc.name, md.name, err)
				}
				got := render(t, c, gens)
				name := fmt.Sprintf("%s %s wakes=%v", sc.name, md.name, wakes)
				if want == "" {
					want = got
					var issued uint64
					for _, g := range gens {
						issued += g.Stats().Issued
					}
					if issued < 100 {
						t.Fatalf("%s: issued only %d requests", name, issued)
					}
					if sc.gen.Timeout > 0 && gens[0].Stats().Timeouts == 0 {
						t.Errorf("%s: no deadline ever expired", name)
					}
				} else if got != want {
					t.Fatalf("%s differs from %s inline with wakes:\n%s", name, sc.name, firstDiff(want, got))
				}
				if wakes {
					for _, n := range c.Nodes()[1:] {
						if s := n.M.Effort().Steps; 10*s > cycles {
							t.Errorf("%s: client %s took %d steps over %d cycles", name, n.Name(), s, cycles)
						}
					}
				}
			}
		}
	}
}

// firstDiff shows the first line where two renderings part.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := range min(len(al), len(bl)) {
		if al[i] != bl[i] {
			return fmt.Sprintf("line %d\nwant %.400s\n got %.400s", i+1, al[i], bl[i])
		}
	}
	return fmt.Sprintf("%d lines, want %d", len(bl), len(al))
}

// TestServeEffortGolden pins each node's effort in a 60k-cycle serving
// run at the benchmark's rate: the clients, halted and woken only by
// their hooks, must take at most 0.03 steps per cycle, and the server at
// most 0.25. Refresh with: go test ./internal/cluster/loadgen -run
// TestServeEffortGolden -update
func TestServeEffortGolden(t *testing.T) {
	c := serveEffortRun(t, false)
	var got strings.Builder
	for i, n := range c.Nodes() {
		e := n.M.Effort()
		got.WriteString(effortLine(n))
		limit := 0.03
		if i == 0 {
			limit = 0.25
		}
		if r := float64(e.Steps) / float64(n.M.Cycle()); r > limit {
			t.Errorf("%s: %.3f steps per cycle, want at most %.2f", n.Name(), r, limit)
		}
	}
	golden := filepath.Join("testdata", "effort.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("serving effort drifted from %s (refresh with -update)\ngot:\n%swant:\n%s", golden, got.String(), want)
	}
}

// serveEffortRun runs TestServeEffortGolden's 60k-cycle serving star,
// with the cross-node trace and a cluster flight recorder rolling every
// 1000 cycles when observed.
func serveEffortRun(t *testing.T, observed bool) *cluster.Cluster {
	t.Helper()
	c, _ := starScenario{gen: Config{MeanGap: serveGap, Seed: 1}, trace: observed}.build(t, true)
	if observed {
		r, err := rec.New(rec.Config{Every: 1000})
		if err != nil {
			t.Fatal(err)
		}
		if err := r.SetWriter(io.Discard); err != nil {
			t.Fatal(err)
		}
		if err := c.AttachRecorder(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.RunFor(60_000, false); err != nil {
		t.Fatal(err)
	}
	return c
}

// effortLine formats a node's line of the serving effort golden.
func effortLine(n *cluster.Node) string {
	e := n.M.Effort()
	return fmt.Sprintf("serve %s cycles=%d full_ticks=%d coasted_cycles=%d asleep_cycles=%d steps=%d\n",
		n.Name(), n.M.Cycle(), e.FullTicks, e.CoastedCycles, e.AsleepCycles, e.Steps)
}

// TestServeObservedEffort holds the cluster observers to their cost in
// simulator work, which unlike their wall time is exact: with per-node
// journeys, wire spans and a flight recorder attached, every node of
// the serving star must take exactly the unobserved run's full ticks,
// coasted and asleep cycles and steps. The recorder rolls at the
// barrier, so no window edge reaches a node's quiet stretch.
func TestServeObservedEffort(t *testing.T) {
	bare, observed := serveEffortRun(t, false), serveEffortRun(t, true)
	for i, n := range observed.Nodes() {
		if got, want := effortLine(n), effortLine(bare.Node(i)); got != want {
			t.Errorf("observed %s\nunobserved %s", got, want)
		}
	}
	if observed.Recorder().Windows() == 0 {
		t.Error("the recorder rolled no window")
	}
}
