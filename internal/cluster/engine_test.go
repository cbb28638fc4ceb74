package cluster

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// withProcs sets GOMAXPROCS for the rest of the test.
func withProcs(t *testing.T, procs int) {
	old := runtime.GOMAXPROCS(procs)
	t.Cleanup(func() { runtime.GOMAXPROCS(old) })
}

// churnRing builds a traced ring of n nodes whose node i sends i%3+1
// packets clockwise and drains what its counter-clockwise neighbor sends,
// so nodes halt, freeze and go quiet at staggered times. Node 0 then
// counts down from tail before it halts, so a long tail leaves it alone
// with the cluster's work. A lone node's packets have no route and are
// counted as drops.
func churnRing(t *testing.T, n, tail int) *Cluster {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = n
	cfg.Topology = TopoRing
	cfg.WireLatency = 70
	cfg.Bandwidth = 2
	cfg.LinkDepth = 8
	cfg.RxEnqueueDelay = 13
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sends := func(i int) int { return i%3 + 1 }
	for i, node := range c.Nodes() {
		node.MapIO(false)
		recvs := 0
		if n > 1 {
			recvs = sends((i + n - 1) % n)
		}
		src := ringGuest(10*(i+1), sends(i), recvs)
		if i == 0 && tail > 0 {
			src = strings.Replace(src, "\thalt\n", fmt.Sprintf("\tset %d, %%l1\ntail:\tsubcc %%l1, 1, %%l1\n\tbnz tail\n\thalt\n", tail), 1)
		}
		if _, err := node.M.LoadSource("churn.s", src); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	return c
}

// engineOutput renders everything a run must reproduce byte for byte:
// the cycle, HaltCycle, every tracer's journeys, every node's Stats JSON
// and the cluster registry snapshot.
func engineOutput(t *testing.T, c *Cluster) string {
	t.Helper()
	s := snapshotOf(t, c)
	return fmt.Sprintf("cycle %d halt %d\njourneys %s\nstats %s\nregistry %s\n", s.cycle, c.HaltCycle(), s.journeys, s.stats, s.reg)
}

// TestParallelEngineIdentity runs rings of 1, 2, 3, 5 and 8 nodes under
// GOMAXPROCS 1 to 4, in parallel with the barrier's spin and with every
// wait parking at once, and requires each run to reproduce the inline
// run byte for byte, its window schedule included. In the last ring node
// 0 outlives the others, so its windows go back from the pool to inline
// and the identity is also checked across a change of schedule.
func TestParallelEngineIdentity(t *testing.T) {
	mixed := false
	for _, tc := range []struct {
		name        string
		nodes, tail int
	}{{"nodes1", 1, 0}, {"nodes2", 2, 0}, {"nodes3", 3, 0}, {"nodes5", 5, 0}, {"nodes8", 8, 0}, {"nodes8-tail", 8, 10000}} {
		nodes := tc.nodes
		run := func(parallel bool) (out string, inline, pooled int) {
			c := churnRing(t, nodes, tc.tail)
			if err := c.Run(2_000_000, parallel); err != nil {
				t.Fatalf("%d nodes: %v", nodes, err)
			}
			if c.HaltCycle() == 0 {
				t.Fatalf("%d nodes: HaltCycle 0 after a run to halt", nodes)
			}
			inline, pooled = c.WindowCounts()
			return fmt.Sprintf("%swindows inline %d pooled %d\n", engineOutput(t, c), inline, pooled), inline, pooled
		}
		want, inline, pooled := run(false)
		t.Logf("%s: %d windows inline, %d pooled", tc.name, inline, pooled)
		mixed = mixed || inline > 1 && pooled > 0
		for procs := 1; procs <= 4; procs++ {
			for _, park := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/procs%d/park=%v", tc.name, procs, park), func(t *testing.T) {
					withProcs(t, procs)
					if park {
						parkAlways(t)
					}
					if got, _, _ := run(true); got != want {
						t.Errorf("parallel run differs from the inline one\n%s\n---- inline ----\n%s", got, want)
					}
				})
			}
		}
	}
	if !mixed {
		t.Error("no ring ran both inline and pooled windows after its first")
	}
}

// settleGoroutines waits briefly for the goroutine count to fall back to
// base: a worker that returned may still be unwinding.
func settleGoroutines(base int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > base && time.Now().Before(deadline); n = runtime.NumGoroutine() {
		time.Sleep(time.Millisecond)
	}
	return n
}

// TestParallelWorkersExit checks that no pool worker outlives Run or
// RunFor on any exit path: halt, cycle limit, fixed horizon, node fault
// and watchdog abort. A node hook counts the goroutines during the run,
// so each case also proves the pool was running.
func TestParallelWorkersExit(t *testing.T) {
	withProcs(t, 4)
	bad := `
	set 0x70000000, %o1
	ldx [%o1], %g1
	halt
`
	for _, tc := range []struct {
		name    string
		build   func(t *testing.T) *Cluster
		run     func(c *Cluster) error
		wantErr string
	}{
		{"halt", func(t *testing.T) *Cluster { return churnRing(t, 3, 0) },
			func(c *Cluster) error { return c.Run(2_000_000, true) }, ""},
		{"cycle-limit", func(t *testing.T) *Cluster { return churnRing(t, 3, 0) },
			func(c *Cluster) error { return c.Run(500, true) }, "cycle limit"},
		{"horizon", func(t *testing.T) *Cluster { return churnRing(t, 3, 0) },
			func(c *Cluster) error { return c.RunFor(500, true) }, ""},
		{"node-fault", func(t *testing.T) *Cluster {
			c := churnRing(t, 3, 0)
			if _, err := c.Node(1).M.LoadSource("bad.s", bad); err != nil {
				t.Fatal(err)
			}
			return c
		}, func(c *Cluster) error { return c.Run(2_000_000, true) }, "node n1"},
		{"watchdog", func(t *testing.T) *Cluster {
			c := wedgedPair(t)
			if err := c.SetWatchdog(2000, false); err != nil {
				t.Fatal(err)
			}
			return c
		}, func(c *Cluster) error { return c.Run(1_000_000, true) }, "watchdog"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := tc.build(t)
			base := runtime.NumGoroutine()
			peak := 0
			c.SetNodeHook(c.NumNodes()-1, func(uint64) bool {
				peak = max(peak, runtime.NumGoroutine())
				return false
			})
			err := tc.run(c)
			switch {
			case tc.wantErr == "" && err != nil:
				t.Fatal(err)
			case tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)):
				t.Fatalf("got error %v, want one containing %q", err, tc.wantErr)
			}
			if peak <= base {
				t.Errorf("saw %d goroutines during the run, %d before it: no pool worker ran", peak, base)
			}
			if n := settleGoroutines(base); n > base {
				t.Errorf("%d goroutines after the run, %d before it", n, base)
			}
		})
	}
}
