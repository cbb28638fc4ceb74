package cluster_test

import (
	"runtime"
	"strings"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
)

// scheduleWire is the schedule cases' wire latency, and so their window.
const scheduleWire = 120

// busyGuest never halts: it sends one word to the next node, waits for
// the NIC to transmit it, drains whatever arrived, and repeats.
const busyGuest = `
	.equ NICREG, 0x40000000
	.equ PKTBUF, 0x40001000
	set NICREG, %o0
	set PKTBUF, %o1
	set 8, %g4
	sll %g4, 48, %g4
	clr %l0
	set 0x5A, %g6
loop:	stx %g6, [%o1]
	membar
	stx %g4, [%o0]
	inc %l0
sent:	ldx [%o0+0x10], %g1
	srl %g1, 32, %g1
	cmp %g1, %l0
	bl sent
drain:	ldx [%o0+0x28], %g1
	tst %g1
	bz out
	ldx [%o0+0x20], %g2
	ba drain
out:	ba loop
`

// serveStar builds a serving star: a CSB server at the hub and three
// open-loop load-generator clients offering 1.95 requests per kcycle
// against its 2.00 ceiling.
func serveStar(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = cluster.TopoStar
	cfg.WireLatency = scheduleWire
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv := c.Node(0)
	loadgen.ServerMapIO(srv, bench.SendCSB)
	src, err := loadgen.ServerProgram(bench.SendCSB, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := srv.M.LoadSource("server.s", src); err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 4; i++ {
		if _, err := c.Node(i).M.LoadSource("client.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		g := loadgen.New(loadgen.Config{MeanGap: 1538, Seed: uint64(i), Words: 8, Servers: []int{0}})
		if err := g.Attach(c, i); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// busyRing builds two never-halting nodes trading packets on a ring.
func busyRing(t *testing.T) *cluster.Cluster {
	t.Helper()
	cfg := cluster.DefaultConfig()
	cfg.Topology = cluster.TopoRing
	cfg.WireLatency = scheduleWire
	c, err := cluster.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range c.Nodes() {
		n.M.MapNIC(false)
		if _, err := n.M.LoadSource("busy.s", busyGuest); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// windowSchedule runs c for the given number of windows, one RunFor call
// each, and returns the schedule of every window: 'i' inline, 'p' pooled.
func windowSchedule(t *testing.T, c *cluster.Cluster, windows int, parallel bool) string {
	t.Helper()
	var b strings.Builder
	for range windows {
		if err := c.RunFor(scheduleWire, parallel); err != nil {
			t.Fatal(err)
		}
		switch inline, pooled := c.WindowCounts(); {
		case inline == 1 && pooled == 0:
			b.WriteByte('i')
		case inline == 0 && pooled == 1:
			b.WriteByte('p')
		default:
			t.Fatalf("a one-window run counted %d inline and %d pooled windows", inline, pooled)
		}
	}
	return b.String()
}

// TestParallelScheduleFollowsCost pins the window schedule with exact
// counts. A serving star, whose server does nearly all the work, runs its
// windows inline once its clients' cold start has left their cost; a ring
// of two busy nodes runs every window after the first, which has no cost
// to go by, on the pool. The schedule is read from simulator work alone,
// so the decisions come out the same with parallel on or off and at any
// GOMAXPROCS, and a run of many windows decides as the same windows run
// one call at a time.
func TestParallelScheduleFollowsCost(t *testing.T) {
	for _, tc := range []struct {
		name string
		// The first windows run one call per window under each engine
		// and GOMAXPROCS, then in one call, followed by more windows in
		// a second call. Of all the windows after the first, between
		// minPooled and maxPooled permille must have pooled.
		build                func(*testing.T) *cluster.Cluster
		windows, more        int
		minPooled, maxPooled int
	}{
		{"serve-star", serveStar, 100, 2400, 0, 10},
		{"busy-ring", busyRing, 100, 100, 1000, 1000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var want string
			for _, procs := range []int{1, 2, 4} {
				for _, parallel := range []bool{false, true} {
					sched := func() string {
						defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
						return windowSchedule(t, tc.build(t), tc.windows, parallel)
					}()
					if want == "" {
						want = sched
					} else if sched != want {
						t.Errorf("procs %d, parallel %v: schedule differs\n got %s\nwant %s", procs, parallel, sched, want)
					}
				}
			}
			c := tc.build(t)
			if err := c.RunFor(uint64(tc.windows)*scheduleWire, true); err != nil {
				t.Fatal(err)
			}
			inline, pooled := c.WindowCounts()
			if wi, wp := strings.Count(want, "i"), strings.Count(want, "p"); inline != wi || pooled != wp {
				t.Errorf("one run: %d inline and %d pooled windows, one window per run: %d and %d", inline, pooled, wi, wp)
			}
			if err := c.RunFor(uint64(tc.more)*scheduleWire, true); err != nil {
				t.Fatal(err)
			}
			moreInline, morePooled := c.WindowCounts()
			inline, pooled = inline+moreInline, pooled+morePooled
			if want[0] != 'i' {
				t.Errorf("the first window pooled with no cost to go by")
			}
			after := inline + pooled - 1
			if 1000*pooled < tc.minPooled*after || 1000*pooled > tc.maxPooled*after {
				t.Errorf("%d of %d windows after the first pooled, want %d to %d permille", pooled, after, tc.minPooled, tc.maxPooled)
			}
			t.Logf("%d inline, %d pooled; the first %d windows: %s", inline, pooled, len(want), want)
		})
	}
}
