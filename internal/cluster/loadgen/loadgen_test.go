package loadgen

import (
	"encoding/json"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
)

// serveCluster builds a pair — node 0 the load-generator client, node 1 a
// server answering with the given method — and attaches a generator.
func serveCluster(t *testing.T, method bench.SendMethod, gcfg Config) (*cluster.Cluster, *Generator) {
	t.Helper()
	ccfg := cluster.DefaultConfig()
	ccfg.WireLatency = 80
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).M.LoadSource("client.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	src, err := ServerProgram(method, gcfg.Words)
	if err != nil {
		t.Fatal(err)
	}
	ServerMapIO(c.Node(1), method)
	if _, err := c.Node(1).M.LoadSource("server.s", src); err != nil {
		t.Fatal(err)
	}
	gcfg.Servers = []int{1}
	g := New(gcfg)
	if err := g.Attach(c, 0); err != nil {
		t.Fatal(err)
	}
	return c, g
}

// TestServeSmoke runs the open-loop serving workload for each reply
// method: requests must complete, and the latency histogram must account
// for exactly the completed requests with round trips covering at least
// two wire crossings.
func TestServeSmoke(t *testing.T) {
	for _, method := range []bench.SendMethod{bench.SendPIO, bench.SendCSB, bench.SendDMA} {
		t.Run(method.String(), func(t *testing.T) {
			words := 8
			c, g := serveCluster(t, method, Config{MeanGap: 1500, Seed: 7, Words: words})
			if err := c.RunFor(150_000, true); err != nil {
				t.Fatal(err)
			}
			st := g.Stats()
			if st.Issued < 50 {
				t.Fatalf("issued only %d requests: %+v", st.Issued, st)
			}
			if st.Completed < st.Issued/2 {
				t.Fatalf("completed %d of %d requests: %+v", st.Completed, st.Issued, st)
			}
			if st.Stray != 0 {
				t.Errorf("stray replies: %+v", st)
			}
			if got := g.Latency().Count(); got != st.Completed {
				t.Errorf("histogram count %d, completed %d", got, st.Completed)
			}
			if p50 := g.Latency().Quantile(0.5); p50 < 160 {
				t.Errorf("p50 latency %d cycles < two 80-cycle wire crossings", p50)
			}
			snap := c.Registry().Snapshot()
			key := "loadgen/" + c.Node(0).Name() + "/completed"
			if snap.Counters[key] != st.Completed {
				t.Errorf("registry counter disagrees: %d vs %d", snap.Counters[key], st.Completed)
			}
		})
	}
}

// TestServeDeterministic: two identical parallel serving runs produce
// identical stats and identical registry snapshots (loadgen hooks run on
// pool threads — this is the determinism guard for the traffic model).
func TestServeDeterministic(t *testing.T) {
	run := func() (Stats, []byte) {
		c, g := serveCluster(t, bench.SendPIO, Config{MeanGap: 900, Dist: DistBursty, Seed: 42, Words: 8})
		if err := c.RunFor(120_000, true); err != nil {
			t.Fatal(err)
		}
		snap, err := json.Marshal(c.Registry().Snapshot())
		if err != nil {
			t.Fatal(err)
		}
		return g.Stats(), snap
	}
	s1, r1 := run()
	s2, r2 := run()
	if s1 != s2 {
		t.Errorf("stats differ across identical runs: %+v vs %+v", s1, s2)
	}
	if string(r1) != string(r2) {
		t.Errorf("registry snapshots differ across identical runs")
	}
}

// TestServeStarMultiClient: two leaf clients against a hub server — the
// server steers each reply back via the header's client index, so both
// clients complete with no strays.
func TestServeStarMultiClient(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 3
	ccfg.Topology = cluster.TopoStar
	ccfg.WireLatency = 60
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ServerProgram(bench.SendPIO, 8)
	if err != nil {
		t.Fatal(err)
	}
	ServerMapIO(c.Node(0), bench.SendPIO)
	if _, err := c.Node(0).M.LoadSource("server.s", src); err != nil {
		t.Fatal(err)
	}
	gens := make([]*Generator, 2)
	for i := 1; i <= 2; i++ {
		if _, err := c.Node(i).M.LoadSource("client.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		g := New(Config{MeanGap: 2500, Seed: uint64(i), Words: 8, Servers: []int{0}})
		if err := g.Attach(c, i); err != nil {
			t.Fatal(err)
		}
		gens[i-1] = g
	}
	if err := c.RunFor(200_000, true); err != nil {
		t.Fatal(err)
	}
	for i, g := range gens {
		st := g.Stats()
		if st.Completed < 10 || st.Stray != 0 {
			t.Errorf("client %d: %+v", i+1, st)
		}
	}
}

// TestGapDeterminismAndMean: equal seeds draw identical gap sequences,
// and every distribution's empirical mean lands near the configured one.
func TestGapDeterminismAndMean(t *testing.T) {
	const mean, draws = 800, 20000
	for _, dist := range []Dist{DistUniform, DistBursty, DistHeavyTail} {
		t.Run(dist.String(), func(t *testing.T) {
			draw := func(seed uint64) []uint64 {
				g := New(Config{MeanGap: mean, Dist: dist, Seed: seed})
				out := make([]uint64, draws)
				for i := range out {
					out[i] = g.gap()
					g.reqID++ // as inject would
				}
				return out
			}
			a, b := draw(5), draw(5)
			var sum uint64
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("draw %d differs across equal seeds: %d vs %d", i, a[i], b[i])
				}
				sum += a[i]
			}
			got := float64(sum) / draws
			if got < 0.4*mean || got > 2.5*mean {
				t.Errorf("%s empirical mean gap %.0f, configured %d", dist, got, mean)
			}
			c := draw(6)
			same := true
			for i := range a {
				if a[i] != c[i] {
					same = false
					break
				}
			}
			if same {
				t.Error("different seeds drew identical sequences")
			}
		})
	}
}

// TestParseDist covers the CLI spellings.
func TestParseDist(t *testing.T) {
	for _, s := range []string{"uniform", "bursty", "heavytail", "pareto"} {
		if _, err := ParseDist(s); err != nil {
			t.Errorf("ParseDist(%q): %v", s, err)
		}
	}
	if _, err := ParseDist("gaussian"); err == nil {
		t.Error("ParseDist accepted an unknown spelling")
	}
}

// TestAttachValidation: bad client/server/shape configurations must be
// rejected before the cluster runs.
func TestAttachValidation(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 4
	ccfg.Topology = cluster.TopoRing
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		self int
		cfg  Config
	}{
		{"client out of range", 9, Config{Servers: []int{1}}},
		{"no servers", 0, Config{}},
		{"server is self", 0, Config{Servers: []int{0}}},
		{"server out of range", 0, Config{Servers: []int{7}}},
		{"no link to server", 0, Config{Servers: []int{2}}}, // ring: 0–2 not adjacent
		{"oversized words", 0, Config{Words: 9, Servers: []int{1}}},
	}
	for _, tc := range cases {
		if err := New(tc.cfg).Attach(c, tc.self); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	if err := New(Config{Servers: []int{1}}).Attach(c, 0); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

// TestServerProgramValidation: the CSB reply path requires the full
// 8-word line.
func TestServerProgramValidation(t *testing.T) {
	if _, err := ServerProgram(bench.SendCSB, 4); err == nil {
		t.Error("CSB server accepted a partial line")
	}
	if _, err := ServerProgram(bench.SendPIO, 0); err == nil {
		t.Error("zero-word server accepted")
	}
	if _, err := ServerProgram(bench.SendPIO, 4); err != nil {
		t.Errorf("4-word PIO server rejected: %v", err)
	}
}
