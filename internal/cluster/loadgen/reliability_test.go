package loadgen

import (
	"encoding/json"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/fault"
)

// TestRetryRecoversFromWireDrops is the goodput-under-faults acceptance
// shape: with every wire fault class firing at the calibrated campaign
// rates and retries enabled, no request may be lost and goodput must
// stay within 10% of completions.
func TestRetryRecoversFromWireDrops(t *testing.T) {
	c, g := serveCluster(t, bench.SendPIO, Config{
		MeanGap:     1200,
		Seed:        11,
		Words:       8,
		IssueUntil:  250_000,
		Timeout:     3000,
		MaxRetries:  4,
		BackoffBase: 400,
	})
	if _, err := c.AttachWireFaults(fault.Config{
		Seed: 5, WireDrop: 16, WireDup: 8,
		WireDelay: 16, WireDelayMax: 200,
		LinkOutage: 2, LinkOutageMax: 800,
	}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(400_000, true); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Issued < 150 {
		t.Fatalf("issued only %d requests: %+v", st.Issued, st)
	}
	if st.Lost != 0 {
		t.Errorf("lost %d requests despite retry budget: %+v", st.Lost, st)
	}
	if st.Completed != st.Issued {
		t.Errorf("outstanding requests after the drain tail: %+v", st)
	}
	if st.Timeouts == 0 || st.Retries == 0 {
		t.Errorf("fault mix never exercised the retry path: %+v", st)
	}
	if st.Goodput > st.Completed || st.Goodput < st.Completed*9/10 {
		t.Errorf("goodput %d of %d completions outside the envelope: %+v",
			st.Goodput, st.Completed, st)
	}
	if got := g.Latency().Count(); got != st.Completed {
		t.Errorf("histogram count %d, completed %d", got, st.Completed)
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["loadgen/n0/outstanding"]; got != 0 {
		t.Errorf("outstanding gauge = %d after drain", got)
	}
	if got := snap.Counters["loadgen/n0/retries"]; got != st.Retries {
		t.Errorf("registry retries = %d, stats say %d", got, st.Retries)
	}
	// Retried completions land in the dedicated retry-latency histogram.
	rh := snap.Histograms["loadgen/n0/retry_latency"]
	if rh.Count == 0 {
		t.Error("retry latency histogram empty despite retries completing")
	}
	if fs := c.WireFaults().Stats(); fs.WireDrops == 0 {
		t.Errorf("injector dropped nothing: %+v", fs)
	}
}

// TestTimeoutWithoutRetriesExactAccounting: with retries disabled the
// first timeout is terminal, and the books must balance exactly:
// issued == completed + lost, timeouts == lost, outstanding == 0.
func TestTimeoutWithoutRetriesExactAccounting(t *testing.T) {
	c, g := serveCluster(t, bench.SendPIO, Config{
		MeanGap:    1200,
		Seed:       23,
		Words:      8,
		IssueUntil: 150_000,
		Timeout:    2500,
	})
	if _, err := c.AttachWireFaults(fault.Config{Seed: 7, WireDrop: 48}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(250_000, true); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Lost == 0 {
		t.Fatalf("4.7%%/packet drop rate lost nothing over %d requests: %+v", st.Issued, st)
	}
	if st.Timeouts != st.Lost {
		t.Errorf("timeouts %d != lost %d with no retry budget: %+v", st.Timeouts, st.Lost, st)
	}
	if st.Issued != st.Completed+st.Lost {
		t.Errorf("accounting broken: issued %d != completed %d + lost %d",
			st.Issued, st.Completed, st.Lost)
	}
	if st.Retries != 0 {
		t.Errorf("retries fired with MaxRetries 0: %+v", st)
	}
	if st.Goodput != st.Completed {
		t.Errorf("undelayed completions should all be goodput: %+v", st)
	}
	if got := g.Latency().Count(); got != st.Completed {
		t.Errorf("histogram count %d, completed %d", got, st.Completed)
	}
	if got := c.Registry().Snapshot().Counters["loadgen/n0/outstanding"]; got != 0 {
		t.Errorf("outstanding gauge = %d after drain", got)
	}
}

// TestDuplicateRepliesSuppressed: with the wire duplicating a quarter of
// all packets, every surplus reply must be absorbed by the generation
// check — each request completes exactly once and no duplicate corrupts
// the latency histogram.
func TestDuplicateRepliesSuppressed(t *testing.T) {
	c, g := serveCluster(t, bench.SendPIO, Config{
		MeanGap:    1500,
		Seed:       9,
		Words:      8,
		IssueUntil: 120_000,
	})
	if _, err := c.AttachWireFaults(fault.Config{Seed: 3, WireDup: 256}); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(250_000, true); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.DuplicateReplies == 0 {
		t.Fatalf("25%% duplication produced no duplicate replies: %+v", st)
	}
	if st.Completed != st.Issued || st.Lost != 0 || st.Stray != 0 {
		t.Errorf("duplicates broke completion accounting: %+v", st)
	}
	if got := g.Latency().Count(); got != st.Completed {
		t.Errorf("histogram count %d, completed %d — a duplicate double-completed", got, st.Completed)
	}
}

// TestLateReplySlotReuse: a reply that arrives after its tracking slot
// was recycled for a newer request must not complete the new occupant or
// corrupt its latency sample. The pending ring is shrunk to 4 slots and
// the wire stretched to 2000 cycles so every early request is overwritten
// before its reply lands.
func TestLateReplySlotReuse(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.WireLatency = 2000
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Node(0).M.LoadSource("client.s", "halt\n"); err != nil {
		t.Fatal(err)
	}
	src, err := ServerProgram(bench.SendPIO, 8)
	if err != nil {
		t.Fatal(err)
	}
	ServerMapIO(c.Node(1), bench.SendPIO)
	if _, err := c.Node(1).M.LoadSource("server.s", src); err != nil {
		t.Fatal(err)
	}
	g := New(Config{MeanGap: 300, Seed: 4, Words: 8, Servers: []int{1}, IssueUntil: 3000})
	g.pendCap = 4
	if err := g.Attach(c, 0); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(60_000, true); err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.Issued < 8 {
		t.Fatalf("issued only %d requests: %+v", st.Issued, st)
	}
	if st.Lost == 0 {
		t.Fatalf("no slot was recycled — the test exercises nothing: %+v", st)
	}
	if st.Completed+st.Lost != st.Issued {
		t.Errorf("accounting broken: %+v", st)
	}
	// Every overwritten request's reply eventually arrives and must be
	// rejected as stray (its ID no longer matches the slot).
	if st.Stray != st.Lost {
		t.Errorf("stray %d != lost %d — a late reply was mis-delivered: %+v",
			st.Stray, st.Lost, st)
	}
	if got := g.Latency().Count(); got != st.Completed {
		t.Errorf("histogram count %d, completed %d", got, st.Completed)
	}
	// A corrupted sample would credit a late reply to a fresh request,
	// recording an impossibly short round trip (< one wire crossing pair).
	if min := g.Latency().Summary().Min; min < 2*ccfg.WireLatency {
		t.Errorf("latency sample %d below the 2×%d wire floor — late reply corrupted a sample",
			min, ccfg.WireLatency)
	}
}

// TestReliabilityDeterministic: identical faulted retry runs on the
// parallel engine produce identical stats and registry snapshots — the
// determinism guard extended over timeouts, backoff jitter and retries.
func TestReliabilityDeterministic(t *testing.T) {
	run := func() (Stats, []byte) {
		c, g := serveCluster(t, bench.SendPIO, Config{
			MeanGap:    1500,
			Seed:       31,
			Words:      8,
			IssueUntil: 100_000,
			Timeout:    2500,
			MaxRetries: 3,
		})
		if _, err := c.AttachWireFaults(fault.Config{
			Seed: 13, WireDrop: 32, WireDup: 16,
			WireDelay: 32, WireDelayMax: 150,
			LinkOutage: 4, LinkOutageMax: 500,
		}); err != nil {
			t.Fatal(err)
		}
		if err := c.RunFor(200_000, true); err != nil {
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

// TestReliabilityValidation: retry knobs are validated at Attach.
func TestReliabilityValidation(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := New(Config{Servers: []int{1}, MaxRetries: 3}).Attach(c, 0); err == nil {
		t.Error("MaxRetries without Timeout accepted")
	}
	if err := New(Config{Servers: []int{1}, Timeout: 100, MaxRetries: 500}).Attach(c, 0); err == nil {
		t.Error("absurd MaxRetries accepted")
	}
	if err := New(Config{Servers: []int{1}, Timeout: 100, MaxRetries: 3}).Attach(c, 0); err != nil {
		t.Errorf("valid retry config rejected: %v", err)
	}
}

// TestWatchdogDegradeFailover: a wedged server is marked down by the
// degrading cluster watchdog; clients with retry budget fail over to the
// healthy server and finish with zero lost requests, while traffic at
// the corpse is counted as degraded drops.
func TestWatchdogDegradeFailover(t *testing.T) {
	ccfg := cluster.DefaultConfig()
	ccfg.Nodes = 4
	ccfg.WireLatency = 80
	c, err := cluster.New(ccfg)
	if err != nil {
		t.Fatal(err)
	}
	src, err := ServerProgram(bench.SendPIO, 8)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		ServerMapIO(c.Node(i), bench.SendPIO)
		if _, err := c.Node(i).M.LoadSource("server.s", src); err != nil {
			t.Fatal(err)
		}
	}
	// Server n1 never completes a fetch: wedged from cycle 0.
	if _, err := c.Node(1).M.AttachFaults(fault.Config{Seed: 2, BusNack: 1024}); err != nil {
		t.Fatal(err)
	}
	gens := make([]*Generator, 2)
	for i := 2; i < 4; i++ {
		if _, err := c.Node(i).M.LoadSource("client.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		g := New(Config{
			MeanGap:     2500,
			Seed:        uint64(i),
			Words:       8,
			Servers:     []int{0, 1},
			IssueUntil:  200_000,
			Timeout:     6000,
			MaxRetries:  5,
			BackoffBase: 500,
		})
		if err := g.Attach(c, i); err != nil {
			t.Fatal(err)
		}
		gens[i-2] = g
	}
	if err := c.SetWatchdog(8000, true); err != nil {
		t.Fatal(err)
	}
	if err := c.RunFor(320_000, true); err != nil {
		t.Fatal(err)
	}
	if down := c.DownNodes(); len(down) != 1 || down[0] != "n1" {
		t.Fatalf("DownNodes = %v, want [n1]", down)
	}
	for i, g := range gens {
		st := g.Stats()
		if st.Lost != 0 || st.Completed != st.Issued {
			t.Errorf("client %d did not recover every request: %+v", i+2, st)
		}
		if st.Retries == 0 || st.Timeouts == 0 {
			t.Errorf("client %d never failed over: %+v", i+2, st)
		}
	}
	snap := c.Registry().Snapshot()
	if got := snap.Counters["cluster/nodes_down"]; got != 1 {
		t.Errorf("cluster/nodes_down = %d, want 1", got)
	}
	if got := snap.Counters["cluster/degraded_drops"]; got == 0 {
		t.Error("no degraded drops despite traffic at the down server")
	}
}

// TestAttachRejectsOutOfRange: a MeanGap whose gap draws would overflow
// an int (csbcluster -rate 1e-20 converts to 2^63 and panicked in the
// uniform draw's Intn) and a BackoffBase past the backoff cap are
// refused by Attach; the largest accepted MeanGap draws in range under
// every distribution.
func TestAttachRejectsOutOfRange(t *testing.T) {
	pair := func() *cluster.Cluster {
		c, err := cluster.New(cluster.DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, cfg := range []Config{
		{MeanGap: 1 << 63},
		{MeanGap: maxMeanGap + 1, Dist: DistBursty},
		{MeanGap: ^uint64(0), Dist: DistHeavyTail},
		{Timeout: 100, MaxRetries: 2, BackoffBase: 4611686018427387905},
		{Timeout: 100, BackoffBase: maxBackoff + 1},
	} {
		cfg.Servers = []int{1}
		if err := New(cfg).Attach(pair(), 0); err == nil {
			t.Errorf("Attach accepted %+v", cfg)
		}
	}
	for _, d := range []Dist{DistUniform, DistBursty, DistHeavyTail} {
		g := New(Config{MeanGap: maxMeanGap, Dist: d, Servers: []int{1}})
		if err := g.Attach(pair(), 0); err != nil {
			t.Fatal(err)
		}
		for range 1000 {
			if v := g.gap(); v < 1 || v > 100*maxMeanGap {
				t.Fatalf("%v: gap %d out of range", d, v)
			}
			g.reqID++
		}
	}
}

// TestBackoffSaturates: BackoffBase<<attempt saturates at maxBackoff
// instead of wrapping; a base of 2^62+1 used to give attempt 2 a
// 4-cycle backoff.
func TestBackoffSaturates(t *testing.T) {
	for _, base := range []uint64{1, 300, maxBackoff, 4611686018427387905} {
		g := New(Config{Timeout: 100, BackoffBase: base})
		for attempt := range 201 {
			want := uint64(maxBackoff)
			if attempt < 23 && base <= maxBackoff>>attempt {
				want = base << attempt
			}
			if b := g.backoff(uint8(attempt)); b < want || b > want+want/2 {
				t.Fatalf("base %d attempt %d: backoff %d, want %d plus at most half", base, attempt, b, want)
			}
		}
	}
}
