package cluster_test

import (
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"strings"
	"testing"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/obs/counters"
	"csbsim/internal/obs/journey"
	"csbsim/internal/obs/rec"
)

// testdata/lockstep.golden was written by the cycle-by-cycle lockstep
// engine this package used to carry beside the windowed one. That engine
// advanced every node one cycle at a time and stopped in the first cycle
// after which every node had halted, so its exit cycle, per-node halt
// cycles, guest results and merged trace dumps are the reference the
// windowed engine must reproduce at every link latency, zero included.
// The file cannot be regenerated: it pins results the engine can no
// longer be asked for.

// lockstepCase is one workload of the lockstep golden. build sets it up
// on c reset to the workload's config, or on a new cluster when c is nil.
type lockstepCase struct {
	name  string
	build func(t *testing.T, c *cluster.Cluster) *cluster.Cluster
}

// lockstepCases lists the golden's workloads: the determinism guard's
// 4-node ring at four wire latencies, and figure X8's ping-pong pair for
// each send method at two.
func lockstepCases() []lockstepCase {
	var cs []lockstepCase
	for _, wire := range []uint64{0, 1, 7, 90} {
		cs = append(cs, lockstepCase{fmt.Sprintf("ring wire=%d", wire),
			func(t *testing.T, c *cluster.Cluster) *cluster.Cluster { return cluster.GuardRing(t, c, wire) }})
	}
	for _, m := range []bench.SendMethod{bench.SendPIO, bench.SendCSB, bench.SendDMA} {
		for _, wire := range []uint64{0, 60} {
			cs = append(cs, lockstepCase{fmt.Sprintf("x8 %s wire=%d", m, wire),
				func(t *testing.T, c *cluster.Cluster) *cluster.Cluster { return buildGoldenPingPong(t, c, m, wire) }})
		}
	}
	return cs
}

// buildGoldenPingPong is bench.MeasurePingPong's cluster (30 rounds) with
// the wire tracer attached.
func buildGoldenPingPong(t *testing.T, c *cluster.Cluster, method bench.SendMethod, wire uint64) *cluster.Cluster {
	t.Helper()
	c = buildPingPong(t, c, method, wire)
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	return c
}

// attachGoldenRecorder gives a case's cluster a flight recorder and
// returns the buffer its recording lands in.
func attachGoldenRecorder(t *testing.T, c *cluster.Cluster) *bytes.Buffer {
	t.Helper()
	r, err := rec.New(rec.Config{Every: 100_000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.SetWriter(&buf); err != nil {
		t.Fatal(err)
	}
	if err := c.AttachRecorder(r); err != nil {
		t.Fatal(err)
	}
	return &buf
}

// lockstepDump is the layout of the merged trace dump the lockstep
// engine's runs were written with.
type lockstepDump struct {
	ClockOffsets map[string]int64            `json:"clock_offsets"`
	Started      uint64                      `json:"started"`
	Completed    uint64                      `json:"completed"`
	Dropped      uint64                      `json:"dropped"`
	StaleDrops   uint64                      `json:"stale_drops"`
	Histograms   map[string]counters.Summary `json:"histograms"`
	Spans        []lockstepSpan              `json:"spans"`
}

// lockstepSpan is one packet's crossing in the dump's layout.
type lockstepSpan struct {
	TraceID    uint64 `json:"trace_id"`
	From       string `json:"from"`
	To         string `json:"to"`
	JID        uint64 `json:"jid,omitempty"`
	Size       uint32 `json:"size"`
	Done       bool   `json:"done"`
	FIFOPush   uint64 `json:"fifo_push"`
	TxStart    uint64 `json:"tx_start"`
	WireDepart uint64 `json:"wire_depart"`
	WireArrive uint64 `json:"wire_arrive"`
	RxEnqueue  uint64 `json:"rx_enqueue"`
	RxDrain    uint64 `json:"rx_drain"`
	E2E        uint64 `json:"e2e"`
}

// lockstepNames maps the dump's series names to the recording's.
var lockstepNames = map[string]string{
	"started":               "cluster/journey/wire/started",
	"completed":             "cluster/journey/wire/completed",
	"dropped":               "cluster/journey/wire/aborted",
	"stale_drops":           "cluster/journey/stale_drops",
	"ctrace/e2e":            "cluster/journey/e2e/wire",
	"ctrace/hop/fifo_wait":  "cluster/journey/wire/tx_start",
	"ctrace/hop/tx":         "cluster/journey/wire/wire_depart",
	"ctrace/hop/wire":       "cluster/journey/wire/wire_arrive",
	"ctrace/hop/rx_enqueue": "cluster/journey/wire/rx_enqueue",
	"ctrace/hop/drain":      "cluster/journey/wire/rx_drain",
}

// renderLockstepCase prints one run in the golden's format: the exit
// cycle, then per node its halt cycle, retired count and result word
// (ringGuest's received sum at 0x20000), then the merged trace dump,
// rendered from the run's recording: a span per wire journey of its
// "j" frames in ID order, the histograms from the footer's whole-run
// rows and the run counters from the last window's ends, renamed by
// lockstepNames. Every node's clock offset is 0, as AttachTrace aligns
// them.
func renderLockstepCase(t *testing.T, name string, c *cluster.Cluster, exit uint64, halts []uint64, recording []byte) []byte {
	t.Helper()
	var b bytes.Buffer
	fmt.Fprintf(&b, "=== %s\nexit %d\n", name, exit)
	for i, n := range c.Nodes() {
		fmt.Fprintf(&b, "%s halt=%d retired=%d result=%#x\n",
			n.Name(), halts[i], n.M.CPU.Retired(), n.M.RAM.ReadUint(0x20000, 8))
	}
	rc, err := rec.Read(recording)
	if err != nil {
		t.Fatal(err)
	}
	if !rc.Clean || rc.Truncated || len(rc.Windows) == 0 {
		t.Fatalf("%s: recording clean=%v truncated=%v with %d windows", name, rc.Clean, rc.Truncated, len(rc.Windows))
	}
	last := &rc.Windows[len(rc.Windows)-1]
	end := func(ctr string) uint64 { return last.CtrEnd[rc.CounterIndex(lockstepNames[ctr])] }
	d := lockstepDump{
		ClockOffsets: map[string]int64{},
		Started:      end("started"),
		Completed:    end("completed"),
		Dropped:      end("dropped"),
		StaleDrops:   end("stale_drops"),
		Histograms:   map[string]counters.Summary{},
		Spans:        []lockstepSpan{},
	}
	for _, n := range c.Nodes() {
		d.ClockOffsets[n.Name()] = 0
	}
	for old, hname := range lockstepNames {
		if i := rc.HistIndex(hname); i >= 0 {
			h := rc.Total[i]
			d.Histograms[old] = counters.Summary{Count: h.N, Min: h.Min, Max: h.Max, Mean: h.Mean(),
				P50: h.P50, P95: h.P95, P99: h.P99}
		}
	}
	for _, j := range rc.Journeys {
		if j.Kind == journey.KindWire {
			d.Spans = append(d.Spans, lockstepSpan{TraceID: j.ID, From: j.Node, To: j.To, JID: j.Link,
				Size: j.Size, Done: j.Done, FIFOPush: j.T[0], TxStart: j.T[1], WireDepart: j.T[2],
				WireArrive: j.T[3], RxEnqueue: j.T[4], RxDrain: j.T[5], E2E: j.E2E()})
		}
	}
	slices.SortFunc(d.Spans, func(a, b lockstepSpan) int { return cmp.Compare(a.TraceID, b.TraceID) })
	data, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	b.Write(append(data, '\n'))
	return b.Bytes()
}

// TestParallelMatchesLockstepGolden: the windowed engine, parallel and
// inline, reproduces the lockstep engine's results. HaltCycle stands in
// for lockstep's exit cycle and each node's halt cycle for the one
// lockstep observed; everything else must match byte for byte. The
// "reset" pass runs every case inline on one cluster that Reset carries
// from case to case, twice over, so it both drops and adds nodes.
func TestParallelMatchesLockstepGolden(t *testing.T) {
	want, err := os.ReadFile("testdata/lockstep.golden")
	if err != nil {
		t.Fatal(err)
	}
	for _, pass := range []struct {
		name            string
		parallel, reset bool
		rounds          int
	}{{"inline", false, false, 1}, {"parallel", true, false, 1}, {"reset", false, true, 2}} {
		var reused *cluster.Cluster
		for range pass.rounds {
			var got bytes.Buffer
			for _, lc := range lockstepCases() {
				c := lc.build(t, reused)
				if pass.reset {
					reused = c
				}
				recording := attachGoldenRecorder(t, c)
				if err := c.Run(100_000_000, pass.parallel); err != nil {
					t.Fatalf("%s: %s: %v", pass.name, lc.name, err)
				}
				halts := make([]uint64, c.NumNodes())
				for i, n := range c.Nodes() {
					halts[i] = n.HaltCycle()
				}
				got.Write(renderLockstepCase(t, lc.name, c, c.HaltCycle(), halts, recording.Bytes()))
			}
			if !bytes.Equal(got.Bytes(), want) {
				gl, wl := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
				for i := range min(len(gl), len(wl)) {
					if gl[i] != wl[i] {
						t.Fatalf("%s: line %d differs:\n got %q\nwant %q", pass.name, i+1, gl[i], wl[i])
					}
				}
				t.Fatalf("%s: %d lines, want %d", pass.name, len(gl), len(wl))
			}
		}
	}
}
