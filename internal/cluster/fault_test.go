package cluster

import (
	"bytes"
	"encoding/json"
	"testing"

	"csbsim/internal/device"
	"csbsim/internal/fault"
	"csbsim/internal/sim"
)

// wireFaultMix is the fault recipe the determinism guard runs under:
// every wire class enabled, hot enough that a few-thousand-packet run
// exercises drops, duplicates, delays and outage windows.
func wireFaultMix() fault.Config {
	return fault.Config{
		Seed:          99,
		WireDrop:      48,
		WireDup:       32,
		WireDelay:     64,
		WireDelayMax:  250,
		LinkOutage:    12,
		LinkOutageMax: 700,
	}
}

// nicStoreWord writes one little-endian word through a node's NIC write
// path — the host-side injection primitive the fault tests' hooks use.
// Hooks run inside the node's window and may touch only the node.
func nicStoreWord(n *Node, pa, v uint64) {
	var b [8]byte
	for i := range b {
		b[i] = byte(v >> (8 * i))
	}
	n.NIC.WriteTarget(pa, b[:])
}

// hookSender installs a node hook that pushes one 8-word packet on the
// default route every `period` cycles until `until`, drains its own RX
// queue each cycle, and retires at `drainUntil`.
func hookSender(c *Cluster, i int, period, until, drainUntil uint64) {
	node := c.Node(i)
	next := period
	var sent uint64
	c.SetNodeHook(i, func(cycle uint64) bool {
		for {
			if _, ok := node.NIC.RxPop(); !ok {
				break
			}
		}
		if cycle >= next && cycle <= until {
			next = cycle + period
			slot := (sent % (device.PacketBufSize / 64)) * 64
			base := NICBase + device.PacketBufBase + slot
			nicStoreWord(node, base, uint64(i)<<32|sent)
			for w := uint64(1); w < 8; w++ {
				nicStoreWord(node, base+w*8, sent*w)
			}
			nicStoreWord(node, NICBase+device.RegTxFIFO, slot|64<<48)
			sent++
		}
		return cycle < drainUntil
	})
}

// faultSnapshot is everything the faulted determinism guard compares
// byte-wise, plus the injector's own accounting.
type faultSnapshot struct {
	cycle    uint64
	journeys []byte // every tracer's retained journeys, JSON
	stats    []byte // per-node machine stats, JSON
	reg      []byte // cluster registry snapshot, JSON
	fstats   fault.Stats
}

// runFaultedRing builds a 4-node traced ring whose traffic comes from
// host-side hooks (guests just halt — with packets being dropped, a
// guest waiting on exact receive counts would wedge), attaches the wire
// fault mix, runs it with the given engine and snapshots every
// observable output.
func runFaultedRing(t *testing.T, run func(*Cluster) error) faultSnapshot {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Nodes = 4
	cfg.Topology = TopoRing
	cfg.WireLatency = 90
	cfg.Bandwidth = 2
	cfg.LinkDepth = 6
	cfg.RxEnqueueDelay = 13
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, n := range c.Nodes() {
		n.MapIO(false)
		if _, err := n.M.LoadSource("idle.s", "halt\n"); err != nil {
			t.Fatal(err)
		}
		hookSender(c, i, uint64(97+13*i), 30_000, 45_000)
	}
	if _, err := c.AttachTrace(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachWireFaults(wireFaultMix()); err != nil {
		t.Fatal(err)
	}
	if err := run(c); err != nil {
		t.Fatal(err)
	}
	var snap faultSnapshot
	snap.cycle = c.Cycle()
	snap.fstats = c.WireFaults().Stats()
	checkTracers(t, c)
	if snap.journeys, err = journeysJSON(c); err != nil {
		t.Fatal(err)
	}
	var stats []sim.Stats
	for _, n := range c.Nodes() {
		stats = append(stats, n.M.Stats())
	}
	if snap.stats, err = json.Marshal(stats); err != nil {
		t.Fatal(err)
	}
	if snap.reg, err = json.Marshal(c.Registry().Snapshot()); err != nil {
		t.Fatal(err)
	}
	return snap
}

// TestParallelMatchesSequentialWithWireFaults is the PR's acceptance
// check: with every wire fault class firing, the parallel
// engine must still produce byte-identical journeys, machine stats
// and counter snapshots to the inline sequential reference — the fault
// draws happen at the routing barrier in the global routing order, so
// the schedule is a pure function of (seed, traffic), not the engine.
func TestParallelMatchesSequentialWithWireFaults(t *testing.T) {
	seq := runFaultedRing(t, func(c *Cluster) error { return c.RunFor(60_000, false) })
	par := runFaultedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })
	par2 := runFaultedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })

	if seq.cycle != par.cycle {
		t.Errorf("final cycle: sequential %d, parallel %d", seq.cycle, par.cycle)
	}
	if seq.fstats != par.fstats {
		t.Errorf("fault schedules differ: %+v vs %+v", seq.fstats, par.fstats)
	}
	check := func(what string, a, b []byte) {
		t.Helper()
		if !bytes.Equal(a, b) {
			t.Errorf("%s differ:\n%s\n---- vs ----\n%s", what, a, b)
		}
	}
	check("journeys (seq vs par)", seq.journeys, par.journeys)
	check("machine stats (seq vs par)", seq.stats, par.stats)
	check("registry snapshots (seq vs par)", seq.reg, par.reg)
	check("journeys (par vs par)", par.journeys, par2.journeys)
	check("machine stats (par vs par)", par.stats, par2.stats)
	check("registry snapshots (par vs par)", par.reg, par2.reg)

	// Every wire class must actually have fired, or the guard is vacuous.
	fs := seq.fstats
	if fs.WireDrops == 0 || fs.WireDups == 0 || fs.WireDelays == 0 || fs.OutageWindows == 0 {
		t.Errorf("fault mix left a class idle: %+v", fs)
	}
}

// TestWireFaultCounters cross-checks the cluster's fault accounting
// against the injector's own, the per-link drop breakdown against the
// aggregate, and the tracer's aborted wire journeys against the drops the
// fabric actually discarded.
func TestWireFaultCounters(t *testing.T) {
	snap := runFaultedRing(t, func(c *Cluster) error { return c.RunFor(60_000, true) })
	var reg struct {
		Counters map[string]uint64 `json:"counters"`
	}
	if err := json.Unmarshal(snap.reg, &reg); err != nil {
		t.Fatal(err)
	}
	fs := snap.fstats
	if got := reg.Counters["cluster/fault_drops"]; got != fs.WireDrops {
		t.Errorf("cluster/fault_drops = %d, injector saw %d", got, fs.WireDrops)
	}
	if got := reg.Counters["cluster/fault_dups"]; got != fs.WireDups {
		t.Errorf("cluster/fault_dups = %d, injector saw %d", got, fs.WireDups)
	}
	if got := reg.Counters["cluster/fault_delay_cycles"]; got != fs.WireDelayCycles {
		t.Errorf("cluster/fault_delay_cycles = %d, injector saw %d", got, fs.WireDelayCycles)
	}
	var linkSum uint64
	for k, v := range reg.Counters {
		if len(k) > len("cluster/link_drops/") && k[:len("cluster/link_drops/")] == "cluster/link_drops/" {
			linkSum += v
		}
	}
	if agg := reg.Counters["cluster/link_drops"]; linkSum != agg {
		t.Errorf("per-link drops sum to %d, aggregate says %d", linkSum, agg)
	}
	dropped := reg.Counters["journey/wire/aborted"]
	wantDropped := reg.Counters["cluster/fault_drops"] + reg.Counters["cluster/outage_drops"]
	if dropped != wantDropped {
		t.Errorf("tracer dropped=%d, fabric discarded %d", dropped, wantDropped)
	}
	if dropped == 0 {
		t.Error("no dropped wire journeys recorded under the fault mix")
	}
}

// TestAttachWireFaultsValidation: double attachment and a config with no
// wire class enabled must both be refused.
func TestAttachWireFaultsValidation(t *testing.T) {
	c := newCluster(t, 50)
	if _, err := c.AttachWireFaults(fault.Config{Seed: 1, BusNack: 64}); err == nil {
		t.Error("machine-only fault config accepted as wire faults")
	}
	if _, err := c.AttachWireFaults(wireFaultMix()); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AttachWireFaults(wireFaultMix()); err == nil {
		t.Error("second wire fault attachment accepted")
	}
	if c.WireFaults() == nil {
		t.Error("WireFaults lost the attached injector")
	}
}
