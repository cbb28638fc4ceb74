package loadgen_test

import (
	"fmt"
	"strings"
	"testing"

	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/fault"
	"csbsim/internal/obs/journey"
)

// The wire fault campaign's serving run: a 4-node fabric slow enough for
// wire faults to bite and bounded enough that outages exert
// backpressure, offered load well under half the CSB server's capacity,
// and a timeout, retry budget and backoff that outlast the longest
// outage the specs draw. Issue stops campaignDrain cycles before the
// horizon, so retries have time to land.
const (
	campaignHorizon = 300_000
	campaignDrain   = 80_000
)

// campaignRun builds and runs one serving scenario: wire faults at fcfg
// (nil: none), the retry budget on or off, on the parallel engine or
// the sequential one.
func campaignRun(t *testing.T, topo cluster.Topology, seed uint64, fcfg *fault.Config, retries, parallel bool) (*cluster.Cluster, loadgen.Stats) {
	t.Helper()
	gen := loadgen.Config{MeanGap: 3000, Seed: seed, IssueUntil: campaignHorizon - campaignDrain, Timeout: 6000}
	if retries {
		gen.MaxRetries, gen.BackoffBase = 4, 750
	}
	fabric := func(c *cluster.Config) {
		c.Topology, c.WireLatency, c.Bandwidth, c.LinkDepth = topo, 90, 2, 8
	}
	c, gens := loadgen.BuildServe(t, gen, fabric, fcfg)
	if err := c.RunFor(campaignHorizon, parallel); err != nil {
		t.Fatalf("run: %v\n%s", err, c.DiagnosticDump())
	}
	var sum loadgen.Stats
	for _, g := range gens {
		st := g.Stats()
		sum.Issued += st.Issued
		sum.Completed += st.Completed
		sum.Lost += st.Lost
		sum.Retries += st.Retries
		sum.Goodput += st.Goodput
	}
	return c, sum
}

// TestWireFaultCampaign checks that the cluster's request path recovers
// from wire faults, on every topology (ring, star and mesh) and at two
// specs: the default wire mix, and drop, duplication and delay turned
// up. For each seed it runs the serving workload fault-free, then
// faulted, and requires:
//
//   - the parallel engine and the sequential one agree byte for byte:
//     the fault schedule is a function of seed and traffic, never of
//     the scheduler;
//   - with retries, the spec injected faults, no request is lost, every
//     issued request completes, and goodput is at least 90% of the
//     fault-free run's;
//   - without retries, none fires, and issued = completed + lost + the
//     outstanding gauges;
//   - in every run, every node's journeys and the wire journeys hold
//     their invariants (checkJourneys).
func TestWireFaultCampaign(t *testing.T) {
	specs := []string{"wire", "wiredrop=16,wiredup=8,wiredelay=32,wiredelaymax=400"}
	seeds := uint64(3)
	if testing.Short() {
		seeds = 1
	}
	for _, topo := range []cluster.Topology{cluster.TopoRing, cluster.TopoStar, cluster.TopoFullMesh} {
		for seed := uint64(1); seed <= seeds; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", topo, seed), func(t *testing.T) {
				base, bst := campaignRun(t, topo, seed, nil, true, true)
				if bst.Lost != 0 || bst.Completed != bst.Issued {
					t.Fatalf("fault-free run unhealthy: %+v\n%s", bst, base.DiagnosticDump())
				}
				checkJourneys(t, "fault-free", base)
				for _, spec := range specs {
					fcfg, err := fault.ParseSpec(spec)
					if err != nil {
						t.Fatal(err)
					}
					fcfg.Seed = seed
					campaignScenario(t, topo, seed, spec, fcfg, bst.Goodput)
				}
			})
		}
	}
}

// campaignScenario checks one (topology, seed, spec) point against the
// fault-free run's goodput.
func campaignScenario(t *testing.T, topo cluster.Topology, seed uint64, spec string, fcfg fault.Config, baseGoodput uint64) {
	t.Helper()
	fail := func(c *cluster.Cluster, format string, args ...any) {
		t.Helper()
		t.Errorf("%s: "+format, append([]any{spec}, args...)...)
		t.Log(c.DiagnosticDump())
	}

	seq, _ := campaignRun(t, topo, seed, &fcfg, true, false)
	c, st := campaignRun(t, topo, seed, &fcfg, true, true)
	checkJourneys(t, spec+", sequential", seq)
	checkJourneys(t, spec, c)
	if a, b := fingerprint(t, seq), fingerprint(t, c); a != b {
		fail(c, "the parallel engine diverged from the sequential one:\n%s\nvs\n%s", b, a)
	}
	if n := c.WireFaults().Stats().WireTotal(); n == 0 {
		fail(c, "no wire fault injected")
	}
	if st.Lost != 0 || st.Completed != st.Issued {
		fail(c, "issued %d, completed %d, lost %d with a retry budget", st.Issued, st.Completed, st.Lost)
	}
	if st.Goodput*10 < baseGoodput*9 {
		fail(c, "goodput %d, want at least 90%% of the fault-free %d", st.Goodput, baseGoodput)
	}

	nr, nst := campaignRun(t, topo, seed, &fcfg, false, true)
	checkJourneys(t, spec+", no retries", nr)
	if _, _, aborted := c.Trace().Counts(journey.KindWire); aborted == 0 {
		fail(c, "no wire journey aborted: the dropped-packet invariants went unchecked")
	}
	if nst.Retries != 0 {
		fail(nr, "%d retries fired with no budget", nst.Retries)
	}
	var outstanding uint64
	for name, v := range nr.Registry().Snapshot().Counters {
		if strings.HasPrefix(name, "loadgen/") && strings.HasSuffix(name, "/outstanding") {
			outstanding += v
		}
	}
	if nst.Issued != nst.Completed+nst.Lost+outstanding {
		fail(nr, "issued %d != completed %d + lost %d + outstanding %d",
			nst.Issued, nst.Completed, nst.Lost, outstanding)
	}
	t.Logf("%s: issued %d, retried %d, goodput %d of fault-free %d; without retries lost %d; %d wire faults",
		spec, st.Issued, st.Retries, st.Goodput, baseGoodput, nst.Lost, c.WireFaults().Stats().WireTotal())
}

// checkJourneys requires every node's journey tracer and the cluster's
// wire tracer to hold their invariants (journey.Tracer.Check): each
// completed journey's hops telescope to its e2e, a dropped wire journey
// has no receiver stamp, and started = completed + aborted + still
// open; and the aborted wire journeys are exactly the packets the
// fabric dropped.
func checkJourneys(t *testing.T, run string, c *cluster.Cluster) {
	t.Helper()
	for _, n := range c.Nodes() {
		if err := n.M.Journeys().Check(); err != nil {
			t.Errorf("%s: %s: %v", run, n.Name(), err)
		}
	}
	if err := c.Trace().Check(); err != nil {
		t.Errorf("%s: cluster: %v", run, err)
	}
	ctr := c.Registry().Snapshot().Counters
	drops := ctr["cluster/fault_drops"] + ctr["cluster/outage_drops"] + ctr["cluster/degraded_drops"]
	if _, _, aborted := c.Trace().Counts(journey.KindWire); aborted != drops {
		t.Errorf("%s: %d aborted wire journeys, but the fabric dropped %d packets", run, aborted, drops)
	}
}

// fingerprint renders what two engines must agree on: the generators,
// every node's statistics, the cluster registry and cycle, every node's
// journeys and the wire journeys, and the wire injector's own counts.
func fingerprint(t *testing.T, c *cluster.Cluster) string {
	return fmt.Sprintf("%s\nfaults %+v\n", loadgen.Render(t, c, nil), c.WireFaults().Stats())
}
