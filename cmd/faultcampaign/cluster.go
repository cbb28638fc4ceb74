// The -cluster campaign: where the machine-level sweep (main.go) proves
// a single node recovers to the fault-free architectural state, this
// mode proves the *cluster* request path recovers. It sweeps seeds ×
// topologies × wire-fault specs over the open-loop serving workload and
// asserts three properties per scenario:
//
//  1. Determinism: the parallel engine and the sequential
//     reference produce byte-identical counter state under wire faults —
//     the fault schedule is a function of (seed, traffic), never of the
//     scheduler.
//  2. Goodput: with retries enabled at calibrated fault rates, no
//     request is lost and goodput stays within -goodput-min of the
//     fault-free baseline.
//  3. Accounting: with retries disabled, the books still balance exactly
//     — issued == completed + lost + outstanding, cross-checked between
//     the generator's own stats and the registry gauges.
//
// On any failure the scenario's cluster diagnostic dump and counter
// snapshot are written to -outdir for post-mortem.
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"csbsim/internal/bench"
	"csbsim/internal/cluster"
	"csbsim/internal/cluster/loadgen"
	"csbsim/internal/fault"
)

type clusterOptions struct {
	seeds      int
	seedBase   uint64
	topologies string
	specs      string
	horizon    uint64
	goodputMin float64
	outDir     string
	verbose    bool
}

// servingRun is one fully-built serving cluster plus everything the
// assertions read back after it runs.
type servingRun struct {
	c       *cluster.Cluster
	gens    []*loadgen.Generator
	clients []string
}

// clusterWire shapes the campaign fabric: slow enough that wire faults
// have room to bite, bounded enough that outages exert backpressure.
const (
	clusterNodes       = 4
	clusterWireLatency = 90
	clusterBandwidth   = 2
	clusterLinkDepth   = 8

	// Request reliability knobs — calibrated with headroom. The offered
	// load keeps the CSB serve loop well under half utilization, so an
	// outage-induced queue (plus the retry traffic it spawns) drains
	// instead of collapsing; the timeout clears the round trip plus such
	// a burst; budget × backoff outlasts the longest outage window the
	// default specs can draw.
	reqTimeout  = 6000
	reqRetries  = 4
	reqBackoff  = 750
	reqMeanGap  = 3000
	drainCycles = 80_000 // horizon tail reserved for retries to land
)

// buildServing assembles one serving cluster: node 0 is the server
// (CSB-batched replies — the paper's mechanism under test), every node
// with a link to it is a client. fcfg == nil runs fault-free; retries
// toggles the whole reliability layer between retry and
// first-timeout-is-terminal mode.
func buildServing(topo cluster.Topology, seed uint64, fcfg *fault.Config, retries bool, horizon uint64) (*servingRun, error) {
	cfg := cluster.DefaultConfig()
	cfg.Nodes = clusterNodes
	cfg.Topology = topo
	cfg.WireLatency = clusterWireLatency
	cfg.Bandwidth = clusterBandwidth
	cfg.LinkDepth = clusterLinkDepth
	c, err := cluster.New(cfg)
	if err != nil {
		return nil, err
	}
	src, err := loadgen.ServerProgram(bench.SendCSB, 8)
	if err != nil {
		return nil, err
	}
	run := &servingRun{c: c}
	issueUntil := horizon - drainCycles
	for i, n := range c.Nodes() {
		if i == 0 {
			loadgen.ServerMapIO(n, bench.SendCSB)
			prog, err := n.M.LoadSource("server.s", src)
			if err != nil {
				return nil, err
			}
			n.M.WarmProgram(prog)
			continue
		}
		if _, err := n.M.LoadSource("client.s", "halt\n"); err != nil {
			return nil, err
		}
		if _, ok := c.Link(i, 0); !ok {
			continue // e.g. the far side of a ring: no route to the server
		}
		gcfg := loadgen.Config{
			MeanGap:    reqMeanGap,
			Seed:       seed + uint64(i),
			Words:      8,
			Servers:    []int{0},
			IssueUntil: issueUntil,
			Timeout:    reqTimeout,
		}
		if retries {
			gcfg.MaxRetries = reqRetries
			gcfg.BackoffBase = reqBackoff
		}
		g := loadgen.New(gcfg)
		if err := g.Attach(c, i); err != nil {
			return nil, err
		}
		run.gens = append(run.gens, g)
		run.clients = append(run.clients, n.Name())
	}
	if fcfg != nil {
		if _, err := c.AttachWireFaults(*fcfg); err != nil {
			return nil, err
		}
	}
	return run, nil
}

// fingerprint reduces a finished run to the byte string the determinism
// assertion compares: final cycle, every registry counter and histogram
// (which covers the loadgen and fault accounting), and the injector's
// own stats.
func (r *servingRun) fingerprint() ([]byte, error) {
	out := struct {
		Cycle  uint64          `json:"cycle"`
		Reg    json.RawMessage `json:"registry"`
		Faults *fault.Stats    `json:"faults,omitempty"`
	}{Cycle: r.c.Cycle()}
	reg, err := json.Marshal(r.c.Registry().Snapshot())
	if err != nil {
		return nil, err
	}
	out.Reg = reg
	if inj := r.c.WireFaults(); inj != nil {
		fs := inj.Stats()
		out.Faults = &fs
	}
	return json.Marshal(out)
}

// totals sums the per-client accounting.
func (r *servingRun) totals() loadgen.Stats {
	var t loadgen.Stats
	for _, g := range r.gens {
		st := g.Stats()
		t.Issued += st.Issued
		t.Completed += st.Completed
		t.Lost += st.Lost
		t.Stray += st.Stray
		t.Timeouts += st.Timeouts
		t.Retries += st.Retries
		t.DuplicateReplies += st.DuplicateReplies
		t.Goodput += st.Goodput
	}
	return t
}

// outstanding reads the registry's outstanding gauges — the cross-check
// source for the accounting invariant (the generator's own Stats are the
// other side).
func (r *servingRun) outstanding() uint64 {
	snap := r.c.Registry().Snapshot()
	var sum uint64
	for _, name := range r.clients {
		sum += snap.Counters["loadgen/"+name+"/outstanding"]
	}
	return sum
}

// dumpArtifact writes the scenario's post-mortem bundle: the cluster
// diagnostic dump plus the formatted counter snapshot.
func dumpArtifact(outDir, name string, r *servingRun) {
	if outDir == "" || r == nil {
		return
	}
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "faultcampaign: artifact dir: %v\n", err)
		return
	}
	path := filepath.Join(outDir, name+".dump.txt")
	body := r.c.DiagnosticDump() + "\n" + r.c.Registry().Snapshot().Format()
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "faultcampaign: artifact %s: %v\n", path, err)
		return
	}
	fmt.Fprintf(os.Stderr, "faultcampaign: wrote %s\n", path)
}

// specSlug makes a fault spec safe for a filename.
func specSlug(spec string) string {
	return strings.NewReplacer("=", "", ",", "-").Replace(spec)
}

// runClusterScenario executes the three-assertion bundle for one
// (topology, seed, spec) point against the scenario's fault-free
// baseline goodput. It returns the number of failed assertions.
func runClusterScenario(topo cluster.Topology, seed uint64, specName string, fcfg fault.Config,
	baseGoodput uint64, o *clusterOptions) int {
	name := fmt.Sprintf("%s-seed%d-%s", topo, seed, specSlug(specName))
	fails := 0
	fail := func(r *servingRun, format string, args ...any) {
		fails++
		fmt.Fprintf(os.Stderr, "FAIL %s: %s\n", name, fmt.Sprintf(format, args...))
		dumpArtifact(o.outDir, name, r)
	}

	// Assertion 1: engine determinism under faults. Same scenario on the
	// sequential reference and the parallel engine; fingerprints must be
	// byte-identical.
	var runs [2]*servingRun
	var prints [2][]byte
	for k, parallel := range []bool{false, true} {
		r, err := buildServing(topo, seed, &fcfg, true, o.horizon)
		if err != nil {
			fail(nil, "build: %v", err)
			return fails
		}
		if err := r.c.RunFor(o.horizon, parallel); err != nil {
			fail(r, "run (parallel=%v): %v", parallel, err)
			return fails
		}
		fp, err := r.fingerprint()
		if err != nil {
			fail(r, "fingerprint: %v", err)
			return fails
		}
		runs[k], prints[k] = r, fp
	}
	if string(prints[0]) != string(prints[1]) {
		fail(runs[1], "parallel engine diverged from the sequential reference under wire faults")
	}

	// Assertion 2: goodput under faults. Retries were enabled above, so
	// nothing may be lost, and goodput must hold the line on the
	// fault-free baseline.
	r := runs[1]
	st := r.totals()
	inj := r.c.WireFaults().Stats()
	if inj.WireTotal() == 0 {
		fail(r, "fault spec %q injected nothing — the scenario is vacuous", specName)
	}
	if st.Lost != 0 {
		fail(r, "%d requests lost with a %d-retry budget", st.Lost, reqRetries)
	}
	if st.Completed != st.Issued {
		fail(r, "issued %d but completed %d with retries enabled", st.Issued, st.Completed)
	}
	if min := uint64(o.goodputMin * float64(baseGoodput)); st.Goodput < min {
		fail(r, "goodput %d under faults, want ≥ %d (%.0f%% of fault-free %d)",
			st.Goodput, min, 100*o.goodputMin, baseGoodput)
	}

	// Assertion 3: exact accounting with retries disabled. The first
	// timeout is terminal, so drops surface as losses — and the books
	// must still balance against the registry's outstanding gauges.
	nr, err := buildServing(topo, seed, &fcfg, false, o.horizon)
	if err != nil {
		fail(nil, "build (no retries): %v", err)
		return fails
	}
	if err := nr.c.RunFor(o.horizon, true); err != nil {
		fail(nr, "run (no retries): %v", err)
		return fails
	}
	nst := nr.totals()
	if nst.Retries != 0 {
		fail(nr, "%d retries fired with a zero budget", nst.Retries)
	}
	if out := nr.outstanding(); nst.Issued != nst.Completed+nst.Lost+out {
		fail(nr, "accounting broke: issued %d != completed %d + lost %d + outstanding %d",
			nst.Issued, nst.Completed, nst.Lost, out)
	}
	if o.verbose {
		fmt.Printf("  %-40s issued %4d, retried %3d, goodput %d/%d; no-retry lost %d; %d wire faults\n",
			name, st.Issued, st.Retries, st.Goodput, baseGoodput, nst.Lost, inj.WireTotal())
	}
	return fails
}

// runClusterCampaign sweeps the full matrix. Baselines are fault-free
// runs of the same (topology, seed) workload with retries enabled —
// their goodput is the 100% mark every faulted run is held against.
func runClusterCampaign(o *clusterOptions) error {
	if o.horizon <= drainCycles {
		return fmt.Errorf("-horizon must exceed the %d-cycle drain tail", drainCycles)
	}
	var topos []cluster.Topology
	for _, name := range strings.Split(o.topologies, ",") {
		topo, err := cluster.ParseTopology(strings.TrimSpace(name))
		if err != nil {
			return err
		}
		topos = append(topos, topo)
	}
	type spec struct {
		name string
		cfg  fault.Config
	}
	var specs []spec
	for _, s := range strings.Split(o.specs, ";") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		cfg, err := fault.ParseSpec(s)
		if err != nil {
			return err
		}
		if !cfg.WireEnabled() {
			return fmt.Errorf("spec %q enables no wire fault class", s)
		}
		specs = append(specs, spec{s, cfg})
	}
	if len(specs) == 0 {
		return fmt.Errorf("no wire fault specs")
	}

	scenarios, failures := 0, 0
	for _, topo := range topos {
		for s := 0; s < o.seeds; s++ {
			seed := o.seedBase + uint64(s)
			base, err := buildServing(topo, seed, nil, true, o.horizon)
			if err != nil {
				return err
			}
			if err := base.c.RunFor(o.horizon, true); err != nil {
				return fmt.Errorf("baseline %s seed %d: %w", topo, seed, err)
			}
			bst := base.totals()
			if bst.Lost != 0 || bst.Completed != bst.Issued {
				return fmt.Errorf("baseline %s seed %d unhealthy: %+v (tune the workload, not the faults)",
					topo, seed, bst)
			}
			for _, sp := range specs {
				fcfg := sp.cfg
				fcfg.Seed = seed
				scenarios++
				failures += runClusterScenario(topo, seed, sp.name, fcfg, bst.Goodput, o)
			}
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d assertion(s) failed across %d scenarios", failures, scenarios)
	}
	fmt.Printf("faultcampaign -cluster: %d scenarios (%d topologies × %d seeds × %d specs), all deterministic, zero losses with retries, goodput ≥ %.0f%% of fault-free\n",
		scenarios, len(topos), o.seeds, len(specs), 100*o.goodputMin)
	return nil
}
