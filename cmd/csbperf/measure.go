package main

import (
	"fmt"
	"runtime"
	"time"
)

// options configure one measuring invocation.
type options struct {
	workloads []*workload
	seed      uint64
	seconds   float64 // measure at least this long (once every workload finished a pass)
	rounds    int     // when > 0, stop after this many rounds instead
	trace     bool
	quick     bool // the small sizes, for tests
	setups    int  // fresh builds timed per workload
}

// slotKind is one variant of a workload inside an invocation.
type slotKind int

const (
	plain  slotKind = iota // untraced, GOMAXPROCS = nproc
	traced                 // mirror tick or window hook
	procs1                 // untraced at GOMAXPROCS = 1
)

// slot is one lineage of instances of a workload: a fresh instance is
// built for every pass.
type slot struct {
	kind  slotKind
	inst  instance
	segs  int       // segments done in the current pass
	times []float64 // host seconds of every segment
}

// unitTimer is implemented by instances whose segment is made of
// separately timed units of work (the figures).
type unitTimer interface {
	unitTimes() []time.Duration
}

// state is one workload's measurement in progress.
type state struct {
	w         *workload
	sz        sizes
	seed      uint64
	ref       []uint64 // fingerprint after each segment of a pass
	slots     []*slot
	acc       traceAcc
	units     [][]float64 // host seconds of each unit of the plain slot's segments
	refs      []float64   // reference-kernel seconds before each plain segment
	setups    []setupTimes
	setupRefs []float64 // reference-kernel seconds before each set-up
	heapMB    []float64
	sim       map[string]float64 // from the first complete pass
	passes    int

	attempted, failed uint64
	mallocs, gcs      uint64 // over plain segments of a traced run
	memSegs           uint64
}

// report is one invocation's result; compare reads it back.
type report struct {
	Mode       string              `json:"mode"`
	Seed       uint64              `json:"seed"`
	Seconds    float64             `json:"seconds"`
	GOMAXPROCS int                 `json:"gomaxprocs"`
	GoVersion  string              `json:"go_version"`
	Correct    bool                `json:"correct"`
	Error      string              `json:"error,omitempty"`
	Workloads  map[string]*wresult `json:"workloads"`
	Order      []string            `json:"order"`
}

type wresult struct {
	Fingerprint string          `json:"fingerprint"`
	Passes      int             `json:"passes"`
	Segments    int             `json:"segments"`
	Attempted   uint64          `json:"attempted"`
	Failed      uint64          `json:"failed"`
	Metrics     map[string]stat `json:"metrics"`
}

// measure runs the workloads round-robin, one segment of every slot per
// round, so host-speed phases hit every workload and variant alike. It
// stops once every workload has finished a pass and the time (or round)
// budget is spent. A failed correctness check ends it with Correct false.
func measure(o options) *report {
	rep := &report{
		Mode: "run", Seed: o.seed, Seconds: o.seconds,
		GOMAXPROCS: runtime.GOMAXPROCS(0), GoVersion: runtime.Version(),
		Correct: true, Workloads: make(map[string]*wresult),
	}
	if o.trace {
		rep.Mode = "trace"
	}
	var states []*state
	for _, w := range o.workloads {
		st, err := prepare(w, o)
		if err != nil {
			return rep.fail(w.name, err)
		}
		states = append(states, st)
	}
	start := time.Now()
	for round := 1; ; round++ {
		for _, st := range states {
			for _, s := range st.slots {
				if err := st.step(s, o.trace); err != nil {
					return rep.fail(st.w.name, err)
				}
			}
		}
		done := true
		for _, st := range states {
			done = done && st.passes > 0
		}
		if done && (o.rounds > 0 && round >= o.rounds || o.rounds == 0 && time.Since(start).Seconds() >= o.seconds) {
			break
		}
	}
	for _, st := range states {
		rep.Order = append(rep.Order, st.w.name)
		rep.Workloads[st.w.name] = st.result()
	}
	return rep
}

func (r *report) fail(name string, err error) *report {
	r.Correct = false
	r.Error = fmt.Sprintf("%s: %v", name, err)
	return r
}

// prepare times fresh set-ups, takes the reference fingerprints, and
// lays out the slots.
func prepare(w *workload, o options) (*state, error) {
	st := &state{w: w, sz: w.full, seed: o.seed}
	if o.quick {
		st.sz = w.quick
	}
	for range o.setups {
		// Each build starts from a collected heap, as in a fresh process,
		// so no collection left over from the previous build lands in it.
		runtime.GC()
		st.setupRefs = append(st.setupRefs, refKernel().Seconds())
		_, t, err := w.build(buildCfg{seed: o.seed, segCycles: st.sz.segCycles})
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		st.setups = append(st.setups, t)
	}
	if w.reference != nil {
		ref, err := w.reference()
		if err != nil {
			return nil, fmt.Errorf("reference: %w", err)
		}
		st.ref = ref
	}
	st.slots = []*slot{{kind: plain}}
	if o.trace && w.traceable {
		st.slots = append(st.slots, &slot{kind: traced})
	}
	if o.trace && w.procs1 {
		st.slots = append(st.slots, &slot{kind: procs1})
	}
	return st, nil
}

// step runs one segment of slot s and checks it: the fingerprint must
// match every other instance's at the same segment, whatever its variant
// or pass, and the workload's invariants must hold. At the end of a pass
// it reads the simulated metrics and the retained heap, and drops the
// instance.
func (st *state) step(s *slot, trace bool) error {
	if s.inst == nil {
		bc := buildCfg{seed: st.seed, segCycles: st.sz.segCycles}
		if s.kind == traced {
			bc.acc = &st.acc
		}
		inst, _, err := st.w.build(bc)
		if err != nil {
			return err
		}
		s.inst = inst
	}
	if s.kind == procs1 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	}
	if s.kind == plain {
		st.refs = append(st.refs, refKernel().Seconds())
	}
	var m0 runtime.MemStats
	countMem := trace && s.kind == plain
	if countMem {
		runtime.ReadMemStats(&m0)
	}
	start := time.Now()
	err := s.inst.segment()
	elapsed := time.Since(start)
	if countMem {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		st.mallocs += m1.Mallocs - m0.Mallocs
		st.gcs += uint64(m1.NumGC - m0.NumGC)
		st.memSegs++
	}
	if err != nil {
		return fmt.Errorf("segment %d: %w", s.segs+1, err)
	}
	s.times = append(s.times, elapsed.Seconds())
	if s.kind == plain {
		st.addUnits(s.inst, elapsed)
	}
	i := s.segs
	s.segs++
	fp := s.inst.fingerprint()
	switch {
	case i == len(st.ref):
		st.ref = append(st.ref, fp)
	case st.ref[i] != fp:
		return fmt.Errorf("segment %d: fingerprint %016x, expected %016x", i+1, fp, st.ref[i])
	}
	if err := s.inst.check(); err != nil {
		return fmt.Errorf("segment %d: %w", i+1, err)
	}
	if s.segs < st.sz.passSegs {
		return nil
	}
	s.segs = 0
	if s.kind == plain {
		if st.passes == 0 {
			st.sim = s.inst.simMetrics()
		}
		st.passes++
	}
	st.retire(s)
	return nil
}

// addUnits records a plain segment's time per unit of work.
func (st *state) addUnits(inst instance, elapsed time.Duration) {
	ds := []time.Duration{elapsed}
	if u, ok := inst.(unitTimer); ok {
		ds = u.unitTimes()
	}
	if st.units == nil {
		st.units = make([][]float64, len(ds))
	}
	for k, d := range ds {
		st.units[k] = append(st.units[k], d.Seconds())
	}
}

// retire counts a slot's operations and drops its instance. For the plain
// slot it also reads the heap the instance retained: GC, drop, GC, and
// take the difference.
func (st *state) retire(s *slot) {
	a, f := s.inst.ops()
	st.attempted += a
	st.failed += f
	if s.kind != plain {
		s.inst = nil
		return
	}
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := ms.HeapAlloc
	s.inst = nil
	runtime.GC()
	runtime.ReadMemStats(&ms)
	if live > ms.HeapAlloc {
		st.heapMB = append(st.heapMB, float64(live-ms.HeapAlloc)/(1<<20))
	}
}

func (st *state) slot(k slotKind) *slot {
	for _, s := range st.slots {
		if s.kind == k {
			return s
		}
	}
	return nil
}

// result reduces the samples to metrics.
func (st *state) result() *wresult {
	for _, s := range st.slots {
		if s.inst != nil {
			a, f := s.inst.ops()
			st.attempted += a
			st.failed += f
		}
	}
	defs := defsByName()
	r := &wresult{
		Passes: st.passes, Attempted: st.attempted, Failed: st.failed,
		Metrics: make(map[string]stat),
	}
	set := func(name string, xs ...float64) {
		r.Metrics[name] = summarize(defs[name].unit, xs)
	}
	if n := len(st.ref); n > 0 {
		r.Fingerprint = fmt.Sprintf("%016x", st.ref[n-1])
	}
	plainT := st.slots[0].times
	r.Segments = len(plainT)
	segMed := median(plainT)
	set("segment_ms", scale(plainT, 1e3)...)
	// The fastest observation of each unit of work, summed over a segment
	// and rescaled by the reference kernel (see refKernel). The kernel is
	// a hundred times shorter than a segment and finds brief quiet moments
	// no segment can, so its 10th percentile, not its minimum, matches the
	// segments' minimum.
	var best float64
	for _, u := range st.units {
		best += sorted(u)[0]
	}
	set("segment_min_ms", best*1e3*refScale(quantile(sorted(st.refs), 0.10)))
	var setup, newMs, asmMs, warmMs []float64
	for i, t := range st.setups {
		setup = append(setup, t.total.Seconds()*refScale(st.setupRefs[i]))
		newMs = append(newMs, ms(t.new))
		asmMs = append(asmMs, ms(t.asm))
		warmMs = append(warmMs, ms(t.warm))
	}
	set("setup_s", setup...)
	set("heap_mb", st.heapMB...)
	set("fail_frac", ratio(st.failed, max(st.attempted, 1)))
	nodeCycles := float64(uint64(st.w.nodes) * st.sz.segCycles)
	if nodeCycles > 0 {
		khz := make([]float64, len(plainT))
		for i, t := range plainT {
			khz[i] = nodeCycles / t / 1e3
		}
		set("sim_khz", khz...)
	}
	for k, name := range st.w.units {
		set("bench.fig."+name+"_ms", median(st.units[k])*1e3)
	}
	for name, v := range st.sim {
		set(name, v)
	}

	// Per-layer host metrics of the traced run.
	if len(st.slots) == 1 {
		return r
	}
	layer := map[string]float64{
		"sim.new_ms":      median(newMs),
		"asm.assemble_ms": median(asmMs),
		"sim.warm_ms":     median(warmMs),
	}
	if nodeCycles > 0 {
		layer["sim.host_ns_per_cycle"] = segMed * 1e9 / nodeCycles
	}
	if s := st.slot(traced); s != nil {
		layer["sim.trace_overhead_pct"] = 100 * (median(s.times)/segMed - 1)
	}
	if s := st.slot(procs1); s != nil {
		layer["sim.parallel_speedup"] = median(s.times) / segMed
	}
	if st.memSegs > 0 {
		layer["sim.allocs_per_segment"] = float64(st.mallocs) / float64(st.memSegs)
		layer["sim.gc_per_segment"] = float64(st.gcs) / float64(st.memSegs)
	}
	st.acc.mirrorMetrics(layer)
	st.acc.windowMetrics(layer)
	for name, v := range layer {
		set(name, v)
	}
	return r
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func scale(xs []float64, k float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * k
	}
	return out
}

// refNominal is the reference kernel's time at the host speed the
// end-to-end host times are reported at.
const refNominal = 1e-3

// refScale converts a host time measured when the reference kernel took
// ref seconds to the nominal reference speed.
func refScale(ref float64) float64 { return refNominal / ref }

// refKeys drive the reference kernel: 16 Ki pseudo-random keys.
var refKeys = func() []uint64 {
	x := uint64(88172645463325252)
	keys := make([]uint64, 1<<14)
	for i := range keys {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		keys[i] = x
	}
	return keys
}()

var (
	refMap  = make(map[uint64]uint64, 1<<15)
	refSink uint64
)

// refKernel times a fixed amount of host work that shares no code with
// the simulator: map inserts and lookups over about a megabyte, under a
// millisecond. Neighbours on a shared host slow memory-bound code like the
// simulator by up to 1.6 times for seconds or minutes at a time, and the
// kernel slows with them, so rescaling a run's host times by the kernel's
// times in the same run cancels most of that drift (see the package
// documentation for the measured spreads). Because the kernel's code is
// fixed, a change to the simulator moves the rescaled times as much as
// the raw ones.
func refKernel() time.Duration {
	clear(refMap)
	start := time.Now()
	for i, k := range refKeys {
		refMap[k&0xffff] += uint64(i)
	}
	var s uint64
	for _, k := range refKeys {
		s += refMap[k&0x1ffff]
	}
	d := time.Since(start)
	refSink += s
	return d
}
