package cpu

import (
	"csbsim/internal/cache"
	"csbsim/internal/core"
	"csbsim/internal/isa"
	"csbsim/internal/mem"
	"csbsim/internal/obs"
	"csbsim/internal/obs/counters"
	"csbsim/internal/uncbuf"
)

// StallCause re-exports the CPI-stack bucket type for hook signatures.
type StallCause = obs.StallCause

// CPU is the out-of-order core. It is wired to the cache hierarchy, the
// uncached buffer, the conditional store buffer and physical memory by the
// machine (internal/sim) and advanced one cycle at a time with Tick.
type CPU struct {
	cfg  Config
	arch ArchState

	hier *cache.Hierarchy
	ub   *uncbuf.Buffer
	csb  *core.CSB
	ram  *mem.Memory
	tlb  *mem.TLB
	pt   *mem.PageTable

	pred *predictor

	queues

	intRen [isa.NumRegs]*uop
	fpRen  [isa.NumFRegs]*uop
	ccRen  *uop
	seq    uint64

	// Allocation-free steady state: retired uops queue in retq until no
	// in-flight uop can reference them and then return to uopFree. uops
	// counts the slots newUop has allocated, in slabs. stBuf is the
	// scratch encoding buffer for store data.
	uopFree []*uop
	uops    int
	slabs   [][]uop
	stBuf   [8]byte

	// Decoded-instruction cache: fetch skips the RAM read and decode for
	// PCs it has seen (see decache.go).
	decCache []decEntry
	decGen   uint32

	pc           uint64
	iLineMask    uint64 // L1I line size - 1
	fetchBlocked bool
	fetchGen     uint64 // invalidates in-flight I-cache fill callbacks
	branchCount  int
	memCount     int

	stallCycles int // context-switch cost injected by the kernel

	// ucLoads holds the uops whose uncached reads are queued or in flight
	// in the uncached buffer, oldest first: the buffer completes its loads
	// in queue order, so loadDone, bound once at New, pops the front. A
	// flushed uop stays here, pinned and dead, until its read completes.
	ucLoads  []*uop
	loadDone func([]byte)

	// asleep marks a core stalled at retire (see retireBound): until the
	// ROB head's retire step makes progress, Tick runs only that step.
	// asleepCycles counts the cycles that began asleep, ticked or
	// coasted, and coast is the charge of a coasted cycle (coast.go).
	asleep       bool
	asleepCycles uint64
	coast        coastPlan

	halted  bool
	haltErr error

	pendingIntr uint64
	// InterruptHook, if set, runs when an interrupt is taken (after the
	// pipeline is flushed and ERPC/CAUSE are written). Returning true
	// means the hook handled it (e.g. a Go-level kernel switched
	// contexts); false vectors to IVEC.
	InterruptHook func(cause uint64) bool
	// TrapHook, if set, intercepts OpTRAP. Returning true treats the
	// trap as a handled "syscall": execution continues at the next
	// instruction. False vectors to IVEC.
	TrapHook func(code int64) bool
	// PIDChanged, if set, runs when software writes the PID privileged
	// register (the machine switches page tables here).
	PIDChanged func(pid uint8)
	// retireObs observes every retired instruction in commit order;
	// register with AttachRetire. Multiple observers (tracer, the
	// machine's retired-instruction ring, ...) coexist and run in
	// attachment order.
	retireObs []func(RetireEvent)

	// Cycle-classification state for the CPI stack (see stall.go).
	retiredThisCycle bool
	cycleCause       StallCause
	cycleCauseSet    bool
	squashRefill     bool // ROB-empty cycles are a mispredict refill
	icacheMiss       bool // an I-cache fill for the current stream is in flight

	stats Stats
}

// queues are the core's uop queues, each a window on one array that New
// allocates and Reset keeps.
//
// Event-driven scheduling (after gem5 O3's instruction queue): issue
// walks only the uops that can act this cycle, and executeAdvance only
// exq, the uops with a countdown running (unit or cached-load latency,
// or a TLB walk). iq holds the memory uops with issue-stage work and the
// non-memory uops whose operands are all done. A non-memory uop still
// waiting on an operand is parked on that producer's wakeup list instead
// (see park), and the producer's markDone moves it to woken, which issue
// merges with iq. iqNext is the buffer issue compacts into before the two
// swap. All queues are subsets of the ROB in program order. Squashes pop
// younger entries off the tails and unlink killed waiters, and flushAll
// empties them, so none ever holds a killed uop: killUop recycles the
// slot at once. CheckQueues rebuilds all of them from the ROB.
//
// rob, fetchQ and retq are windows into the fixed backing arrays robBack,
// fqBack and retqBack, compacted to the front when a push reaches the
// end.
type queues struct {
	rob    []*uop
	fetchQ []*uop
	retq   []*uop
	iq     []*uop
	iqNext []*uop
	woken  []*uop
	exq    []*uop

	robBack  []*uop
	fqBack   []*uop
	retqBack []*uop
}

// RetireEvent describes one committed instruction for tracing.
type RetireEvent struct {
	Cycle  uint64
	Seq    uint64
	PC     uint64
	Inst   isa.Inst
	Result uint64 // destination value, if any
	Addr   uint64 // effective address for memory operations
	IsMem  bool

	// Lifecycle stamps in CPU cycles; 0 means the stage was not recorded
	// for this instruction (retire-executed operations skip issue, NOPs
	// complete at rename, ...). Cycle is the retire stamp.
	FetchCycle    uint64
	DispatchCycle uint64
	IssueCycle    uint64
	CompleteCycle uint64
}

// AttachRetire registers fn to observe every retired instruction in
// commit order. Observers are independent and run in attachment order, so
// a streaming tracer and the machine's retired-instruction ring can
// coexist.
func (c *CPU) AttachRetire(fn func(RetireEvent)) {
	c.retireObs = append(c.retireObs, fn)
}

// New builds a core wired to its memory system.
func New(cfg Config, hier *cache.Hierarchy, ub *uncbuf.Buffer, csb *core.CSB, ram *mem.Memory) (*CPU, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	c := &CPU{hier: hier, ub: ub, csb: csb, ram: ram}
	c.loadDone = c.uncachedLoadDone
	c.Reset(cfg)
	return c, nil
}

// Reset returns the core to the state New(cfg, ...) gives over the same
// memory system, which the machine resets first: no program, an empty
// pipeline, cold predictor, TLB and decode cache, statistics cleared, and
// no hook or retire observer. Every uop the pool has grown goes back on
// the free list, and the queues, decode cache, predictor and TLB keep
// their storage while cfg's sizes fit them. cfg must be valid
// (sim.Machine.Reset validates the whole machine's first).
func (c *CPU) Reset(cfg Config) {
	// Every uop queue is a window on one array, each capped so that no
	// append runs into the next. The ROB, fetch-queue and retired-queue
	// windows get double-capacity backings: pushes compact a live window
	// to the front only when it drifts past the halfway point, amortizing
	// the copy without ring-buffer indexing at every use site. A retired
	// uop waits in retq at most until every uop in flight at its
	// retirement has left, so retq holds at most ROBSize+FetchQueue
	// entries plus one cycle's retires. The scheduling queues hold at
	// most the ROB.
	retqMax := cfg.ROBSize + cfg.FetchQueue + cfg.RetireWidth
	q := c.queues
	if q.robBack == nil || c.cfg.ROBSize != cfg.ROBSize || c.cfg.FetchQueue != cfg.FetchQueue || c.cfg.RetireWidth != cfg.RetireWidth {
		back := make([]*uop, 6*cfg.ROBSize+2*cfg.FetchQueue+2*retqMax)
		carve := func(n int) []*uop {
			q := back[:0:n]
			back = back[n:]
			return q
		}
		q = queues{
			robBack:  carve(2 * cfg.ROBSize),
			fqBack:   carve(2 * cfg.FetchQueue),
			retqBack: carve(2 * retqMax),
			iq:       carve(cfg.ROBSize),
			iqNext:   carve(cfg.ROBSize),
			woken:    carve(cfg.ROBSize),
			exq:      carve(cfg.ROBSize),
		}
	}
	q.rob, q.fetchQ, q.retq = q.robBack[:0], q.fqBack[:0], q.retqBack[:0]
	q.iq, q.iqNext, q.woken, q.exq = q.iq[:0], q.iqNext[:0], q.woken[:0], q.exq[:0]
	tlb := c.tlb
	if tlb == nil {
		tlb = mem.NewTLB(cfg.TLBEntries)
	} else {
		tlb.Reset(cfg.TLBEntries)
	}
	pred := c.pred
	if pred == nil || len(pred.counters) != cfg.PredictorSize {
		pred = newPredictor(cfg.PredictorSize)
	} else {
		pred.reset()
	}
	decCache := c.decCache
	if decCache == nil {
		decCache = make([]decEntry, decCacheMin)
	}
	// The free list takes back every slot of every slab, including the
	// ones a pinned uop left to leak: nothing the last run did can reach
	// them any more.
	free := c.uopFree[:0]
	for _, slab := range c.slabs {
		for i := range slab {
			free = append(free, &slab[i])
		}
	}
	clear(c.ucLoads)
	*c = CPU{
		cfg:  cfg,
		hier: c.hier, ub: c.ub, csb: c.csb, ram: c.ram,
		tlb: tlb, pred: pred,
		queues:  q,
		uopFree: free, uops: c.uops, slabs: c.slabs,
		// A reset cache starts at its first size again (growth reuses
		// the array); the generation bump invalidates every entry.
		decCache:  decCache[:decCacheMin],
		decGen:    c.decGen + 1,
		iLineMask: uint64(c.hier.LineSize() - 1),
		ucLoads:   c.ucLoads[:0],
		loadDone:  c.loadDone,
	}
}

// newUop returns a zeroed uop from the free list. An empty free list
// grows by one slab as large as the pool so far, 16 to 64 slots: a long
// run keeps most of its uops in a few slabs and at most 63 idle.
//
// Pool contract (the same no-retention rule bus.Txn documents): a *uop
// handed to a callback or observer is only valid until that call returns —
// recycleRetired reuses the slot as soon as no in-flight uop can reference
// it. Code that must hold one across cycles pin-counts it via u.pins; the
// noretain analyzer (internal/analysis, run by go test) enforces this
// mechanically.
//
//csb:hotpath
func (c *CPU) newUop() *uop {
	if n := len(c.uopFree); n > 0 {
		u := c.uopFree[n-1]
		c.uopFree = c.uopFree[:n-1]
		*u = uop{fillDone: u.fillDone}
		return u
	}
	slab := make([]uop, min(64, max(16, c.uops))) //csb:alloc-ok — cold start: the pool grows until steady state
	c.uops += len(slab)
	c.slabs = append(c.slabs, slab) //csb:alloc-ok — cold start, as above
	for i := len(slab) - 1; i > 0; i-- {
		c.uopFree = append(c.uopFree, &slab[i]) //csb:alloc-ok — cold start, as above
	}
	return &slab[0]
}

// fillCallback returns the callback a cache load of u.pa hands the
// hierarchy for its fill. A slot builds it on its first load that misses
// and keeps it; a hit retains no callback, so none is built for it. The
// callback's capture of u is pin-counted by the loads (u.pins), hence:
//
//csb:pool
func (c *CPU) fillCallback(u *uop) func() {
	if u.fillDone == nil && !c.hier.Present(u.pa, false) {
		u.fillDone = func() { //csb:alloc-ok — once per pooled slot
			u.pins--
			if !u.dead {
				u.memWait = false
			}
		}
	}
	return u.fillDone
}

// pushROB appends to the ROB window, compacting it to the front of its
// backing array when the window has drifted to the end.
//
//csb:hotpath
//csb:pool — the ROB is the pipeline's own storage for in-flight uops.
func (c *CPU) pushROB(u *uop) {
	if len(c.rob) == cap(c.rob) {
		c.rob = append(c.robBack[:0], c.rob...)
	}
	c.rob = append(c.rob, u)
}

//csb:hotpath
//csb:pool — the fetch queue is the pipeline's own storage for in-flight uops.
func (c *CPU) pushFetchQ(u *uop) {
	if len(c.fetchQ) == cap(c.fetchQ) {
		c.fetchQ = append(c.fqBack[:0], c.fetchQ...)
	}
	c.fetchQ = append(c.fetchQ, u)
}

// pushExq inserts a uop that starts a countdown into the execute queue,
// keeping it in program order.
//
//csb:hotpath
//csb:pool — the execute queue is the pipeline's own storage for in-flight uops.
func (c *CPU) pushExq(u *uop) {
	c.exq = insertBySeq(c.exq, u)
}

// insertBySeq inserts u into q, a queue in program order. The queues hold
// a handful of entries and the newcomer is usually the youngest, so the
// insertion scans from the tail.
//
//csb:hotpath
//csb:pool — callers pass the pipeline's own queues.
func insertBySeq(q []*uop, u *uop) []*uop {
	q = append(q, u)
	i := len(q) - 1
	for ; i > 0 && q[i-1].seq > u.seq; i-- {
		q[i] = q[i-1]
	}
	q[i] = u
	return q
}

// park puts u, a non-memory uop whose operand p is not done, on p's
// wakeup list; markDone(p) re-examines it.
//
//csb:hotpath
//csb:pool — wakeup lists are the pipeline's own storage for in-flight uops.
func park(u, p *uop) {
	u.wnext = p.waiters
	p.waiters = u
}

// wake re-examines the uops parked on p, which just completed: each one
// parks again on another operand that is not done, or joins woken, in
// program order, for this cycle's issue walk. (Only rename completes a
// uop after issue, and nothing can have parked on a uop being renamed.)
//
//csb:hotpath
//csb:pool — wakeup lists and woken are the pipeline's own storage for in-flight uops.
func (c *CPU) wake(p *uop) {
	w := p.waiters
	p.waiters = nil
	for w != nil {
		next := w.wnext
		w.wnext = nil
		if q := w.blocker(); q != nil {
			park(w, q)
		} else {
			c.woken = insertBySeq(c.woken, w)
		}
		w = next
	}
}

// dropDeadWaiters unlinks squashed uops from p's wakeup list.
//
//csb:pool — wakeup lists are the pipeline's own storage for in-flight uops.
func dropDeadWaiters(p *uop) {
	link := &p.waiters
	for w := p.waiters; w != nil; w = w.wnext {
		if w.dead {
			*link = w.wnext
		} else {
			link = &w.wnext
		}
	}
}

// dropYounger pops the entries younger than seq off the tail of q, a
// queue in program order.
func dropYounger(q []*uop, seq uint64) []*uop {
	n := len(q)
	for n > 0 && q[n-1].seq > seq {
		n--
	}
	return q[:n]
}

// recycleRetired moves retired uops whose references have provably drained
// from the pipeline onto the free list. A uop retired at sequence stamp S
// can only be referenced (as a renamed source or a rename-map entry) by
// uops fetched no later than S; once the oldest in-flight uop is younger,
// the slot is reusable. Pinned uops (outstanding fill/load callbacks) are
// dropped to the GC instead.
//
//csb:hotpath
//csb:pool
func (c *CPU) recycleRetired() {
	if len(c.retq) == 0 {
		return
	}
	oldest := c.seq + 1 // pipeline empty: everything is recyclable
	if len(c.rob) > 0 {
		oldest = c.rob[0].seq
	} else if len(c.fetchQ) > 0 {
		oldest = c.fetchQ[0].seq
	}
	i := 0
	for ; i < len(c.retq); i++ {
		u := c.retq[i]
		if u.freeStamp >= oldest {
			break
		}
		if u.pins == 0 {
			c.uopFree = append(c.uopFree, u)
		}
	}
	c.retq = c.retq[i:]
}

// pushRetq parks a retired uop on the retired queue's window.
//
//csb:hotpath
//csb:pool — the retired queue is the uop pool's quarantine stage.
func (c *CPU) pushRetq(u *uop) {
	if len(c.retq) == cap(c.retq) {
		c.retq = append(c.retqBack[:0], c.retq...)
	}
	c.retq = append(c.retq, u)
}

// SetPageTable installs the page table used for data-address translation.
func (c *CPU) SetPageTable(pt *mem.PageTable) { c.pt = pt }

// PageTable returns the current page table.
func (c *CPU) PageTable() *mem.PageTable { return c.pt }

// TLB exposes the data TLB (the kernel flushes it when reusing ASIDs).
func (c *CPU) TLB() *mem.TLB { return c.tlb }

// Start clears the pipeline and starts execution at entry.
func (c *CPU) Start(entry uint64) {
	c.invalidateDecodeCache() // a new program may occupy the same PCs
	c.flushAll()
	c.arch = ArchState{PC: entry}
	c.pc = entry
	c.halted = false
	c.haltErr = nil
	c.pendingIntr = 0
	c.stallCycles = 0
}

// Halted reports whether the core has executed HALT or hit a fatal fault.
func (c *CPU) Halted() bool { return c.halted }

// Err returns the fatal condition that halted the core, if any.
func (c *CPU) Err() error { return c.haltErr }

// Stats returns a snapshot of the statistics.
func (c *CPU) Stats() Stats { return c.stats }

// RegisterCounters registers the core's counters with the unified
// registry under prefix (e.g. "cpu"), as read closures over the live
// stats — registration never perturbs simulation state.
func (c *CPU) RegisterCounters(prefix string, r *counters.Registry) {
	s := &c.stats
	r.Counter(prefix+"/cycles", func() uint64 { return s.Cycles })
	r.Counter(prefix+"/fetched", func() uint64 { return s.Fetched })
	r.Counter(prefix+"/retired", func() uint64 { return s.Retired })
	r.Counter(prefix+"/squashed", func() uint64 { return s.Squashed })
	r.Counter(prefix+"/branches", func() uint64 { return s.Branches })
	r.Counter(prefix+"/mispredicts", func() uint64 { return s.Mispredicts })
	r.Counter(prefix+"/cached_loads", func() uint64 { return s.CachedLoads })
	r.Counter(prefix+"/cached_stores", func() uint64 { return s.CachedStores })
	r.Counter(prefix+"/uncached_loads", func() uint64 { return s.UncachedLoads })
	r.Counter(prefix+"/uncached_stores", func() uint64 { return s.UncachedStores })
	r.Counter(prefix+"/csb_stores", func() uint64 { return s.CSBStores })
	r.Counter(prefix+"/csb_flushes", func() uint64 { return s.CSBFlushes })
	r.Counter(prefix+"/csb_flush_fails", func() uint64 { return s.CSBFlushFails })
	r.Counter(prefix+"/membars", func() uint64 { return s.Membars })
	r.Counter(prefix+"/traps", func() uint64 { return s.Traps })
	r.Counter(prefix+"/interrupts", func() uint64 { return s.Interrupts })
	r.Counter(prefix+"/faults", func() uint64 { return s.Faults })
}

// State returns a pointer to the committed architectural state. The kernel
// uses it (between Ticks, with the pipeline flushed) for context switches.
func (c *CPU) State() *ArchState { return &c.arch }

// Cycles returns the number of elapsed CPU cycles.
func (c *CPU) Cycles() uint64 { return c.stats.Cycles }

// Interrupt posts an external interrupt; it is taken at the next retire
// boundary if interrupts are enabled. It wakes an asleep core, whose next
// Tick runs the full cycle either way.
func (c *CPU) Interrupt(cause uint64) {
	c.pendingIntr = cause
	c.asleep = false
}

// Stall freezes the core for n cycles (models the kernel's context-switch
// cost without simulating kernel code instruction by instruction). It
// wakes an asleep core: the first cycle after the stall runs in full,
// which retireBound makes equivalent to an asleep one.
func (c *CPU) Stall(n int) {
	c.stallCycles += n
	c.asleep = false
}

// SaveState copies the committed state; PC is the resume point of the
// interrupted process.
func (c *CPU) SaveState() ArchState { return c.arch }

// RestoreState installs a saved context and redirects fetch, clearing any
// halt (a halted process's exit is the kernel's cue to dispatch another).
func (c *CPU) RestoreState(s ArchState) {
	c.arch = s
	c.pc = s.PC
	c.halted = false
	c.haltErr = nil
	c.pendingIntr = 0
	c.invalidateDecodeCache() // the kernel may have (re)loaded program text
	c.flushAll()
}

// FlushPipeline squashes all in-flight work and restarts fetch at the
// committed PC (used by the kernel after it mutates state directly).
func (c *CPU) FlushPipeline() {
	c.invalidateDecodeCache()
	c.flushAll()
	c.pc = c.arch.PC
}

// Tick advances the core one CPU cycle. Stage order is reverse-pipeline so
// results become visible to younger stages one cycle later. Every cycle is
// charged to exactly one CPI-stack bucket (see stall.go), so the stack's
// buckets always sum to stats.Cycles.
//
// A core asleep at retire (after gem5 O3, which deschedules a CPU with no
// activity) runs only its ROB head's retire step, the cycle's
// classification and fetch, while that step stalls; fetch then only counts
// its stall or finds the fetch queue full. The rest of the cycle would
// change nothing: see retireBound. A pending interrupt runs the full
// cycle.
//
//csb:hotpath
func (c *CPU) Tick() {
	c.stats.Cycles++
	if c.halted {
		c.stats.CPI.Add(obs.CauseHalted)
		return
	}
	if c.stallCycles > 0 {
		c.stallCycles--
		c.stats.CPI.Add(obs.CauseKernel)
		return
	}
	c.retiredThisCycle = false
	c.cycleCauseSet = false
	if c.asleep && c.pendingIntr == 0 {
		c.asleepCycles++
		if !c.retireExecStep(c.rob[0]) {
			c.stats.CPI.Add(c.classifyCycle())
			c.fetch()
			return
		}
	} else {
		c.retire()
	}
	c.asleep = false
	c.stats.CPI.Add(c.classifyCycle())
	c.recycleRetired()
	if c.halted {
		return
	}
	c.executeAdvance()
	c.issue()
	c.dispatch()
	c.fetch()
	c.asleep = c.retireBound()
}

// retireBound reports whether, at the end of a full cycle, only the ROB
// head's retire step can change the core in the cycles that follow. The
// head is a retire-executed operation that did not complete this cycle,
// and the other stages are provably idle until it does (an interrupt is
// not: Tick checks pendingIntr every cycle):
//   - the issue, wakeup and execute queues are empty. Every producer of
//     the head is older, hence retired, so the head's operands are ready,
//     and a parked uop wakes only through markDone, which only the head's
//     completion can now call;
//   - recycleRetired is a no-op until the head changes;
//   - dispatch is held by a limit only retire relaxes: an empty fetch
//     queue, a full ROB, or a fetch-queue head at the branch or LSQ limit;
//   - fetch is held: a full fetch queue, or a JALR/HALT/IRET redirect wait
//     with no I-cache fill in flight (a fill's callback would unblock it).
//
// Squashes and flushes change these counts too, but only retire (IRET,
// TRAP, an interrupt) or a caller going through flushAll can cause one.
func (c *CPU) retireBound() bool {
	if c.retiredThisCycle || c.cycleCauseSet || c.halted ||
		len(c.rob) == 0 || !c.rob[0].needsRetireExec() ||
		len(c.iq) != 0 || len(c.woken) != 0 || len(c.exq) != 0 {
		return false
	}
	if len(c.fetchQ) != 0 && len(c.rob) < c.cfg.ROBSize {
		u := c.fetchQ[0]
		if !(u.isBranch() && c.branchCount >= c.cfg.MaxBranches) &&
			!(u.isMem() && c.memCount >= c.cfg.LSQSize) {
			return false
		}
	}
	return len(c.fetchQ) >= c.cfg.FetchQueue || c.fetchBlocked && !c.icacheMiss
}

// ---- fetch ----

func (c *CPU) fetch() {
	if c.fetchBlocked {
		c.stats.FetchStalls++
		return
	}
	// The I-cache is checked once per line: nothing in the loop can
	// change its contents, so a line present for the group's first
	// instruction stays present for the rest of the group.
	line := ^uint64(0)
	for i := 0; i < c.cfg.FetchWidth && len(c.fetchQ) < c.cfg.FetchQueue; i++ {
		if la := c.pc &^ c.iLineMask; la != line {
			if !c.hier.Present(c.pc, true) {
				if i == 0 {
					c.startICacheFill(c.pc)
				}
				return
			}
			line = la
		}
		u := c.newUop()
		u.seq = c.nextSeq()
		e := c.decode(c.pc)
		u.inst = e.inst
		u.fl = e.fl
		u.pc = c.pc
		u.fetchC = c.stats.Cycles
		u.predNext = e.next
		if e.fl&flCondBranch != 0 && !c.pred.predict(u.pc) {
			u.predNext = u.pc + 4
		}
		if e.fl&flStopFetch != 0 {
			c.fetchBlocked = true
		}
		c.pushFetchQ(u)
		c.stats.Fetched++
		taken := u.predNext != u.pc+4
		c.pc = u.predNext
		if c.fetchBlocked || taken {
			return
		}
	}
}

func (c *CPU) startICacheFill(pc uint64) {
	gen := c.fetchGen
	c.fetchBlocked = true
	c.stats.ICacheStalls++
	_, hit, accepted := c.hier.Load(pc, true, func() {
		if c.fetchGen == gen {
			c.fetchBlocked = false
			c.icacheMiss = false
		}
	})
	if hit || !accepted {
		// hit: racing fill already installed it; !accepted: retry.
		c.fetchBlocked = false
		return
	}
	c.icacheMiss = true
}

func (c *CPU) nextSeq() uint64 {
	c.seq++
	return c.seq
}

// ---- dispatch (rename) ----

func (c *CPU) dispatch() {
	for n := 0; n < c.cfg.DispatchWidth && len(c.fetchQ) > 0; n++ {
		u := c.fetchQ[0]
		if len(c.rob) >= c.cfg.ROBSize {
			return
		}
		if u.isBranch() && c.branchCount >= c.cfg.MaxBranches {
			return
		}
		if u.isMem() && c.memCount >= c.cfg.LSQSize {
			return
		}
		c.fetchQ = c.fetchQ[1:]
		c.rename(u)
		u.dispatchC = c.stats.Cycles
		c.pushROB(u)
		if u.hasIssueStage() {
			c.enqueue(u)
		}
		c.stats.Dispatched++
		c.squashRefill = false
		if u.isBranch() {
			c.branchCount++
		}
		if u.isMem() {
			c.memCount++
		}
	}
}

// enqueue enters a just-dispatched uop into scheduling: a non-memory uop
// with an operand that is not done parks on its producer, everything
// else joins the tail of the issue queue (dispatch runs in program
// order, so the queue stays sorted). Memory uops are checked first and
// stay polled in iq: their agen, walk, fill, port and ordering waits are
// not operand waits.
//
//csb:hotpath
//csb:pool — the issue queue is the pipeline's own storage for in-flight uops.
func (c *CPU) enqueue(u *uop) {
	if !u.isMem() {
		if p := u.blocker(); p != nil {
			park(u, p)
			return
		}
	}
	c.iq = append(c.iq, u)
}

// rename captures u's sources from the rename maps and registers u as the
// new producer for its destinations. The rename maps are pipeline-owned
// storage for in-flight uops; recycleRetired proves references drain
// before a slot is reused.
//
//csb:pool
func (c *CPU) rename(u *uop) {
	in := &u.inst
	fl := u.fl
	// Source 1.
	switch {
	case fl&flFPRs1 != 0:
		if p := c.fpRen[in.Rs1]; p != nil {
			u.s1 = p
		} else {
			u.v1 = c.arch.F[in.Rs1]
		}
	case fl&flIntRs1 != 0:
		if p := c.intRen[in.Rs1]; p != nil {
			u.s1 = p
		} else {
			u.v1 = c.arch.R[in.Rs1]
		}
	}
	// Source 2.
	switch {
	case fl&flFPRs2 != 0:
		if p := c.fpRen[in.Rs2]; p != nil {
			u.s2 = p
		} else {
			u.v2 = c.arch.F[in.Rs2]
		}
	case fl&flIntRs2 != 0:
		if p := c.intRen[in.Rs2]; p != nil {
			u.s2 = p
		} else {
			u.v2 = c.arch.R[in.Rs2]
		}
	}
	// Store-data source (Rd read as a source).
	if fl&flReadsRd != 0 {
		if in.Op == isa.OpSTF {
			if p := c.fpRen[in.Rd]; p != nil {
				u.sd = p
			} else {
				u.vd = c.arch.F[in.Rd]
			}
		} else {
			if p := c.intRen[in.Rd]; p != nil {
				u.sd = p
			} else {
				u.vd = c.arch.R[in.Rd]
			}
		}
	}
	// Condition codes for conditional branches.
	if fl&flCondBranch != 0 {
		if c.ccRen != nil {
			u.ccProd = c.ccRen
		} else {
			u.ccVal = c.arch.CC
		}
	}

	// Trivial completions.
	switch in.Op {
	case isa.OpNOP:
		c.markDone(u)
	case isa.OpInvalid:
		u.faulted = true
		c.markDone(u)
	}

	c.mapDests(u)
}

// mapDests registers u as the producer of its destinations in the
// rename maps.
//
//csb:pool
func (c *CPU) mapDests(u *uop) {
	if u.fl&flWritesFP != 0 {
		c.fpRen[u.inst.Rd] = u
	} else if u.fl&flWritesInt != 0 {
		c.intRen[u.inst.Rd] = u
	}
	if u.fl&flWritesCC != 0 {
		c.ccRen = u
	}
}

// markDone completes a uop (its result becomes visible to dependents),
// stamps the completion cycle for lifecycle tracing and wakes the uops
// parked on it.
//
//csb:hotpath
func (c *CPU) markDone(u *uop) {
	u.done = true
	u.completeC = c.stats.Cycles
	if u.waiters != nil {
		c.wake(u)
	}
}

// ---- issue ----

// issue gives each uop in the issue queue and the woken list, merged
// oldest first, its chance at a functional unit, an AGU or a cache port,
// and compacts the uops that still wait into the spare buffer, which
// becomes the issue queue. Parked uops are skipped: issueFU would find an
// operand not done and leave every counter untouched. issueMem can wake
// a uop mid-walk by marking a faulted load done; the uop is younger than
// the load, so it lands in woken ahead of the walk and issues this cycle.
//
//csb:hotpath
func (c *CPU) issue() {
	ints := c.cfg.IntALUs
	fps := c.cfg.FPUs
	agus := c.cfg.AGUs
	ports := c.cfg.MemPorts
	kept := c.iqNext[:0]
	for i, j := 0, 0; ; {
		var u *uop
		if i < len(c.iq) && (j == len(c.woken) || c.iq[i].seq < c.woken[j].seq) {
			u = c.iq[i]
			i++
		} else if j < len(c.woken) {
			u = c.woken[j]
			j++
		} else {
			break
		}
		var waiting bool
		if u.isMem() {
			waiting = c.issueMem(u, &agus, &ports)
		} else {
			waiting = c.issueFU(u, &ints, &fps)
		}
		if waiting {
			kept = append(kept, u)
		}
	}
	c.woken = c.woken[:0]
	c.iqNext = c.iq[:0]
	c.iq = kept
}

// issueFU starts an integer, branch or FP uop, whose operands are all
// done, on a free unit of its class. It reports whether u still waits to
// issue.
func (c *CPU) issueFU(u *uop, ints, fps *int) bool {
	units := ints
	if u.fl&flFPU != 0 {
		units = fps
	}
	if *units <= 0 {
		return true
	}
	*units--
	u.issued = true
	u.executing = true
	u.issueC = c.stats.Cycles
	u.remaining = int32(c.latencyFor(u.inst.Op))
	c.pushExq(u)
	return false
}

// issueMem advances a memory uop through agen → translate → (cached loads
// only) cache access. Retire-executed memory ops stop after translation.
// It reports whether u still has issue-stage work.
func (c *CPU) issueMem(u *uop, agus, ports *int) bool {
	if !u.agenDone {
		if *agus <= 0 || !u.addrSrcReady() {
			return true
		}
		*agus--
		u.agenDone = true
		u.issueC = c.stats.Cycles
		u.va = u.val1() + uint64(u.inst.Imm)
		c.translate(u)
		// A translated retire-executed op is finished here. Anything else
		// continues next cycle; a faulted op is marked done then.
		return !u.addrReady || u.faulted || !u.needsRetireExec()
	}
	if !u.addrReady {
		return true // translation walk in progress (executeAdvance counts it down)
	}
	if u.faulted {
		// Wrong-path garbage addresses land here routinely; mark the uop
		// complete so dependents unblock. If it reaches retire alive, the
		// fault is taken there.
		u.result = 0
		c.markDone(u)
		return false
	}
	if u.needsRetireExec() {
		return false
	}
	switch u.inst.Op.Class() {
	case isa.ClassLoad: // cached load
		if u.memWait {
			return true // fill in flight; the access restarts once it lands
		}
		if *ports <= 0 || !c.orderingSafe(u) {
			return true
		}
		*ports--
		c.startCachedLoad(u)
		return !u.executing // a miss or refused access retries later
	case isa.ClassStore: // cached store: complete when data is ready
		if !u.dataSrcReady() {
			return true
		}
		c.markDone(u)
	}
	return false
}

// startCachedLoad issues u's cache access. The fill callback's capture of
// u is pin-counted: u.pins keeps the uop off the free list until the
// callback has run (see recycleRetired).
//
//csb:pool
func (c *CPU) startCachedLoad(u *uop) {
	u.pins++ // the fill callback captures u; see recycleRetired
	lat, hit, accepted := c.hier.Load(u.pa, false, c.fillCallback(u))
	if hit || !accepted {
		u.pins-- // callback not retained
	}
	if !accepted {
		return // MSHRs full; retry next cycle
	}
	if hit {
		u.memIssued = true
		u.executing = true
		u.remaining = int32(lat)
		c.pushExq(u)
		return
	}
	u.memWait = true // fill in progress; re-access on completion
}

// translate resolves u.va via the TLB/page table.
func (c *CPU) translate(u *uop) {
	if c.pt == nil {
		// Bare machine: identity mapping, everything cached.
		u.pa = u.va
		u.kind = mem.KindCached
		u.addrReady = true
		return
	}
	asid := c.arch.PID()
	if pte, ok := c.tlb.Lookup(u.va, asid); ok {
		c.finishTranslate(u, pte)
		return
	}
	// Hardware walk; a zero-latency walk completes on the spot.
	if c.cfg.TLBWalkLatency == 0 {
		c.finishWalk(u)
		return
	}
	u.walkStarted = true
	u.translating = int32(c.cfg.TLBWalkLatency)
	c.pushExq(u)
}

func (c *CPU) finishWalk(u *uop) {
	pte, ok := c.pt.Lookup(u.va)
	if !ok {
		u.faulted = true
		u.addrReady = true
		return
	}
	c.tlb.Insert(u.va, c.arch.PID(), pte)
	c.finishTranslate(u, pte)
}

func (c *CPU) finishTranslate(u *uop, pte mem.PTE) {
	if u.fl&flStore != 0 && !pte.Writable {
		u.faulted = true
		u.addrReady = true
		return
	}
	u.pa = pte.PFN<<mem.PageBits | u.va&(mem.PageSize-1)
	u.kind = pte.Kind
	u.addrReady = true
}

// orderingSafe reports whether a cached load may execute: no older store
// with an unknown or overlapping address, and no older barrier.
func (c *CPU) orderingSafe(u *uop) bool {
	size := uint64(u.inst.Op.MemBytes())
	for _, x := range c.rob {
		if x == u {
			return true
		}
		if x.inst.Op == isa.OpMEMBAR {
			return false
		}
		if x.fl&flStore == 0 {
			continue
		}
		if !x.addrReady {
			return false
		}
		xsize := uint64(x.inst.Op.MemBytes())
		if x.pa < u.pa+size && u.pa < x.pa+xsize {
			return false
		}
	}
	return true
}

// ---- execute ----

// executeAdvance counts down every uop in the execute queue, oldest first,
// and compacts the queue in place to the uops still counting. The length
// is re-read each iteration: a mispredicted branch's squash pops the
// younger, not yet visited entries off the tail.
//
//csb:hotpath
func (c *CPU) executeAdvance() {
	n := 0
	for i := 0; i < len(c.exq); i++ {
		u := c.exq[i]
		if c.advance(u) {
			c.exq[n] = u
			n++
		}
	}
	c.exq = c.exq[:n]
}

// advance runs one cycle of u's TLB walk or execution latency and
// completes it when the count reaches zero. It reports whether u is
// still counting.
func (c *CPU) advance(u *uop) bool {
	if u.walkStarted {
		u.translating--
		if u.translating > 0 {
			return true
		}
		u.walkStarted = false
		c.finishWalk(u)
		return false
	}
	u.remaining--
	if u.remaining > 0 {
		return true
	}
	u.executing = false
	if u.isMem() {
		c.completeCachedLoad(u)
		return false
	}
	c.execute(u)
	if u.isBranch() {
		c.resolveBranch(u)
	}
	return false
}

func (c *CPU) completeCachedLoad(u *uop) {
	size := u.inst.Op.MemBytes()
	u.result = c.ram.ReadUint(u.pa, size)
	c.markDone(u)
	c.stats.CachedLoads++
}

func (c *CPU) resolveBranch(u *uop) {
	c.stats.Branches++
	c.branchCount--
	if u.inst.Op == isa.OpBR {
		taken := u.actualNext != u.pc+4
		c.pred.update(u.pc, taken)
	}
	if u.actualNext == u.predNext {
		return
	}
	if u.inst.Op == isa.OpJALR {
		// Not a misprediction: fetch was stalled waiting for the target.
		c.squashAfter(u)
		c.pc = u.actualNext
		c.fetchBlocked = false
		return
	}
	c.stats.Mispredicts++
	c.squashAfter(u)
	c.pc = u.actualNext
	c.fetchBlocked = false
	// ROB-empty cycles until the refetched path reaches dispatch are the
	// squash penalty, not generic frontend starvation.
	c.squashRefill = true
}

// squashAfter kills everything younger than u and rebuilds the rename
// maps from the surviving ROB.
func (c *CPU) squashAfter(u *uop) {
	idx := -1
	for i, x := range c.rob {
		if x == u {
			idx = i
			break
		}
	}
	if idx < 0 {
		return
	}
	// Pop the killed uops off the scheduling queues first: their slots go
	// back to the free list below. executeAdvance may be mid-walk over exq
	// at u's own index; everything it has not visited yet is younger.
	c.iq = dropYounger(c.iq, u.seq)
	c.woken = dropYounger(c.woken, u.seq)
	c.exq = dropYounger(c.exq, u.seq)
	for _, x := range c.rob[idx+1:] {
		c.killUop(x)
	}
	c.stats.Squashed += uint64(len(c.rob) - idx - 1 + len(c.fetchQ))
	c.rob = c.rob[:idx+1]
	// Killed uops may be parked on survivors. Unlink them now, before
	// fetch reuses their slots.
	for _, x := range c.rob {
		if x.waiters != nil {
			dropDeadWaiters(x)
		}
	}
	c.recycleFetchQ()
	c.fetchGen++
	c.icacheMiss = false // a fill for the squashed stream no longer matters
	// Each register's producer is its youngest writer among the
	// survivors, u included: replaying their destinations oldest first
	// leaves exactly that. A register no survivor writes reads the
	// architectural file, where every older producer has retired to.
	c.intRen = [isa.NumRegs]*uop{}
	c.fpRen = [isa.NumFRegs]*uop{}
	c.ccRen = nil
	for _, x := range c.rob {
		c.mapDests(x)
	}
}

// recycleFetchQ kills and immediately recycles the fetch queue: its uops
// are not yet renamed, so nothing can reference them.
func (c *CPU) recycleFetchQ() {
	for _, x := range c.fetchQ {
		x.dead = true
		c.uopFree = append(c.uopFree, x)
	}
	c.fetchQ = c.fetchQ[:0]
}

// killUop squashes an in-flight uop. Its callers truncate the ROB window
// right after, so the ROB never holds a dead uop. Squashed uops become
// unreachable at that moment (references only ever point from younger to
// older, and everything younger dies with them; squashAfter unlinks them
// from the survivors' wakeup lists), so the slot is recycled immediately —
// unless an outstanding callback still pins it.
//
//csb:pool
func (c *CPU) killUop(x *uop) {
	x.dead = true
	if x.isBranch() && !x.resolved {
		c.branchCount--
	}
	if x.isMem() {
		c.memCount--
	}
	if x.pins == 0 {
		c.uopFree = append(c.uopFree, x)
	}
}

// flushAll empties the entire pipeline (interrupts, IRET, kernel entry).
func (c *CPU) flushAll() {
	for _, x := range c.rob {
		c.killUop(x)
	}
	c.stats.Squashed += uint64(len(c.rob) + len(c.fetchQ))
	c.rob = c.rob[:0]
	// Wakeup lists die with their uops: newUop zeroes a recycled slot.
	c.iq = c.iq[:0]
	c.woken = c.woken[:0]
	c.exq = c.exq[:0]
	c.recycleFetchQ()
	c.intRen = [isa.NumRegs]*uop{}
	c.fpRen = [isa.NumFRegs]*uop{}
	c.ccRen = nil
	c.branchCount = 0
	c.memCount = 0
	c.fetchBlocked = false
	c.fetchGen++
	c.squashRefill = false
	c.icacheMiss = false
	c.asleep = false
}
