package bench

import (
	"fmt"

	"csbsim/internal/bus"
)

// TransferSizes is the x-axis of all bandwidth figures: 16 bytes (two
// doubleword stores) to 1 KB.
var TransferSizes = []int{16, 32, 64, 128, 256, 512, 1024}

// LockTransferDwords is the x-axis of figure 5: 2 to 8 doublewords.
var LockTransferDwords = []int{2, 3, 4, 5, 6, 7, 8}

func sizeLabels() []string {
	out := make([]string, len(TransferSizes))
	for i, s := range TransferSizes {
		out[i] = fmt.Sprintf("%dB", s)
	}
	return out
}

// bandwidthFigures are figures 3(a)-4(e): uncached store bandwidth, one
// machine variation each, every scheme swept over TransferSizes.
//   - 3(a)-(c): an 8-byte multiplexed bus at CPU:bus ratios 2, 4 and 6
//     (32-byte line, no turnaround: peak is one line per 5 bus cycles).
//   - 3(d)-(f): cache line (= CSB burst) size 32, 64 and 128 bytes at
//     ratio 6.
//   - 3(g)-(i): a mandatory turnaround cycle, then selective-flow-control
//     acknowledgment delays of 4 and 8 bus cycles (64-byte line, ratio 6).
//   - 4(a)-(b): a split address/data bus 128 and 256 bits wide (ratio 6,
//     64-byte line, no turnaround).
//   - 4(c)-(e): the 16-byte split bus with a turnaround cycle, then ack
//     min-delays of 4 and 8 cycles.
var bandwidthFigures = []struct {
	id, title string
	p         MachineParams
}{
	{"3a", "multiplexed bus, CPU:bus ratio 2", variant(2, 32, bus.Multiplexed, 8, 0, 0)},
	{"3b", "multiplexed bus, CPU:bus ratio 4", variant(4, 32, bus.Multiplexed, 8, 0, 0)},
	{"3c", "multiplexed bus, CPU:bus ratio 6", variant(6, 32, bus.Multiplexed, 8, 0, 0)},
	{"3d", "multiplexed bus, 32B cache line", variant(6, 32, bus.Multiplexed, 8, 0, 0)},
	{"3e", "multiplexed bus, 64B cache line", variant(6, 64, bus.Multiplexed, 8, 0, 0)},
	{"3f", "multiplexed bus, 128B cache line", variant(6, 128, bus.Multiplexed, 8, 0, 0)},
	{"3g", "multiplexed bus, turnaround cycle after every transaction", variant(6, 64, bus.Multiplexed, 8, 1, 0)},
	{"3h", "multiplexed bus, 4-cycle acknowledgment min-delay", variant(6, 64, bus.Multiplexed, 8, 0, 4)},
	{"3i", "multiplexed bus, 8-cycle acknowledgment min-delay", variant(6, 64, bus.Multiplexed, 8, 0, 8)},
	{"4a", "split bus, 128-bit data path", variant(6, 64, bus.Split, 16, 0, 0)},
	{"4b", "split bus, 256-bit data path", variant(6, 64, bus.Split, 32, 0, 0)},
	{"4c", "split bus, turnaround cycle after every transaction", variant(6, 64, bus.Split, 16, 1, 0)},
	{"4d", "split bus, 4-cycle acknowledgment min-delay", variant(6, 64, bus.Split, 16, 0, 4)},
	{"4e", "split bus, 8-cycle acknowledgment min-delay", variant(6, 64, bus.Split, 16, 0, 8)},
}

// variant is DefaultParams with one figure's bus and line settings.
func variant(ratio, line int, model bus.Model, width, turnaround, ack int) MachineParams {
	p := DefaultParams()
	p.Ratio, p.LineSize = ratio, line
	p.Bus.Model, p.Bus.WidthBytes = model, width
	p.Bus.Turnaround, p.Bus.AckDelay = turnaround, ack
	return p
}

// bandwidthFigure sweeps all schemes over all transfer sizes on one
// machine variation. The (scheme, size) grid runs on the parallel sweep
// pool; each worker resets its machine for every point. The store
// programs are assembled once per figure, one per (size, CSB or not),
// and shared read-only by every point that runs them.
func bandwidthFigure(id, title string, p MachineParams) (Result, error) {
	r := Result{
		ID: id, Title: "uncached store bandwidth, " + title,
		XLabel: "transfer size", YLabel: "bytes per bus cycle",
		X: sizeLabels(),
		Notes: fmt.Sprintf("%s %dB bus, ratio %d, line %dB, turnaround %d, ack delay %d",
			p.Bus.Model, p.Bus.WidthBytes, p.Ratio, p.LineSize, p.Bus.Turnaround, p.Bus.AckDelay),
	}
	// progs[2*xi] stores TransferSizes[xi] without the CSB, progs[2*xi+1]
	// with it.
	var srcs []source
	for _, size := range TransferSizes {
		for _, csb := range []bool{false, true} {
			srcs = append(srcs, source{"bandwidth.s", StoreBandwidthProgram(size, p.LineSize, csb)})
		}
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	schemes := Schemes(p.LineSize)
	ys, err := sweepSeries(len(schemes), len(TransferSizes), func(w *worker, si, xi int) (float64, error) {
		pp := p
		pp.Scheme = schemes[si]
		csb := 0
		if pp.Scheme == SchemeCSB {
			csb = 1
		}
		bw, err := measureStoreStream(w, pp, progs[2*xi+csb], TransferSizes[xi])
		if err != nil {
			return 0, fmt.Errorf("figure %s %s %dB: %w", id, schemes[si], TransferSizes[xi], err)
		}
		return bw, nil
	})
	if err != nil {
		return r, err
	}
	for si, scheme := range schemes {
		r.Series = append(r.Series, Series{Name: scheme.String(), Y: ys[si]})
	}
	return r, nil
}

// Figure5 regenerates figure 5: CPU cycles for a lock-access-unlock
// sequence under each combining scheme versus the CSB, for 2-8 doubleword
// transfers. lockHit selects figure 5(a) (lock hits in L1) or 5(b) (lock
// misses).
func Figure5(lockHit bool) (Result, error) {
	id, what := "5a", "lock hits in L1"
	if !lockHit {
		id, what = "5b", "lock misses in L1"
	}
	p := DefaultParams()
	r := Result{
		ID: id, Title: "locking vs conditional store buffer, " + what,
		XLabel: "transfer size", YLabel: "CPU cycles",
		Notes: fmt.Sprintf("%s %dB bus, ratio %d, line %dB",
			p.Bus.Model, p.Bus.WidthBytes, p.Ratio, p.LineSize),
	}
	for _, n := range LockTransferDwords {
		r.X = append(r.X, fmt.Sprintf("%dB", n*8))
	}
	// Each distinct program is assembled once and shared read-only:
	// progs[0] is the prologue, progs[1+xi] the lock sequence and
	// progs[1+nx+xi] the CSB sequence for LockTransferDwords[xi].
	nx := len(LockTransferDwords)
	srcs := []source{{"lock.s", LockPrologueProgram()}}
	for _, s := range []Scheme{0, SchemeCSB} {
		for _, n := range LockTransferDwords {
			srcs = append(srcs, source{"lock.s", lockSequenceProgram(s, n)})
		}
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	// Each series' prologue baseline is measured once, not per point.
	schemes := Schemes(p.LineSize)
	bases, err := sweep(schemes, 0, func(w *worker, s Scheme) (uint64, error) {
		pp := p
		pp.Scheme = s
		base, err := runLock(w, pp, progs[0], lockHit)
		if err != nil {
			return 0, fmt.Errorf("figure %s %s prologue: %w", id, s, err)
		}
		return base, nil
	})
	if err != nil {
		return r, err
	}
	ys, err := sweepSeries(len(schemes), nx, func(w *worker, si, xi int) (float64, error) {
		pp := p
		pp.Scheme = schemes[si]
		prog := progs[1+xi]
		if pp.Scheme == SchemeCSB {
			prog = progs[1+nx+xi]
		}
		full, err := runLock(w, pp, prog, lockHit)
		var cycles float64
		if err == nil {
			cycles, err = lockLatency(full, bases[si])
		}
		if err != nil {
			return 0, fmt.Errorf("figure %s %s n=%d: %w", id, schemes[si], LockTransferDwords[xi], err)
		}
		return cycles, nil
	})
	if err != nil {
		return r, err
	}
	for si, scheme := range schemes {
		name := "lock+" + scheme.String()
		if scheme == SchemeCSB {
			name = "CSB"
		}
		r.Series = append(r.Series, Series{Name: name, Y: ys[si]})
	}
	return r, nil
}

// AblationDoubleBuffer measures what the second line buffer of §3.2
// actually buys: it lets the program keep combining while earlier flushes
// still wait for the system interface, i.e. it removes issue-side stalls.
// Steady-state *bandwidth* is identical (the bus drains lines slower than
// the core fills them in either configuration), so the metric here is the
// CPU cycles the core needs to hand N back-to-back line sequences to the
// CSB and move on.
func AblationDoubleBuffer() (Result, error) {
	counts := []int{1, 2, 3, 4, 6, 8}
	r := Result{
		ID: "X1", Title: "CSB single vs double line buffer: issue-side stalls",
		XLabel: "back-to-back line sequences", YLabel: "CPU cycles until core is free",
		Notes: "8-byte multiplexed bus, ratio 6; bursts drain in the background afterwards",
	}
	// Both variants run the same program for a count: progs[xi] issues
	// counts[xi] lines.
	p := DefaultParams()
	p.Scheme = SchemeCSB
	srcs := make([]source, len(counts))
	for xi, n := range counts {
		r.X = append(r.X, fmt.Sprintf("%d", n))
		srcs[xi] = source{"issue.s", issueProgram(n, p.LineSize)}
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	variants := []bool{false, true} // single-, then double-buffered
	ys, err := sweepSeries(len(variants), len(counts), func(w *worker, si, xi int) (float64, error) {
		pp := p
		pp.DoubleBufferedCSB = variants[si]
		return csbIssueOverhead(w, pp, progs[xi])
	})
	if err != nil {
		return r, err
	}
	for si, double := range variants {
		name := "single-buffer"
		if double {
			name = "double-buffer"
		}
		r.Series = append(r.Series, Series{Name: name, Y: ys[si]})
	}
	return r, nil
}

// AblationR10KCombining compares anywhere-in-block combining against the
// R10000's strictly-sequential detection when the store order within each
// line is shuffled (the failure mode §6 describes).
func AblationR10KCombining() (Result, error) {
	r := Result{
		ID: "X4", Title: "block combining vs R10000 sequential-only combining, shuffled store order",
		XLabel: "transfer size", YLabel: "bytes per bus cycle",
		X:     sizeLabels(),
		Notes: "stores within each line issue in a fixed shuffled order",
	}
	// Both variants run the same program for a size: progs[xi] stores
	// TransferSizes[xi].
	p := DefaultParams()
	p.Scheme = Scheme(64)
	srcs := make([]source, len(TransferSizes))
	for xi, size := range TransferSizes {
		srcs[xi] = source{"shuffled.s", ShuffledStoreProgram(size, p.LineSize)}
	}
	progs, err := assembleEach(srcs)
	if err != nil {
		return r, err
	}
	variants := []bool{false, true} // any-order, then sequential-only
	ys, err := sweepSeries(len(variants), len(TransferSizes), func(w *worker, si, xi int) (float64, error) {
		pp := p
		pp.SequentialCombining = variants[si]
		return measureStoreStream(w, pp, progs[xi], TransferSizes[xi])
	})
	if err != nil {
		return r, err
	}
	for si, seq := range variants {
		name := "combine-64 (any order)"
		if seq {
			name = "combine-64 (R10K sequential)"
		}
		r.Series = append(r.Series, Series{Name: name, Y: ys[si]})
	}
	return r, nil
}

// All regenerates every paper figure in order: 3(a)-4(e), then 5(a) and
// 5(b).
func All() ([]Result, error) {
	var out []Result
	for _, f := range bandwidthFigures {
		r, err := bandwidthFigure(f.id, f.title, f.p)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	for _, hit := range []bool{true, false} {
		r, err := Figure5(hit)
		if err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// ByID regenerates one figure ("3a".."3i", "4a".."4e", "5a", "5b", "X1",
// "X2", "X2L", "X4", "X6", "X8").
func ByID(id string) (Result, error) {
	for _, f := range bandwidthFigures {
		if f.id == id {
			return bandwidthFigure(f.id, f.title, f.p)
		}
	}
	switch id {
	case "5a":
		return Figure5(true)
	case "5b":
		return Figure5(false)
	case "X1":
		return AblationDoubleBuffer()
	case "X2":
		return ExtensionPIOvsDMA()
	case "X2L":
		return ExtensionPIOvsDMALatency()
	case "X4":
		return AblationR10KCombining()
	case "X6":
		return ExtensionSharedNIC()
	case "X8":
		return ExtensionPingPong()
	}
	return Result{}, fmt.Errorf("bench: unknown figure %q", id)
}
