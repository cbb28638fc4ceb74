package bench

import (
	"slices"
	"strings"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/bus"
)

// These tests assert the paper's qualitative findings hold in the
// reproduction — they are the executable form of EXPERIMENTS.md.

func measure(t *testing.T, p MachineParams, size int) float64 {
	t.Helper()
	bw, err := MeasureBandwidth(p, size)
	if err != nil {
		t.Fatalf("%v (scheme %s, %dB)", err, p.Scheme, size)
	}
	return bw
}

func approx(got, want, tol float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	return d <= tol
}

// §4.3.1: "without any combining, the bandwidth is independent of the
// total amount of data transferred … the effective bus bandwidth is 4
// bytes per bus cycle, which is half of the peak bandwidth."
func TestNonCombiningFlatAtHalfPeak(t *testing.T) {
	p := DefaultParams()
	p.Scheme = 0
	for _, size := range []int{16, 64, 256, 1024} {
		if bw := measure(t, p, size); !approx(bw, 4.0, 0.01) {
			t.Errorf("no-combine at %dB = %.2f B/cyc, want 4.0", size, bw)
		}
	}
}

// §4.3.1: "For small data transfers of 16 bytes, combining has no effect
// because the first store leaves the buffer before the second is issued."
func TestSixteenByteTransfersDefeatCombining(t *testing.T) {
	for _, scheme := range []Scheme{0, 16, 32, 64} {
		p := DefaultParams()
		p.Scheme = scheme
		if bw := measure(t, p, 16); !approx(bw, 4.0, 0.01) {
			t.Errorf("%s at 16B = %.2f, want 4.0 (no combining effect)", scheme, bw)
		}
	}
}

// The CSB always issues full-line bursts: 64B over 9 bus cycles = 7.11
// B/cyc for line-sized and larger transfers; smaller transfers are
// penalized by the padded burst (16 useful bytes / 9 cycles = 1.78).
func TestCSBFullLineBurstBandwidth(t *testing.T) {
	p := DefaultParams()
	p.Scheme = SchemeCSB
	if bw := measure(t, p, 64); !approx(bw, 64.0/9, 0.01) {
		t.Errorf("CSB at 64B = %.2f, want %.2f", bw, 64.0/9)
	}
	if bw := measure(t, p, 1024); !approx(bw, 64.0/9, 0.05) {
		t.Errorf("CSB at 1KB = %.2f, want %.2f", bw, 64.0/9)
	}
	if bw := measure(t, p, 16); !approx(bw, 16.0/9, 0.01) {
		t.Errorf("CSB at 16B = %.2f, want %.2f (padded-line penalty)", bw, 16.0/9)
	}
}

// §4.3.1: "The conditional store buffer clearly has the greatest advantage
// over all other schemes for transfer sizes of about a cache line" and
// beyond.
func TestCSBWinsAtLineSizeAndAbove(t *testing.T) {
	for _, size := range []int{64, 128, 256, 512, 1024} {
		pCSB := DefaultParams()
		pCSB.Scheme = SchemeCSB
		csb := measure(t, pCSB, size)
		for _, scheme := range []Scheme{0, 16, 32, 64} {
			p := DefaultParams()
			p.Scheme = scheme
			if other := measure(t, p, size); other >= csb {
				t.Errorf("at %dB: %s (%.2f) >= CSB (%.2f)", size, scheme, other, csb)
			}
		}
	}
}

// §4.3.1: "increasing the cache line size pushes the crossover point
// between the CSB and other schemes towards larger transfers."
func TestLargerLinesMoveCrossoverRight(t *testing.T) {
	crossover := func(line int) int {
		for _, size := range TransferSizes {
			pC := DefaultParams()
			pC.LineSize = line
			pC.Scheme = SchemeCSB
			csb := measure(t, pC, size)
			best := 0.0
			for _, scheme := range Schemes(line)[:len(Schemes(line))-1] {
				p := DefaultParams()
				p.LineSize = line
				p.Scheme = scheme
				if bw := measure(t, p, size); bw > best {
					best = bw
				}
			}
			if csb >= best {
				return size
			}
		}
		return 1 << 20
	}
	c32 := crossover(32)
	c128 := crossover(128)
	if c32 > c128 {
		t.Errorf("crossover at 32B line (%d) > at 128B line (%d)", c32, c128)
	}
	if c128 < 128 {
		t.Errorf("128B-line crossover %d below one line", c128)
	}
}

// §4.3.1 (fig 3g): with a turnaround cycle "the CSB bandwidth surpasses
// all other schemes for even shorter transfers."
func TestTurnaroundFavorsCSBEarlier(t *testing.T) {
	at32 := func(turnaround int) (csb, best float64) {
		pC := DefaultParams()
		pC.Bus.Turnaround = turnaround
		pC.Scheme = SchemeCSB
		csb = measure(t, pC, 32)
		for _, scheme := range []Scheme{0, 16, 32, 64} {
			p := DefaultParams()
			p.Bus.Turnaround = turnaround
			p.Scheme = scheme
			if bw := measure(t, p, 32); bw > best {
				best = bw
			}
		}
		return csb, best
	}
	csb0, best0 := at32(0)
	csb1, best1 := at32(1)
	adv0 := csb0 - best0
	adv1 := csb1 - best1
	if adv1 <= adv0 {
		t.Errorf("turnaround should improve the CSB's relative position at 32B: %+.2f -> %+.2f", adv0, adv1)
	}
}

// §4.3.1 (fig 3h): an 8-cycle burst completely overlaps a 4-cycle ack
// delay, so the CSB is unaffected while short transactions suffer.
func TestAckDelayHurtsShortTransactionsOnly(t *testing.T) {
	pNo := DefaultParams()
	pNo.Scheme = 0
	base := measure(t, pNo, 256)
	pNo.Bus.AckDelay = 4
	delayed := measure(t, pNo, 256)
	if !(delayed < base) {
		t.Errorf("ack delay did not hurt single-beat stores: %.2f -> %.2f", base, delayed)
	}
	pC := DefaultParams()
	pC.Scheme = SchemeCSB
	csbBase := measure(t, pC, 256)
	pC.Bus.AckDelay = 4
	csbDelayed := measure(t, pC, 256)
	if !approx(csbBase, csbDelayed, 0.05) {
		t.Errorf("4-cycle ack delay should be hidden by 9-cycle bursts: %.2f -> %.2f", csbBase, csbDelayed)
	}
}

// Fig 4(a): on a 256-bit split bus, a 64B burst takes 2 cycles — the same
// as two dword stores — so peak CSB bandwidth is 32 B/cyc and
// non-combining is 8 B/cyc (one dword per cycle).
func TestSplitBusWastedWidth(t *testing.T) {
	p := DefaultParams()
	p.Bus.Model = bus.Split
	p.Bus.WidthBytes = 32
	p.Scheme = 0
	if bw := measure(t, p, 1024); !approx(bw, 8.0, 0.01) {
		t.Errorf("no-combine on 256-bit split = %.2f, want 8.0", bw)
	}
	p.Scheme = SchemeCSB
	// Peak would be 32 B/cyc (64B line / 2 cycles); the core-side cost of
	// eight stores plus a flush per line keeps it slightly below on so
	// fast a bus, as in the paper's fig 4(a).
	if bw := measure(t, p, 1024); bw < 28 || bw > 32 {
		t.Errorf("CSB on 256-bit split = %.2f, want 28..32", bw)
	}
}

// Fig 5 slopes: locking costs ~2 bus cycles (= 2*ratio CPU cycles) per
// doubleword because the lock releases only after the buffer drains; the
// CSB costs ~1 CPU cycle per doubleword.
func TestLockVsCSBSlopes(t *testing.T) {
	slope := func(scheme Scheme) float64 {
		p := DefaultParams()
		p.Scheme = scheme
		c2, err := MeasureLockLatency(p, 2, true)
		if err != nil {
			t.Fatal(err)
		}
		c8, err := MeasureLockLatency(p, 8, true)
		if err != nil {
			t.Fatal(err)
		}
		return (c8 - c2) / 6
	}
	if s := slope(0); !approx(s, 12, 1.5) {
		t.Errorf("lock+no-combine slope = %.1f cycles/dword, want ~12", s)
	}
	if s := slope(SchemeCSB); !approx(s, 1, 0.5) {
		t.Errorf("CSB slope = %.1f cycles/dword, want ~1", s)
	}
}

// Fig 5(b) against 5(a): a lock miss adds the miss latency to every
// lock row, exactly 102 cycles at every transfer size except combine-64
// from 48 B up, where it adds 96, while the CSB (no lock at all) is
// unaffected.
func TestLockMissPenalty(t *testing.T) {
	hit, err := Figure5(true)
	if err != nil {
		t.Fatal(err)
	}
	miss, err := Figure5(false)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][]float64{
		"lock+no-combine": {102, 102, 102, 102, 102, 102, 102},
		"lock+combine-16": {102, 102, 102, 102, 102, 102, 102},
		"lock+combine-32": {102, 102, 102, 102, 102, 102, 102},
		"lock+combine-64": {102, 102, 102, 102, 96, 96, 96},
		"CSB":             {0, 0, 0, 0, 0, 0, 0},
	}
	if len(hit.Series) != len(want) || len(miss.Series) != len(want) {
		t.Fatalf("%d and %d series, want %d", len(hit.Series), len(miss.Series), len(want))
	}
	for si, h := range hit.Series {
		m := miss.Series[si]
		var got []float64
		for xi := range h.Y {
			got = append(got, m.Y[xi]-h.Y[xi])
		}
		if h.Name != m.Name || !slices.Equal(got, want[h.Name]) {
			t.Errorf("%s: 5b-5a penalty %v (5b row %s), want %v", h.Name, got, m.Name, want[h.Name])
		}
	}
}

// CSB beats every locking scheme at every size, dramatically on a miss.
func TestCSBDominatesLocking(t *testing.T) {
	for _, hit := range []bool{true, false} {
		for _, n := range []int{2, 8} {
			pC := DefaultParams()
			pC.Scheme = SchemeCSB
			csb, err := MeasureLockLatency(pC, n, hit)
			if err != nil {
				t.Fatal(err)
			}
			p := DefaultParams()
			p.Scheme = 0
			lock, err := MeasureLockLatency(p, n, hit)
			if err != nil {
				t.Fatal(err)
			}
			if csb >= lock {
				t.Errorf("hit=%v n=%d: CSB %.0f >= lock %.0f", hit, n, csb, lock)
			}
		}
	}
}

// X1: the double-buffered CSB removes the issue-side stall that the
// single-entry design suffers from the third back-to-back sequence on
// (§3.2: "avoid program stalls awaiting the completion of the conditional
// flush"); steady-state bandwidth is unchanged because the bus remains
// the bottleneck.
func TestDoubleBufferHelpsStreams(t *testing.T) {
	single := DefaultParams()
	single.Scheme = SchemeCSB
	double := single
	double.DoubleBufferedCSB = true
	s3, err := MeasureCSBIssueOverhead(single, 3)
	if err != nil {
		t.Fatal(err)
	}
	d3, err := MeasureCSBIssueOverhead(double, 3)
	if err != nil {
		t.Fatal(err)
	}
	if d3 >= s3 {
		t.Errorf("double buffer should cut issue overhead at 3 lines: %.0f >= %.0f", d3, s3)
	}
	ms := measure(t, single, 1024)
	md := measure(t, double, 1024)
	if !approx(ms, md, 0.01) {
		t.Errorf("bandwidth should be bus-bound either way: %.2f vs %.2f", ms, md)
	}
}

// X4: R10000-style strictly-sequential combining collapses on shuffled
// store order while anywhere-in-block combining keeps most of its benefit.
func TestR10KCombiningFailsOnShuffledOrder(t *testing.T) {
	anyOrder := DefaultParams()
	anyOrder.Scheme = Scheme(64)
	seq := anyOrder
	seq.SequentialCombining = true
	a, err := measureShuffledBandwidth(anyOrder, 512)
	if err != nil {
		t.Fatal(err)
	}
	s, err := measureShuffledBandwidth(seq, 512)
	if err != nil {
		t.Fatal(err)
	}
	if s >= a {
		t.Errorf("sequential-only (%.2f) should lose to any-order (%.2f) on shuffled stores", s, a)
	}
	if !approx(s, 4.0, 0.3) {
		t.Errorf("sequential-only on shuffled order = %.2f, want ~4 (no combining)", s)
	}
}

// X2: DMA's CPU overhead is near-flat; CSB PIO's grows far slower than
// plain PIO's; CSB has the lowest wire latency at every size.
func TestPIOvsDMAShapes(t *testing.T) {
	p := DefaultParams()
	type point struct{ wire, overhead float64 }
	get := func(m SendMethod, size int) point {
		w, o, err := MeasureMessageSend(p, m, size)
		if err != nil {
			t.Fatal(err)
		}
		return point{w, o}
	}
	dmaSmall, dmaBig := get(SendDMA, 16), get(SendDMA, 1024)
	pioSmall, pioBig := get(SendPIO, 16), get(SendPIO, 1024)
	csbSmall, csbBig := get(SendCSB, 16), get(SendCSB, 1024)

	if dmaBig.overhead-dmaSmall.overhead > 200 {
		t.Errorf("DMA overhead not flat: %.0f -> %.0f", dmaSmall.overhead, dmaBig.overhead)
	}
	pioGrowth := pioBig.overhead - pioSmall.overhead
	csbGrowth := csbBig.overhead - csbSmall.overhead
	if csbGrowth >= pioGrowth {
		t.Errorf("CSB overhead growth (%.0f) should beat plain PIO (%.0f)", csbGrowth, pioGrowth)
	}
	for _, size := range []int{64, 256, 1024} {
		csb := get(SendCSB, size)
		if pio := get(SendPIO, size); csb.wire >= pio.wire {
			t.Errorf("at %dB: CSB wire %.0f >= PIO %.0f", size, csb.wire, pio.wire)
		}
		if dma := get(SendDMA, size); csb.wire >= dma.wire {
			t.Errorf("at %dB: CSB wire %.0f >= DMA %.0f", size, csb.wire, dma.wire)
		}
	}
}

// ---- workload generator sanity ----

func TestStoreBandwidthProgramAssembles(t *testing.T) {
	for _, size := range TransferSizes {
		for _, line := range []int{32, 64, 128} {
			for _, csb := range []bool{false, true} {
				src := StoreBandwidthProgram(size, line, csb)
				if _, err := asm.Assemble("w.s", src); err != nil {
					t.Errorf("size %d line %d csb %v: %v", size, line, csb, err)
				}
			}
		}
	}
}

func TestStoreBandwidthProgramStoreCount(t *testing.T) {
	src := StoreBandwidthProgram(256, 64, false)
	// 256B in 64B lines → loop of 4 iterations with 8 std each.
	if got := strings.Count(src, "std "); got != 8 {
		t.Errorf("std count = %d, want 8 (one unrolled line)", got)
	}
	if !strings.Contains(src, "set 4, %g2") {
		t.Error("expected 4 loop iterations")
	}
	small := StoreBandwidthProgram(16, 64, false)
	if got := strings.Count(small, "std "); got != 2 {
		t.Errorf("16B program std count = %d, want 2", got)
	}
}

func TestLockProgramsAssemble(t *testing.T) {
	for n := 2; n <= 8; n++ {
		if _, err := asm.Assemble("l.s", LockSequenceProgram(n)); err != nil {
			t.Errorf("lock n=%d: %v", n, err)
		}
		if _, err := asm.Assemble("c.s", CSBSequenceProgram(n)); err != nil {
			t.Errorf("csb n=%d: %v", n, err)
		}
	}
	if _, err := asm.Assemble("p.s", LockPrologueProgram()); err != nil {
		t.Error(err)
	}
}

func TestShuffleOrderIsPermutation(t *testing.T) {
	for n := 1; n <= 16; n++ {
		seen := make([]bool, n)
		for _, i := range shuffleOrder(n) {
			if i < 0 || i >= n || seen[i] {
				t.Fatalf("n=%d: bad permutation %v", n, shuffleOrder(n))
			}
			seen[i] = true
		}
		for i, s := range seen {
			if !s {
				t.Fatalf("n=%d: index %d missing", n, i)
			}
		}
	}
}

func TestSchemesList(t *testing.T) {
	got := Schemes(64)
	want := []Scheme{0, 16, 32, 64, SchemeCSB}
	if len(got) != len(want) {
		t.Fatalf("Schemes(64) = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Schemes(64)[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if s := Schemes(128); len(s) != 6 || s[4] != Scheme(128) {
		t.Errorf("Schemes(128) = %v", s)
	}
}

func TestSchemeString(t *testing.T) {
	if SchemeCSB.String() != "CSB" || Scheme(0).String() != "no-combine" || Scheme(32).String() != "combine-32" {
		t.Error("Scheme.String wrong")
	}
}

func TestFormatTable(t *testing.T) {
	r := Result{
		ID: "t", Title: "test", XLabel: "x", YLabel: "y",
		X:      []string{"16B", "32B"},
		Series: []Series{{Name: "a", Y: []float64{1.5, 2.5}}},
	}
	out := Format(r)
	for _, want := range []string{"Figure t", "16B", "32B", "a", "1.50", "2.50"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
	csv := FormatCSV(r)
	if !strings.Contains(csv, "a,1.5000,2.5000") {
		t.Errorf("CSV wrong:\n%s", csv)
	}
}

func TestByIDUnknown(t *testing.T) {
	if _, err := ByID("9z"); err == nil {
		t.Error("unknown figure accepted")
	}
}

// X6: lock-free CSB access to a shared device beats lock-based access
// under preemption, and degrades far less as quanta shrink (§5).
func TestSharedNICLockFreeBeatsLocking(t *testing.T) {
	const msgs = 10
	lockShort, err := MeasureSharedNIC(false, msgs, 400)
	if err != nil {
		t.Fatal(err)
	}
	csbShort, err := MeasureSharedNIC(true, msgs, 400)
	if err != nil {
		t.Fatal(err)
	}
	if lockShort.Packets != 2*msgs || csbShort.Packets != 2*msgs {
		t.Fatalf("packets: lock %d, csb %d", lockShort.Packets, csbShort.Packets)
	}
	if csbShort.Cycles >= lockShort.Cycles {
		t.Errorf("CSB (%d cycles) should beat locking (%d) at quantum 400",
			csbShort.Cycles, lockShort.Cycles)
	}
	// Sensitivity to quantum: locking suffers much more from short slices.
	lockLong, err := MeasureSharedNIC(false, msgs, 3200)
	if err != nil {
		t.Fatal(err)
	}
	csbLong, err := MeasureSharedNIC(true, msgs, 3200)
	if err != nil {
		t.Fatal(err)
	}
	lockDegradation := float64(lockShort.Cycles) / float64(lockLong.Cycles)
	csbDegradation := float64(csbShort.Cycles) / float64(csbLong.Cycles)
	if csbDegradation >= lockDegradation {
		t.Errorf("CSB degradation %.2fx should be below locking's %.2fx",
			csbDegradation, lockDegradation)
	}
}

// X7 (§4.3.2 discussion): "Experiments with a 2-way and 8-way superscalar
// CPU did not change the lock overhead at all, because of the short data
// and control dependencies." Core width must leave the lock latency
// essentially unchanged.
func TestLockOverheadInsensitiveToCoreWidth(t *testing.T) {
	lat := func(width, n int) float64 {
		p := DefaultParams()
		p.CoreWidth = width
		c, err := MeasureLockLatency(p, n, true)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	for _, n := range []int{2, 8} {
		w2 := lat(2, n)
		w4 := lat(4, n)
		w8 := lat(8, n)
		// The sequence is dependence-bound: allow only a handful of
		// cycles of spread across a 4x width range.
		if !approx(w2, w8, 8) || !approx(w4, w8, 8) {
			t.Errorf("n=%d: lock latency varies with width: 2-way %.0f, 4-way %.0f, 8-way %.0f",
				n, w2, w4, w8)
		}
	}
	// Sanity: width does matter for ILP-rich code — the bandwidth
	// microbenchmark's issue loop — so the knob itself works.
	p2 := DefaultParams()
	p2.CoreWidth = 2
	p2.Scheme = SchemeCSB
	narrow, err := MeasureCSBIssueOverhead(p2, 8)
	if err != nil {
		t.Fatal(err)
	}
	p8 := p2
	p8.CoreWidth = 8
	wide, err := MeasureCSBIssueOverhead(p8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if wide > narrow {
		t.Errorf("8-way (%.0f cycles) slower than 2-way (%.0f) on the issue loop", wide, narrow)
	}
}

// X8: in the two-node ping-pong, the CSB's advantage over plain PIO is a
// constant overhead term, independent of wire latency, and round-trip
// time grows with twice the wire latency.
func TestPingPongOverheadVsLatency(t *testing.T) {
	rt := func(m SendMethod, wire uint64) float64 {
		v, err := MeasurePingPong(m, 5, wire)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	pioFast, pioSlow := rt(SendPIO, 0), rt(SendPIO, 300)
	csbFast, csbSlow := rt(SendCSB, 0), rt(SendCSB, 300)
	// CSB is faster at both latencies.
	if csbFast >= pioFast || csbSlow >= pioSlow {
		t.Errorf("CSB not faster: %v/%v vs %v/%v", csbFast, csbSlow, pioFast, pioSlow)
	}
	// The gap is (nearly) latency-independent: overhead, not latency.
	gapFast := pioFast - csbFast
	gapSlow := pioSlow - csbSlow
	if !approx(gapFast, gapSlow, 12) {
		t.Errorf("overhead gap changed with latency: %.0f vs %.0f", gapFast, gapSlow)
	}
	// Round trip grows by ~2x the added wire latency.
	growth := pioSlow - pioFast
	if !approx(growth, 600, 60) {
		t.Errorf("RTT growth = %.0f for +300 cycles each way, want ~600", growth)
	}
}

// Smoke-run two complete figure sweeps end to end (the benchmarks run the
// rest; this keeps the figure plumbing under `go test`).
func TestFigureSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full figure sweeps")
	}
	r, err := ByID("3e")
	if err != nil {
		t.Fatal(err)
	}
	if r.ID != "3e" || len(r.Series) != 5 || len(r.X) != len(TransferSizes) {
		t.Errorf("3e shape wrong: %d series, %d x", len(r.Series), len(r.X))
	}
	// The last series must be the CSB per Schemes() ordering.
	if r.Series[len(r.Series)-1].Name != "CSB" {
		t.Errorf("last series = %q", r.Series[len(r.Series)-1].Name)
	}
	x1, err := ByID("X1")
	if err != nil {
		t.Fatal(err)
	}
	if len(x1.Series) != 2 {
		t.Errorf("X1 series = %d", len(x1.Series))
	}
}

func TestFormatBars(t *testing.T) {
	r := Result{
		ID: "t", Title: "bars", XLabel: "size", YLabel: "bw",
		X: []string{"16B"},
		Series: []Series{
			{Name: "a", Y: []float64{4}},
			{Name: "bb", Y: []float64{8}},
		},
	}
	out := FormatBars(r)
	if !strings.Contains(out, "#") || !strings.Contains(out, "8.00") {
		t.Errorf("bars output wrong:\n%s", out)
	}
	// The larger value gets the longer bar.
	lines := strings.Split(out, "\n")
	var aLen, bLen int
	for _, l := range lines {
		if strings.Contains(l, "a ") && strings.Contains(l, "#") {
			aLen = strings.Count(l, "#")
		}
		if strings.Contains(l, "bb") && strings.Contains(l, "#") {
			bLen = strings.Count(l, "#")
		}
	}
	if bLen <= aLen {
		t.Errorf("bar lengths: a=%d bb=%d", aLen, bLen)
	}
}
