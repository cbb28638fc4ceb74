package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"testing"

	"csbsim/internal/asm"
	"csbsim/internal/fault"
	"csbsim/internal/mem"
	"csbsim/internal/obs/rec"
)

// resetPoint prepares a new or reset machine for one input and runs it
// to the end, returning the run's error.
type resetPoint struct {
	name string
	cfg  Config
	run  func(t *testing.T, m *Machine) error
}

// observedRun runs p on m with the counter registry, the journey tracer
// and a flight recorder (1000-cycle windows, the pipeline tail attached)
// and returns everything the run shows: its error, the Stats JSON with
// the counter snapshot, the console, the diagnostic dump of the final
// state and the recording.
func observedRun(t *testing.T, m *Machine, p resetPoint) []byte {
	t.Helper()
	tr, err := m.AttachJourneys()
	if err != nil {
		t.Fatal(err)
	}
	r, err := rec.New(rec.Config{Every: 1000})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	for _, err := range []error{
		r.AddSource("machine", m.Counters()),
		r.AddJourneys("machine", tr),
		r.AddPipeline(m.AttachPipeline()),
		r.SetWriter(&buf),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
	r.Start(m.Cycle())
	if err := m.AttachPeriodic(r.Every(), r.Roll); err != nil {
		t.Fatal(err)
	}
	runErr := p.run(t, m)
	m.FlushObs()
	r.Flush(m.Cycle())
	js, err := json.Marshal(m.Stats())
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Appendf(nil, "error: %v\nstats: %s\nconsole: %q\n%s%s",
		runErr, js, m.Console(), m.DiagnosticDump(), buf.Bytes())
}

// checkResetChain runs the points one after another on one machine,
// reset to each point's configuration in between, and requires every
// point's observed run to be byte-identical to the same point's on a
// machine New builds: run A, Reset, run B must equal B alone.
func checkResetChain(t *testing.T, points []resetPoint) {
	t.Helper()
	reused, err := New(points[0].cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		if i > 0 {
			if err := reused.Reset(p.cfg); err != nil {
				t.Fatal(err)
			}
		}
		got := observedRun(t, reused, p)
		fresh, err := New(p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		if want := observedRun(t, fresh, p); !bytes.Equal(got, want) {
			after := "nothing"
			if i > 0 {
				after = points[i-1].name
			}
			t.Fatalf("%s after %s: the reset machine's run differs from a new machine's at line %s",
				p.name, after, firstDiff(got, want))
		}
	}
}

// firstDiff describes the first line at which got and want differ.
func firstDiff(got, want []byte) string {
	g, w := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
	for i := range min(len(g), len(w)) {
		if g[i] != w[i] {
			return fmt.Sprintf("%d:\nreset: %.400s\nnew:   %.400s", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("%d: the outputs have %d and %d lines", min(len(g), len(w))+1, len(g), len(w))
}

// TestResetMatchesNewDifferential chains FuzzDifferential's corpus, each
// input paired with the next, through checkResetChain. Inputs run in
// pairs on the default machine and on one of another shape, so every
// other Reset keeps the shape and the rest change the sizes the core,
// the caches and the uncached buffer keep storage for. (The CSB keeps
// its 64-byte line: the programs' §3.2 blocks fill one.)
func TestResetMatchesNewDifferential(t *testing.T) {
	other := DefaultConfig()
	other.CPU.TLBEntries = 4
	other.CPU.ROBSize = 32
	other.CPU.FetchQueue = 8
	other.CPU.PredictorSize = 256
	for _, c := range []*int{&other.Caches.L1I.LineSize, &other.Caches.L1D.LineSize, &other.Caches.L2.LineSize} {
		*c = 32
	}
	other.Caches.L1D.Assoc = 4
	other.Caches.MSHRs = 4
	other.Caches.WriteBuffer = 4
	other.UB.BlockSize = 32
	other.CSB.DoubleBuffered = true
	var points []resetPoint
	for i, in := range diffCorpus() {
		cfg := DefaultConfig()
		if i/2%2 == 1 {
			cfg = other
		}
		prog, err := asm.Assemble(fmt.Sprintf("seed%d.s", in.seed), generate(in.seed, in.mix))
		if err != nil {
			t.Fatal(err)
		}
		points = append(points, resetPoint{
			name: fmt.Sprintf("seed %d mix %d", in.seed, in.mix),
			cfg:  cfg,
			run: func(t *testing.T, m *Machine) error {
				diffLoad(t, m, in.seed, in.mix, prog)
				if err := m.Run(20_000_000); err != nil {
					return err
				}
				return m.Drain(1_000_000)
			},
		})
	}
	checkResetChain(t, points)
}

// TestResetMatchesNewFaultRecovery chains FuzzFaultRecovery's corpus,
// each input paired with the next, through checkResetChain: a reset
// machine drops the last run's fault injector, watchdog and NIC, and the
// next input's are attached to it as to a new machine.
func TestResetMatchesNewFaultRecovery(t *testing.T) {
	progs := make([]*asm.Program, len(recoveryGuests))
	for i, g := range recoveryGuests {
		progs[i], _ = g.oracle(t)
	}
	var points []resetPoint
	for _, in := range recoveryCorpus() {
		cfg, err := fault.ParseSpec(in.spec)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Seed = in.seed
		i := int(in.guest) % len(recoveryGuests)
		g := recoveryGuests[i]
		points = append(points, resetPoint{
			name: fmt.Sprintf("%s seed %d spec %q", g.name, in.seed, in.spec),
			cfg:  DefaultConfig(),
			run: func(t *testing.T, m *Machine) error {
				g.setup(t, m, progs[i], cfg)
				if err := m.Run(50_000_000); err != nil {
					return err
				}
				return m.Drain(recoveryWatchdog)
			},
		})
	}
	checkResetChain(t, points)
}

// TestResetMatchesNewMidRun resets machines that stopped with work
// still in them, through checkResetChain: a CSB sequence left open at
// the halt (valid line, nonzero hit count), an uncached store stream cut
// off by its cycle limit with entries queued and a transaction on the
// bus, and a run that never touches I/O space, which shows whatever the
// one before it left behind.
func TestResetMatchesNewMidRun(t *testing.T) {
	source := func(name, src string, kind mem.Kind, cycles uint64) resetPoint {
		prog, err := asm.Assemble(name+".s", src)
		if err != nil {
			t.Fatal(err)
		}
		return resetPoint{name: name, cfg: DefaultConfig(), run: func(t *testing.T, m *Machine) error {
			m.MapRange(0x4000_0000, 1<<16, kind)
			if err := m.Load(prog); err != nil {
				t.Fatal(err)
			}
			m.WarmProgram(prog)
			return m.Run(cycles)
		}}
	}
	open := source("csb-open", `
	set 0x40000000, %o0
	stx %g0, [%o0]
	stx %g0, [%o0+8]
	stx %g0, [%o0+16]
	halt
`, mem.KindCombining, 10_000)
	cut := source("uncached-cut", exampleSource(t, "uncached_stores.s"), mem.KindUncached, 700)
	quiet := source("quiet", `
	mov 40, %g2
loop:
	subcc %g2, 1, %g2
	bnz loop
	halt
`, mem.KindCached, 10_000)
	checkResetChain(t, []resetPoint{open, quiet, cut, quiet, open, cut, open})
}
