package sim

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"csbsim/internal/cpu"
	"csbsim/internal/mem"
)

// timingHash folds every retired instruction's lifecycle stamps (fetch,
// dispatch, issue, complete, retire) plus its sequence number and PC into
// one FNV-1a hash, so a golden pins per-instruction timing rather than
// only end-of-run totals.
type timingHash struct {
	h hash.Hash64
	n int
}

func attachTimingHash(m *Machine) *timingHash {
	th := &timingHash{h: fnv.New64a()}
	var b [8 * 7]byte
	m.CPU.AttachRetire(func(ev cpu.RetireEvent) {
		for i, v := range [...]uint64{ev.Seq, ev.PC, ev.FetchCycle, ev.DispatchCycle,
			ev.IssueCycle, ev.CompleteCycle, ev.Cycle} {
			binary.LittleEndian.PutUint64(b[8*i:], v)
		}
		th.h.Write(b[:])
		th.n++
	})
	return th
}

func (th *timingHash) line(name string) string {
	return fmt.Sprintf("%s %d %016x\n", name, th.n, th.h.Sum64())
}

// TestRetireTimingGolden pins the issue, completion and retire cycle of
// every instruction in the differential programs and in the §4.3.1 store
// streams through the CSB and through uncached space. Scheduler
// optimizations must leave it byte-identical.
// Refresh with: go test ./internal/sim -run TestRetireTimingGolden -update
func TestRetireTimingGolden(t *testing.T) {
	var got strings.Builder
	for seed := 0; seed < 60; seed++ {
		var th *timingHash
		runBoth(t, DefaultConfig(), int64(seed), generate(int64(seed)), func(m *Machine) {
			th = attachTimingHash(m)
		})
		got.WriteString(th.line(fmt.Sprintf("seed%d", seed)))
	}
	for _, s := range []struct {
		file string
		kind mem.Kind
	}{
		{"csb_stores.s", mem.KindCombining},
		{"uncached_stores.s", mem.KindUncached},
	} {
		src, err := os.ReadFile(filepath.Join("..", "..", "examples", "asm", s.file))
		if err != nil {
			t.Fatal(err)
		}
		m, err := New(DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		m.MapRange(0x4000_0000, 1<<16, s.kind)
		p, err := m.LoadSource(s.file, string(src))
		if err != nil {
			t.Fatal(err)
		}
		m.WarmProgram(p)
		th := attachTimingHash(m)
		if err := m.Run(10_000_000); err != nil {
			t.Fatal(err)
		}
		if err := m.Drain(1_000_000); err != nil {
			t.Fatal(err)
		}
		got.WriteString(th.line(s.file))
	}

	golden := filepath.Join("testdata", "retire_timing.golden")
	if *update {
		if err := os.WriteFile(golden, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got.String() != string(want) {
		t.Errorf("retire timing drifted from %s (refresh with -update)\ngot:\n%swant:\n%s",
			golden, got.String(), want)
	}
}
