package main

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"csbsim"
	"csbsim/internal/mem"
	"csbsim/internal/obs/rec"
)

// TestMain runs the command itself when the test binary is re-executed
// with CSBSIM_RUN_MAIN set, so a test can drive csbsim end to end.
func TestMain(m *testing.M) {
	if os.Getenv("CSBSIM_RUN_MAIN") != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestRecordHoldsEveryRetirement: a `csbsim -record` run of the CSB
// store stream records one "i" frame per instruction Stats.CPU.Retired
// counts, the run being shorter than the pipeline tail, and the last
// frame is the halt that ended it.
func TestRecordHoldsEveryRetirement(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.rec")
	cmd := exec.Command(os.Args[0], "-combining", "0x40000000:64K", "-record", path, "-json",
		filepath.Join("..", "..", "examples", "asm", "csb_stores.s"))
	cmd.Env = append(os.Environ(), "CSBSIM_RUN_MAIN=1")
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("csbsim: %v\n%s", err, out)
	}
	var s struct{ CPU struct{ Retired uint64 } }
	if err := json.Unmarshal(out, &s); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	rc, err := rec.Read(data)
	if err != nil {
		t.Fatal(err)
	}
	if got := uint64(len(rc.Insts)); got != s.CPU.Retired {
		t.Errorf("recording holds %d i frames, Stats.CPU.Retired is %d", got, s.CPU.Retired)
	}
	if n := len(rc.Insts); n == 0 || !strings.HasPrefix(rc.Insts[n-1].Disasm, "halt") {
		t.Errorf("the last i frame is not the halt: %+v", rc.Insts[max(n-1, 0):])
	}
}

func TestParseNum(t *testing.T) {
	tests := []struct {
		in   string
		want uint64
		ok   bool
	}{
		{"0x40000000", 0x4000_0000, true},
		{"4096", 4096, true},
		{"64K", 64 << 10, true},
		{"64k", 64 << 10, true},
		{"2M", 2 << 20, true},
		{"0x10K", 0x10 << 10, true},
		{"", 0, false},
		{"xyz", 0, false},
		{"12Q", 0, false},
	}
	for _, tt := range tests {
		got, err := parseNum(tt.in)
		if (err == nil) != tt.ok {
			t.Errorf("parseNum(%q) err = %v, ok = %v", tt.in, err, tt.ok)
			continue
		}
		if tt.ok && got != tt.want {
			t.Errorf("parseNum(%q) = %d, want %d", tt.in, got, tt.want)
		}
	}
}

func TestMapRangeSpec(t *testing.T) {
	m, err := csbsim.NewMachine(csbsim.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	if err := mapRange(m, "0x40000000:4096", mem.KindCombining); err != nil {
		t.Fatal(err)
	}
	pte, ok := m.AddressSpace(0).Lookup(0x4000_0000)
	if !ok || pte.Kind != mem.KindCombining {
		t.Errorf("mapping not installed: %+v ok=%v", pte, ok)
	}
	if err := mapRange(m, "", mem.KindUncached); err != nil {
		t.Errorf("empty spec should be a no-op: %v", err)
	}
	for _, bad := range []string{"justaddr", "x:y", "0x1000:"} {
		if err := mapRange(m, bad, mem.KindUncached); err == nil {
			t.Errorf("bad spec %q accepted", bad)
		}
	}
}
