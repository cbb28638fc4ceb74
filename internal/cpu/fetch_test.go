package cpu

import (
	"testing"

	"csbsim/internal/obs"
)

// straddle's first two instructions end one 64-byte I-cache line and the
// rest start the next, so the first fetch group crosses the boundary.
const straddle = `
	.org 0x10038
	.entry main
main:
	add %g0, 1, %g1
	add %g1, 1, %g2
	add %g2, 1, %g3
	add %g3, 1, %g4
	halt
`

// TestFetchStopsAtColdLine: a fetch group that reaches a line missing
// from the I-cache stops at the boundary without starting its fill; the
// next cycle's group begins there and starts it. When the second line is
// warm too, the group runs on across the boundary. The cycle counts are
// the pipeline's from before fetch checked the I-cache once per line.
func TestFetchStopsAtColdLine(t *testing.T) {
	for _, tc := range []struct {
		name         string
		warmSecond   bool
		firstGroup   uint64 // instructions fetched in the first cycle
		cycles       uint64 // to the halt
		icacheStalls uint64
		icacheCycles uint64 // CPI-stack cycles charged to the I-cache miss
	}{
		{"second line cold", false, 2, 120, 1, 108},
		{"second line warm", true, 4, 8, 0, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := newRig(t)
			p := r.load(t, straddle)
			r.h.L1I().Preload(p.Entry)
			if tc.warmSecond {
				r.h.L1I().Preload(p.Entry + 8)
			}
			r.tick()
			st := r.c.Stats()
			if st.Fetched != tc.firstGroup || st.ICacheStalls != 0 || !r.h.Idle() {
				t.Fatalf("first cycle: fetched %d with %d I-cache stalls (hierarchy idle: %v), want %d with none",
					st.Fetched, st.ICacheStalls, r.h.Idle(), tc.firstGroup)
			}
			if !tc.warmSecond {
				r.tick()
				if st := r.c.Stats(); st.Fetched != 2 || st.ICacheStalls != 1 || r.h.Idle() {
					t.Fatalf("second cycle: fetched %d with %d I-cache stalls (hierarchy idle: %v), want 2 with a fill started",
						st.Fetched, st.ICacheStalls, r.h.Idle())
				}
			}
			r.run(t, 10_000)
			st = r.c.Stats()
			if st.Cycles != tc.cycles || st.Retired != 5 || st.ICacheStalls != tc.icacheStalls ||
				st.CPI[obs.CauseICacheMiss] != tc.icacheCycles {
				t.Errorf("halted after %d cycles, %d retired, %d I-cache stalls, %d I-cache-miss cycles; want %d, 5, %d, %d",
					st.Cycles, st.Retired, st.ICacheStalls, st.CPI[obs.CauseICacheMiss],
					tc.cycles, tc.icacheStalls, tc.icacheCycles)
			}
		})
	}
}
