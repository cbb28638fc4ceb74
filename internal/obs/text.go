package obs

import (
	"fmt"
	"strings"
)

// pipeMaxCols caps the timeline width of the text pipeline diagram; wider
// windows are clipped to their final pipeMaxCols cycles.
const pipeMaxCols = 120

// FormatPipeline renders retired instructions as an ASCII pipeline
// diagram, one row per instruction — the plain-text fallback when a
// Perfetto UI is not at hand. Stage letters mark the cycle each stage
// happened: F fetch, D dispatch, I issue, C complete, R retire; '='
// fills the span between the first and last recorded stage.
//
//	seq        pc  |0         1         2      |
//	  7  00001008  |F==D=I=C==R                |  stx %o0, [%o1]
//
// Events must be in retire order (as delivered by the retire observers).
func FormatPipeline(events []InstEvent) string {
	if len(events) == 0 {
		return "(no instructions retired)\n"
	}
	lo, hi := events[0].Span()
	for _, e := range events[1:] {
		s, r := e.Span()
		if s < lo {
			lo = s
		}
		if r > hi {
			hi = r
		}
	}
	if hi-lo+1 > pipeMaxCols {
		lo = hi - pipeMaxCols + 1
	}
	width := int(hi - lo + 1)

	var b strings.Builder
	fmt.Fprintf(&b, "pipeline %d..%d (F fetch, D dispatch, I issue, C complete, R retire)\n", lo, hi)
	fmt.Fprintf(&b, "%8s  %8s  |%s|\n", "seq", "pc", ruler(lo, width))
	for _, e := range events {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		start, end := e.Span()
		if end < lo {
			continue // clipped out of the window entirely
		}
		if start < lo {
			start = lo
		}
		for c := start; c <= end; c++ {
			row[c-lo] = '='
		}
		mark := func(cycle uint64, ch byte) {
			if cycle >= lo && cycle <= hi {
				row[cycle-lo] = ch
			}
		}
		mark(e.Fetch, 'F')
		mark(e.Dispatch, 'D')
		mark(e.Issue, 'I')
		mark(e.Complete, 'C')
		mark(e.Retire, 'R')
		fmt.Fprintf(&b, "%8d  %08x  |%s|  %s\n", e.Seq, e.PC, row, e.Disasm)
	}
	return b.String()
}

// ruler renders decade tick marks for the diagram header.
func ruler(lo uint64, width int) string {
	r := make([]byte, width)
	for i := range r {
		cycle := lo + uint64(i)
		switch {
		case cycle%10 == 0:
			r[i] = '0' + byte(cycle/10%10)
		default:
			r[i] = ' '
		}
	}
	return string(r)
}
