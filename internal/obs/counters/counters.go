// Package counters is the unified performance-counter registry: every
// simulated component (bus, caches, uncached buffer, CSB, CPU, devices)
// registers its named counters and latency histograms once, and the
// machine report renders them all uniformly — the gem5-style "one
// machine-readable stats tree per simulated object" discipline, applied
// at the report boundary so the components' existing Stats structs (and
// their hot-path update code) stay untouched.
//
// Counters are registered as read closures over the component's existing
// fields, so attaching a registry never perturbs simulation state or
// timing. A series is a counter (monotonic: a window's change is what it
// means) or a gauge (an occupancy that rises and falls: only its value at
// a point in time means anything), the split gem5's statistics make
// between Scalar and Value; a point-in-time Snapshot reads both alike.
// Histograms are owned by the registry and recorded into directly
// by instrumentation (the journey tracer), with a fixed power-of-two
// bucket layout so Record stays allocation-free on the tick hot path.
package counters

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// numBuckets covers every uint64 value: bucket i holds values whose
// bit length is i, i.e. bucket 0 is exactly {0} and bucket i (i>0) is
// [2^(i-1), 2^i).
const numBuckets = 65

// Histogram is a fixed-bucket power-of-two latency histogram. Record is
// allocation-free and O(1); quantiles are derived from the buckets at
// report time (resolved to the bucket's upper bound, clamped to the
// exactly-tracked min and max).
type Histogram struct {
	name    string
	buckets [numBuckets]uint64
	count   uint64
	sum     uint64
	min     uint64
	max     uint64
}

// NewHistogram creates a standalone (unregistered) histogram; most
// callers want Registry.Histogram instead.
func NewHistogram(name string) *Histogram { return &Histogram{name: name} }

// Name returns the histogram's registered name.
func (h *Histogram) Name() string { return h.name }

// Count returns the number of recorded values.
func (h *Histogram) Count() uint64 { return h.count }

// Record adds one value.
//
//csb:hotpath
func (h *Histogram) Record(v uint64) {
	h.buckets[bits.Len64(v)]++
	h.count++
	h.sum += v
	if h.count == 1 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Merge folds another histogram's samples into h (bucket-wise addition;
// min/max/sum/count combine exactly, quantiles stay bucket-resolution).
// Used to aggregate per-client latency histograms into one serving curve
// after a run; o is left unchanged.
func (h *Histogram) Merge(o *Histogram) {
	if o == nil || o.count == 0 {
		return
	}
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
	if h.count == 0 || o.min < h.min {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
	h.count += o.count
	h.sum += o.sum
}

// Quantile returns the q-quantile (0 < q <= 1), resolved to the upper
// bound of the bucket containing that rank and clamped to the exact
// min/max. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) uint64 {
	if h.count == 0 {
		return 0
	}
	rank := uint64(q * float64(h.count))
	if rank == 0 {
		rank = 1
	}
	if rank > h.count {
		rank = h.count
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += h.buckets[i]
		if cum >= rank {
			ub := uint64(0)
			if i > 0 {
				ub = 1<<uint(i) - 1
			}
			if ub > h.max {
				ub = h.max
			}
			if ub < h.min {
				ub = h.min
			}
			return ub
		}
	}
	return h.max
}

// HistState is a raw point-in-time copy of a histogram's buckets and
// exact min/max/sum/count — the substrate for *windowed* statistics: two
// states taken at different cycles subtract bucket-wise, so a flight
// recorder can compute per-window quantiles instead of cumulative ones.
type HistState struct {
	Buckets [numBuckets]uint64
	Count   uint64
	Sum     uint64
	Min     uint64
	Max     uint64
}

// ReadState copies the histogram's current state into dst without
// allocating — the per-window rollup path calls this on every attached
// histogram at every window boundary.
//
//csb:hotpath
func (h *Histogram) ReadState(dst *HistState) {
	dst.Buckets = h.buckets
	dst.Count = h.count
	dst.Sum = h.sum
	dst.Min = h.min
	dst.Max = h.max
}

// WindowStats summarizes only the samples recorded between prev and cur
// (cur must be the later state of the same histogram). Quantiles are
// exact at bucket resolution over the window's own samples; min/max are
// the tightest bounds derivable from the delta buckets, clamped by the
// exactly-tracked global extrema where those remain valid bounds.
// An empty window returns a zero Summary.
func WindowStats(prev, cur *HistState) Summary {
	n := cur.Count - prev.Count
	if n == 0 {
		return Summary{}
	}
	var delta [numBuckets]uint64
	lo, hi := -1, 0
	for i := 0; i < numBuckets; i++ {
		delta[i] = cur.Buckets[i] - prev.Buckets[i]
		if delta[i] > 0 {
			if lo < 0 {
				lo = i
			}
			hi = i
		}
	}
	s := Summary{Count: n, Min: bucketLo(lo), Max: bucketHi(hi)}
	// The global max is an upper bound on any window's max; the global
	// min a lower bound on any window's min. Take the tighter bound.
	if cur.Max < s.Max {
		s.Max = cur.Max
	}
	if cur.Min > s.Min {
		s.Min = cur.Min
	}
	s.Mean = float64(cur.Sum-prev.Sum) / float64(n)
	q := func(qf float64) uint64 {
		rank := uint64(qf * float64(n))
		if rank == 0 {
			rank = 1
		}
		if rank > n {
			rank = n
		}
		var cum uint64
		for i := lo; i < numBuckets; i++ {
			cum += delta[i]
			if cum >= rank {
				ub := bucketHi(i)
				if ub > s.Max {
					ub = s.Max
				}
				if ub < s.Min {
					ub = s.Min
				}
				return ub
			}
		}
		return s.Max
	}
	s.P50, s.P95, s.P99 = q(0.50), q(0.95), q(0.99)
	return s
}

// bucketLo is the smallest value bucket i can hold.
func bucketLo(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1 << uint(i-1)
}

// bucketHi is the largest value bucket i can hold.
func bucketHi(i int) uint64 {
	if i <= 0 {
		return 0
	}
	return 1<<uint(i) - 1
}

// Summary is the rendered form of a histogram: counts plus the
// percentile set the paper's latency-decomposition figures use.
type Summary struct {
	Count uint64  `json:"count"`
	Min   uint64  `json:"min"`
	Max   uint64  `json:"max"`
	Mean  float64 `json:"mean"`
	P50   uint64  `json:"p50"`
	P95   uint64  `json:"p95"`
	P99   uint64  `json:"p99"`
}

// Summary computes the histogram's summary.
func (h *Histogram) Summary() Summary {
	s := Summary{Count: h.count, Min: h.min, Max: h.max}
	if h.count > 0 {
		s.Mean = float64(h.sum) / float64(h.count)
		s.P50 = h.Quantile(0.50)
		s.P95 = h.Quantile(0.95)
		s.P99 = h.Quantile(0.99)
	}
	return s
}

// Registry holds every registered counter and histogram. Registration
// happens once at attach time (and may allocate); reads happen at report
// time. It is not safe for concurrent use, matching the single-threaded
// simulator.
type Registry struct {
	counters   []counterEntry
	histograms []*Histogram
	names      map[string]bool
}

type counterEntry struct {
	name  string
	read  func() uint64
	gauge bool
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{names: make(map[string]bool)}
}

// Counter registers a named monotonic counter as a read closure over the
// owning component's state. Names must be unique; a duplicate is a wiring
// bug and panics.
func (r *Registry) Counter(name string, read func() uint64) {
	r.claim(name)
	r.counters = append(r.counters, counterEntry{name: name, read: read})
}

// Gauge registers a named gauge: a read closure over a level that may
// fall as well as rise (a queue depth, a buffer occupancy). Consumers
// read its value and never its change over a window.
func (r *Registry) Gauge(name string, read func() uint64) {
	r.claim(name)
	r.counters = append(r.counters, counterEntry{name: name, read: read, gauge: true})
}

// Histogram creates, registers and returns a named histogram.
func (r *Registry) Histogram(name string) *Histogram {
	r.claim(name)
	h := NewHistogram(name)
	r.histograms = append(r.histograms, h)
	return h
}

func (r *Registry) claim(name string) {
	if name == "" {
		panic("counters: empty name")
	}
	if r.names[name] {
		panic(fmt.Sprintf("counters: duplicate registration of %q", name))
	}
	r.names[name] = true
}

// VisitCounters calls fn for every registered counter and gauge in
// registration order — the flight recorder uses this at seal time to
// build its series table without going through an allocating Snapshot.
func (r *Registry) VisitCounters(fn func(name string, read func() uint64, gauge bool)) {
	for _, c := range r.counters {
		fn(c.name, c.read, c.gauge)
	}
}

// VisitHistograms calls fn for every registered histogram in
// registration order.
func (r *Registry) VisitHistograms(fn func(h *Histogram)) {
	for _, h := range r.histograms {
		fn(h)
	}
}

// Snapshot is a point-in-time copy of every registered counter and gauge
// value and histogram summary, ready for JSON output (maps marshal with sorted
// keys, keeping the output deterministic).
type Snapshot struct {
	Counters   map[string]uint64  `json:"counters"`
	Histograms map[string]Summary `json:"histograms,omitempty"`
}

// Snapshot reads every counter and gauge and summarizes every histogram.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{Counters: make(map[string]uint64, len(r.counters))}
	for _, c := range r.counters {
		s.Counters[c.name] = c.read()
	}
	if len(r.histograms) > 0 {
		s.Histograms = make(map[string]Summary, len(r.histograms))
		for _, h := range r.histograms {
			s.Histograms[h.name] = h.Summary()
		}
	}
	return s
}

// Format renders the snapshot as an aligned, name-sorted text block —
// the uniform rendering sim.Report appends for every registered layer.
func (s *Snapshot) Format() string {
	var b strings.Builder
	names := make([]string, 0, len(s.Counters))
	width := 0
	for n := range s.Counters { //csb:orderless — collects keys and takes a max
		names = append(names, n)
		if len(n) > width {
			width = len(n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(&b, "%-*s %d\n", width, n, s.Counters[n])
	}
	if len(s.Histograms) > 0 {
		hnames := make([]string, 0, len(s.Histograms))
		hwidth := 0
		for n := range s.Histograms { //csb:orderless — collects keys and takes a max
			hnames = append(hnames, n)
			if len(n) > hwidth {
				hwidth = len(n)
			}
		}
		sort.Strings(hnames)
		for _, n := range hnames {
			h := s.Histograms[n]
			fmt.Fprintf(&b, "%-*s n=%d min=%d p50=%d p95=%d p99=%d max=%d mean=%.1f\n",
				hwidth, n, h.Count, h.Min, h.P50, h.P95, h.P99, h.Max, h.Mean)
		}
	}
	return b.String()
}
