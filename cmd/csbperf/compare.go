package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"slices"
)

// compareMain implements `csbperf compare A... -- B...`: A are the
// parent's reports, B the change's, written by --out with the same
// settings and seeds (the i-th of each side form a pair). For every
// workload and metric it prints each side's median and quartiles of the
// per-run medians, the share of pairs B wins, and a verdict. It exits 1
// when a metric got worse or a fingerprint differs.
func compareMain(args []string, stdout, stderr io.Writer) int {
	sep := slices.Index(args, "--")
	if sep <= 0 || sep == len(args)-1 {
		fmt.Fprintln(stderr, "csbperf: usage: csbperf compare A.json... -- B.json...")
		return 2
	}
	a, err := loadReports(args[:sep])
	if err == nil {
		var b []*report
		if b, err = loadReports(args[sep+1:]); err == nil {
			if compareReports(stdout, a, b) {
				return 1
			}
			return 0
		}
	}
	fmt.Fprintln(stderr, "csbperf:", err)
	return 2
}

func loadReports(paths []string) ([]*report, error) {
	var out []*report
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			return nil, err
		}
		var r report
		if err := json.Unmarshal(data, &r); err != nil {
			return nil, fmt.Errorf("%s: %w", p, err)
		}
		if !r.Correct {
			return nil, fmt.Errorf("%s: incorrect run: %s", p, r.Error)
		}
		out = append(out, &r)
	}
	return out, nil
}

// compareReports prints the comparison and reports whether anything got
// worse.
func compareReports(w io.Writer, a, b []*report) (bad bool) {
	fmt.Fprintf(w, "%-16s %-30s %-34s %-34s %5s  %s\n", "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "wins", "verdict")
	for _, name := range a[0].Order {
		fa, fb := fingerprints(a, name), fingerprints(b, name)
		if len(fa) == 0 || len(fb) == 0 {
			continue
		}
		fpVerdict := "equal"
		for i := range min(len(fa), len(fb)) {
			if fa[i] != fb[i] {
				fpVerdict, bad = "DIFFERS", true
			}
		}
		fmt.Fprintf(w, "%-16s %-30s %-34s %-34s %5s  %s\n", name, "fingerprint", fa[0], fb[0], "", fpVerdict)
		for _, d := range metricDefs() {
			va, vb := values(a, name, d.name), values(b, name, d.name)
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			v, wins := judge(d, va, vb)
			bad = bad || v == "worse"
			fmt.Fprintf(w, "%-16s %-30s %-34s %-34s %4.0f%%  %s\n", name, d.name, quartiles(va), quartiles(vb), 100*wins, v)
		}
	}
	return bad
}

func fingerprints(rs []*report, name string) []string {
	var out []string
	for _, r := range rs {
		if wr, ok := r.Workloads[name]; ok {
			out = append(out, wr.Fingerprint)
		}
	}
	return out
}

func values(rs []*report, name, metric string) []float64 {
	var out []float64
	for _, r := range rs {
		if wr := r.Workloads[name]; wr != nil {
			if s, ok := wr.Metrics[metric]; ok {
				out = append(out, s.Value)
			}
		}
	}
	return out
}

func quartiles(xs []float64) string {
	s := summarize("", xs)
	return fmt.Sprintf("%.6g [%.6g, %.6g]", s.Value, s.Q1, s.Q3)
}

// judge gives the verdict on one metric. B wins a pair when it reads
// better than A's run of the same index; ties count for neither side.
//
//   - exact (simulated) metrics are equal pair by pair, or changed;
//   - improved: B wins at least 9 pairs in 10 and its median is better
//     by more than A's interquartile range;
//   - worse: B's median is worse by more than the bound (metrics without
//     a bound: B loses 9 pairs in 10 by more than A's interquartile range);
//   - unresolved: either side's spread exceeds the bound and not every B
//     run beats every A run, or an unbounded metric moved neither way;
//   - otherwise no-worse-within-bound.
func judge(d metricDef, a, b []float64) (verdict string, wins float64) {
	sign := -1.0
	if d.higher {
		sign = 1
	}
	n := min(len(a), len(b))
	won, lost, equal := 0, 0, 0
	for i := range n {
		switch g := sign * (b[i] - a[i]); {
		case g > 0:
			won++
		case g < 0:
			lost++
		default:
			equal++
		}
	}
	wins = float64(won) / float64(n)
	sa, sb := summarize("", a), summarize("", b)
	gain := sign * (sb.Value - sa.Value)
	iqrA := sa.Q3 - sa.Q1
	switch {
	case d.exact && equal == n:
		return "equal", wins
	case d.exact:
		return "changed", wins
	case wins >= 0.9 && gain > iqrA:
		return "improved", wins
	case d.kind != endToEnd:
		if float64(lost)/float64(n) >= 0.9 && -gain > iqrA {
			return "worse", wins
		}
		return "unresolved", wins
	case -gain > d.bound*abs(sa.Value):
		return "worse", wins
	case spread(sa) > d.bound || spread(sb) > d.bound:
		if allBetter(sign, a, b) {
			return "no-worse-within-bound", wins
		}
		return "unresolved", wins
	}
	return "no-worse-within-bound", wins
}

// allBetter reports whether every B value beats every A value.
func allBetter(sign float64, a, b []float64) bool {
	for _, x := range a {
		for _, y := range b {
			if sign*(y-x) <= 0 {
				return false
			}
		}
	}
	return true
}

// spread is the interquartile range over the median.
func spread(s stat) float64 {
	if s.Value == 0 {
		return 0
	}
	return (s.Q3 - s.Q1) / abs(s.Value)
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
