// SLO spec parsing, series binding, and per-window evaluation. The same
// binding + evaluation path serves both the live recorder (breach events
// logged at the barrier as windows roll) and offline `csbrec check`
// (replaying a finished recording), so a spec that passes offline is
// exactly the spec that stays quiet live.
package rec

import (
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Rule is one parsed SLO rule: an aggregation over one (or, for ratio,
// two) series glob patterns compared against a threshold.
//
// Grammar (one rule per line or ';'-separated; '#' starts a comment):
//
//	rule      := expr op number
//	expr      := series | agg '(' series [ ',' series ] ')'
//	agg       := value|delta|rate|ratio|p50|p95|p99|mean|min|max|count
//	op        := <= | >= | == | != | < | >
//
// A bare series name means value(series). value (end-of-window value)
// binds counters and gauges. delta (change over the window), rate
// (delta per 1000 cycles) and ratio (delta of the first series over
// delta of the second) bind counters only: a gauge's change over a
// window means nothing, so a glob skips the gauges it matches.
// Histogram aggregations: p50, p95, p99, mean, min, max, count — over
// the window's own samples only.
// Series names may use '*' globs; ratio's two patterns must use the
// same number of '*'s, and each match of the first pattern binds the
// second with the same captures (so
// "ratio(cluster/loadgen/*/goodput, cluster/loadgen/*/issued) >= 0.9"
// pairs per node).
type Rule struct {
	Raw       string
	Agg       string
	Arg1      string
	Arg2      string
	Op        string
	Threshold float64
}

// holds reports whether value v satisfies the rule.
func (r *Rule) holds(v float64) bool {
	switch r.Op {
	case "<=":
		return v <= r.Threshold
	case ">=":
		return v >= r.Threshold
	case "<":
		return v < r.Threshold
	case ">":
		return v > r.Threshold
	case "==":
		return v == r.Threshold
	case "!=":
		return v != r.Threshold
	}
	return true
}

// SLO is a parsed spec: an ordered list of rules.
type SLO struct {
	Rules []Rule
}

// counter aggs bind to the counter table (delta/rate/ratio to its
// counters only); the rest bind to histograms.
var ctrAggs = map[string]bool{"value": true, "delta": true, "rate": true, "ratio": true}
var histAggs = map[string]bool{"p50": true, "p95": true, "p99": true, "mean": true, "min": true, "max": true, "count": true}

// ParseSLO parses a spec string (see Rule for the grammar).
func ParseSLO(spec string) (*SLO, error) {
	s := &SLO{}
	// Comments run to end of line, so strip them before ';' splitting — a
	// ';' inside a comment is commentary, not a rule separator.
	for _, line := range strings.Split(spec, "\n") {
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		for _, part := range strings.Split(line, ";") {
			part = strings.TrimSpace(part)
			if part == "" {
				continue
			}
			rule, err := parseRule(part)
			if err != nil {
				return nil, err
			}
			s.Rules = append(s.Rules, rule)
		}
	}
	if len(s.Rules) == 0 {
		return nil, fmt.Errorf("slo: empty spec")
	}
	return s, nil
}

// LoadSLO parses an -slo argument: a literal spec, or @path naming a
// file that holds one.
func LoadSLO(arg string) (*SLO, error) {
	if path, ok := strings.CutPrefix(arg, "@"); ok {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		arg = string(data)
	}
	return ParseSLO(arg)
}

// parseRule parses a single "expr op number" rule.
func parseRule(line string) (Rule, error) {
	r := Rule{Raw: line}
	// Find the comparison operator: two-char ops first so "<=" does not
	// parse as "<".
	opIdx, opLen := -1, 0
	for i := 0; i < len(line); i++ {
		c := line[i]
		if c == '<' || c == '>' || c == '=' || c == '!' {
			opIdx = i
			opLen = 1
			if i+1 < len(line) && line[i+1] == '=' {
				opLen = 2
			}
			break
		}
	}
	if opIdx < 0 {
		return r, fmt.Errorf("slo: no comparison operator in %q", line)
	}
	r.Op = line[opIdx : opIdx+opLen]
	switch r.Op {
	case "<=", ">=", "==", "!=", "<", ">":
	default:
		return r, fmt.Errorf("slo: bad operator %q in %q", r.Op, line)
	}
	expr := strings.TrimSpace(line[:opIdx])
	num := strings.TrimSpace(line[opIdx+opLen:])
	th, err := strconv.ParseFloat(num, 64)
	if err != nil {
		return r, fmt.Errorf("slo: bad threshold %q in %q", num, line)
	}
	r.Threshold = th

	if open := strings.IndexByte(expr, '('); open >= 0 {
		if !strings.HasSuffix(expr, ")") {
			return r, fmt.Errorf("slo: unclosed aggregation in %q", line)
		}
		r.Agg = strings.TrimSpace(expr[:open])
		args := strings.Split(expr[open+1:len(expr)-1], ",")
		switch len(args) {
		case 1:
			r.Arg1 = strings.TrimSpace(args[0])
		case 2:
			r.Arg1 = strings.TrimSpace(args[0])
			r.Arg2 = strings.TrimSpace(args[1])
		default:
			return r, fmt.Errorf("slo: aggregation takes 1 or 2 series in %q", line)
		}
	} else {
		r.Agg = "value"
		r.Arg1 = expr
	}
	if r.Arg1 == "" {
		return r, fmt.Errorf("slo: empty series in %q", line)
	}
	switch {
	case r.Agg == "ratio":
		if r.Arg2 == "" {
			return r, fmt.Errorf("slo: ratio takes two series in %q", line)
		}
		if strings.Count(r.Arg1, "*") != strings.Count(r.Arg2, "*") {
			return r, fmt.Errorf("slo: ratio patterns must use the same number of globs in %q", line)
		}
	case ctrAggs[r.Agg], histAggs[r.Agg]:
		if r.Arg2 != "" {
			return r, fmt.Errorf("slo: %s takes one series in %q", r.Agg, line)
		}
	default:
		return r, fmt.Errorf("slo: unknown aggregation %q in %q", r.Agg, line)
	}
	return r, nil
}

// binding is one rule bound to one concrete series (pair, for ratio).
type binding struct {
	rule   *Rule
	series string
	idx    int // index into ctr or hist series table
	idx2   int // ratio denominator index
	// live breach state
	breached bool
	since    uint64
	last     float64
}

// value extracts the rule's aggregation from the window. ok=false means
// the window carries no data for this binding (empty histogram window,
// zero ratio denominator) and the breach state holds.
func (b *binding) value(w *Window) (float64, bool) {
	switch b.rule.Agg {
	case "value":
		return float64(w.CtrEnd[b.idx]), true
	case "delta":
		return float64(w.CtrDelta[b.idx]), true
	case "rate":
		cycles := w.C1 - w.C0
		if cycles == 0 {
			return 0, false
		}
		return float64(w.CtrDelta[b.idx]) * 1000 / float64(cycles), true
	case "ratio":
		den := w.CtrDelta[b.idx2]
		if den == 0 {
			return 0, false
		}
		return float64(w.CtrDelta[b.idx]) / float64(den), true
	}
	h := &w.Hist[b.idx]
	if h.N == 0 {
		return 0, false
	}
	switch b.rule.Agg {
	case "p50":
		return float64(h.P50), true
	case "p95":
		return float64(h.P95), true
	case "p99":
		return float64(h.P99), true
	case "mean":
		return h.Mean(), true
	case "min":
		return float64(h.Min), true
	case "max":
		return float64(h.Max), true
	case "count":
		return float64(h.N), true
	}
	return 0, false
}

// bind expands every rule's glob patterns over the sealed series tables
// (gauge marks the ctrNames entries that are gauges), returning the
// concrete bindings in deterministic order (rule order × sorted series
// order) plus the raw text of rules that matched nothing.
func (s *SLO) bind(ctrNames []string, gauge []bool, histNames []string) ([]binding, []string) {
	var bs []binding
	var unbound []string
	for ri := range s.Rules {
		r := &s.Rules[ri]
		n := 0
		if r.Agg == "ratio" {
			for i, name := range ctrNames {
				caps, ok := globMatch(r.Arg1, name)
				if !ok || gauge[i] {
					continue
				}
				den := substitute(r.Arg2, caps)
				j := indexOf(ctrNames, den)
				if j < 0 || gauge[j] {
					continue
				}
				bs = append(bs, binding{rule: r, series: name + "/" + den, idx: i, idx2: j})
				n++
			}
		} else if ctrAggs[r.Agg] {
			for i, name := range ctrNames {
				if gauge[i] && r.Agg != "value" {
					continue
				}
				if _, ok := globMatch(r.Arg1, name); ok {
					bs = append(bs, binding{rule: r, series: name, idx: i})
					n++
				}
			}
		} else {
			for i, name := range histNames {
				if _, ok := globMatch(r.Arg1, name); ok {
					bs = append(bs, binding{rule: r, series: name, idx: i})
					n++
				}
			}
		}
		if n == 0 {
			unbound = append(unbound, r.Raw)
		}
	}
	return bs, unbound
}

// evalBindings runs one window through every binding, emitting
// breach/recover transition events. Shared verbatim between the live
// recorder and offline check so the two can never disagree.
func evalBindings(bs []binding, w *Window, emit func(Event)) {
	for i := range bs {
		b := &bs[i]
		v, ok := b.value(w)
		if !ok {
			continue
		}
		b.last = v
		breach := !b.rule.holds(v)
		switch {
		case breach && !b.breached:
			b.breached = true
			b.since = w.C1
			emit(Event{Cycle: w.C1, Kind: "slo_breach", Node: b.series, Rule: b.rule.Raw, Value: v})
		case !breach && b.breached:
			b.breached = false
			emit(Event{Cycle: w.C1, Kind: "slo_recover", Node: b.series, Rule: b.rule.Raw, Value: v})
		}
	}
}

// CheckResult is the outcome of replaying a recording against an SLO.
type CheckResult struct {
	Events  []Event  // breach/recover transitions, in window order
	Active  []Alert  // bindings still breached at the end
	Unbound []string // rules whose globs matched no series
}

// Check replays every window of a finished recording through the spec.
func (s *SLO) Check(rc *Recording) CheckResult {
	bs, unbound := s.bind(rc.CtrNames, rc.Gauge, rc.HistNames)
	res := CheckResult{Unbound: unbound}
	for wi := range rc.Windows {
		evalBindings(bs, &rc.Windows[wi], func(ev Event) {
			res.Events = append(res.Events, ev)
		})
	}
	for i := range bs {
		b := &bs[i]
		if b.breached {
			res.Active = append(res.Active, Alert{Rule: b.rule.Raw, Series: b.series, Since: b.since, Value: b.last})
		}
	}
	return res
}

// ActiveAt replays windows[0..wi] of a recording and returns the alerts
// still active after window wi — csbrec top's replay scrub uses it to show
// breach state at an arbitrary point in a recording.
func (s *SLO) ActiveAt(rc *Recording, wi int) []Alert {
	bs, _ := s.bind(rc.CtrNames, rc.Gauge, rc.HistNames)
	for i := 0; i <= wi && i < len(rc.Windows); i++ {
		evalBindings(bs, &rc.Windows[i], func(Event) {})
	}
	var active []Alert
	for i := range bs {
		b := &bs[i]
		if b.breached {
			active = append(active, Alert{Rule: b.rule.Raw, Series: b.series, Since: b.since, Value: b.last})
		}
	}
	return active
}

// MatchSeries reports whether a series name matches a '*' glob pattern —
// the same matcher SLO rules bind with, exported for csbrec's -m filter.
func MatchSeries(pat, name string) bool {
	_, ok := globMatch(pat, name)
	return ok
}

// globMatch matches name against a pattern where '*' matches any (possibly
// empty) run of characters, returning what each '*' captured.
func globMatch(pat, name string) ([]string, bool) {
	nStars := strings.Count(pat, "*")
	if nStars == 0 {
		if pat == name {
			return nil, true
		}
		return nil, false
	}
	caps := make([]string, 0, nStars)
	return globCapture(pat, name, caps)
}

// globCapture is the greedy-with-backtracking matcher behind globMatch.
func globCapture(pat, name string, caps []string) ([]string, bool) {
	star := strings.IndexByte(pat, '*')
	if star < 0 {
		if pat == name {
			return caps, true
		}
		return nil, false
	}
	if !strings.HasPrefix(name, pat[:star]) {
		return nil, false
	}
	name = name[star:]
	rest := pat[star+1:]
	// Longest capture first, so "cluster/loadgen/*" binds the whole tail
	// when the rest of the pattern allows it.
	for take := len(name); take >= 0; take-- {
		if got, ok := globCapture(rest, name[take:], append(caps, name[:take])); ok {
			return got, true
		}
	}
	return nil, false
}

// substitute rebuilds a pattern with each '*' replaced by the
// corresponding capture.
func substitute(pat string, caps []string) string {
	if len(caps) == 0 {
		return pat
	}
	var b strings.Builder
	ci := 0
	for i := 0; i < len(pat); i++ {
		if pat[i] == '*' && ci < len(caps) {
			b.WriteString(caps[ci])
			ci++
		} else {
			b.WriteByte(pat[i])
		}
	}
	return b.String()
}

// indexOf is a linear search (series tables are small and sorted once).
func indexOf(names []string, name string) int {
	for i, n := range names {
		if n == name {
			return i
		}
	}
	return -1
}
