package perf

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// Verdicts of a comparison.
const (
	// Improved: the change won at least nine tenths of at least ten
	// pairs and its median beats the parent's by more than the parent's
	// interquartile range. The only verdict that supports a claim.
	Improved = "improved"
	// Regressed: the change's median is worse than the parent's by more
	// than the metric's bound, and the runs are steady enough to say so.
	Regressed = "regressed"
	// Unresolved: the runs spread wider than the bound, so "no change"
	// cannot be claimed either way.
	Unresolved = "unresolved"
	// BetterEveryRun: spread wider than the bound, but every change run
	// beats every parent run.
	BetterEveryRun = "better in every run"
	// WithinBound: no regression beyond the bound.
	WithinBound = "within bound"
)

// minPairs is the fewest pairs a claimed gain rests on.
const minPairs = 10

// Comparison is one metric on one workload across paired runs.
type Comparison struct {
	Workload string
	Metric   Metric
	Pairs    int
	// Parent and Change are each side's first quartile, median and
	// third quartile.
	Parent, Change [3]float64
	// Wins counts pairs the change won; ties count for neither side.
	Wins int
	// Worse is the change's median relative to the parent's, signed so
	// that positive is worse.
	Worse float64
	// Alternating reports whether the pairs alternated which side ran
	// first (from the runs' start times).
	Alternating bool
	Verdict     string
}

// ReadReports reads the JSON-line records sbperf -out appends.
func ReadReports(path string) ([]Report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Report
	sc := bufio.NewScanner(f)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r Report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// Compare pairs the i-th untraced run of each workload in parent with
// the i-th in change and judges every end-to-end metric by the rule in
// the package documentation of cmd/sbperf.
func Compare(parent, change []Report) []Comparison {
	var out []Comparison
	for _, wl := range Workloads {
		ps, cs := untraced(parent, wl), untraced(change, wl)
		n := min(len(ps), len(cs))
		if n == 0 {
			continue
		}
		ps, cs = ps[:n], cs[:n]
		parentFirst := 0
		for i := range ps {
			if ps[i].Started.Before(cs[i].Started) {
				parentFirst++
			}
		}
		alternating := math.Abs(float64(parentFirst)-float64(n)/2) <= 1
		for _, m := range EndToEnd {
			pv, cv := values(ps, m.Name), values(cs, m.Name)
			c := judge(m, pv, cv)
			c.Workload, c.Alternating = wl, alternating
			out = append(out, c)
		}
	}
	return out
}

func untraced(reports []Report, workload string) []Report {
	var out []Report
	for _, r := range reports {
		if r.Workload == workload && !r.Trace {
			out = append(out, r)
		}
	}
	return out
}

func values(reports []Report, metric string) []float64 {
	out := make([]float64, len(reports))
	for i, r := range reports {
		out[i] = r.Result.Metrics[metric].Value
	}
	return out
}

// judge applies the comparison rule to paired values of one metric.
func judge(m Metric, parent, change []float64) Comparison {
	c := Comparison{Metric: m, Pairs: len(parent)}
	better := func(a, b float64) bool { // a better than b
		if m.lower() {
			return a < b
		}
		return a > b
	}
	for i := range parent {
		if better(change[i], parent[i]) {
			c.Wins++
		}
	}
	pm, cm := median(parent), median(change)
	pq1, pq3 := quartiles(parent)
	cq1, cq3 := quartiles(change)
	c.Parent = [3]float64{pq1, pm, pq3}
	c.Change = [3]float64{cq1, cm, cq3}
	if pm != 0 {
		c.Worse = (cm - pm) / math.Abs(pm)
		if !m.lower() {
			c.Worse = -c.Worse
		}
	}
	gap := math.Abs(cm - pm)
	spread := math.Max(relSpread(pq1, pm, pq3), relSpread(cq1, cm, cq3))
	allBetter := true
	for _, cv := range change {
		for _, pv := range parent {
			if !better(cv, pv) {
				allBetter = false
			}
		}
	}
	switch {
	case c.Pairs >= minPairs && 10*c.Wins >= 9*c.Pairs && better(cm, pm) && gap > pq3-pq1:
		c.Verdict = Improved
	case spread > m.Bound && allBetter:
		c.Verdict = BetterEveryRun
	case spread > m.Bound:
		c.Verdict = Unresolved
	case c.Worse > m.Bound:
		c.Verdict = Regressed
	default:
		c.Verdict = WithinBound
	}
	return c
}

// relSpread is the interquartile range as a share of the median.
func relSpread(q1, med, q3 float64) float64 {
	if med == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(med)
}

// FormatComparisons writes one row per workload × metric and reports
// whether any regressed.
func FormatComparisons(w io.Writer, cs []Comparison) (regressed bool) {
	fmt.Fprintf(w, "%-12s %-21s %-6s %5s %31s %31s %8s %5s  %s\n",
		"workload", "metric", "unit", "pairs", "parent median [q1 q3]", "change median [q1 q3]", "worse", "wins", "verdict")
	for _, c := range cs {
		note := ""
		if !c.Alternating {
			note = " (pairs did not alternate order)"
		}
		if c.Pairs < minPairs {
			note += fmt.Sprintf(" (%d pairs: no claim below %d)", c.Pairs, minPairs)
		}
		fmt.Fprintf(w, "%-12s %-21s %-6s %5d %31s %31s %+7.1f%% %2d/%-2d  %s (bound %g%%)%s\n",
			c.Workload, c.Metric.Name, c.Metric.Unit, c.Pairs, fmtQ(c.Parent), fmtQ(c.Change),
			100*c.Worse, c.Wins, c.Pairs, c.Verdict, 100*c.Metric.Bound, note)
		if c.Verdict == Regressed {
			regressed = true
		}
	}
	return regressed
}

func fmtQ(q [3]float64) string {
	return fmt.Sprintf("%.4g [%.4g %.4g]", q[1], q[0], q[2])
}
