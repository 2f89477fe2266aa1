package perf

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// sides builds paired synthetic result sets for figure2: pair i reads
// parent[i] and change[i] for the metric under test, every other metric
// reads 100 on both sides. Pairs alternate which side started first.
func sides(metric string, parent, change []float64) ([]Report, []Report) {
	t0 := time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC)
	mk := func(v float64, start time.Time) Report {
		ms := map[string]Value{}
		for _, m := range EndToEnd {
			ms[m.Name] = Value{Value: 100, Unit: m.Unit}
		}
		ms[metric] = Value{Value: v, Unit: "ms"}
		return Report{Workload: "figure2", Started: start, Result: Result{Correct: true, Attempted: 1, Metrics: ms}}
	}
	var ps, cs []Report
	for i := range parent {
		first, second := t0.Add(time.Duration(2*i)*time.Minute), t0.Add(time.Duration(2*i+1)*time.Minute)
		if i%2 == 1 {
			first, second = second, first
		}
		ps = append(ps, mk(parent[i], first))
		cs = append(cs, mk(change[i], second))
	}
	return ps, cs
}

func verdict(t *testing.T, cs []Comparison, metric string) Comparison {
	t.Helper()
	for _, c := range cs {
		if c.Workload == "figure2" && c.Metric.Name == metric {
			return c
		}
	}
	t.Fatalf("no comparison for %s", metric)
	return Comparison{}
}

func scaled(base []float64, f float64) []float64 {
	out := make([]float64, len(base))
	for i, x := range base {
		out[i] = x * f
	}
	return out
}

// Ten steady runs, spread ±1%.
var steady = []float64{100, 101, 99, 100.5, 99.5, 100, 101, 99, 100.2, 99.8}

// A claim does not depend on the bound, only on the pairs and the spread.
func TestCompareClaimsNeedNineOfTenPairsAndAGapBeyondTheSpread(t *testing.T) {
	ps, cs := sides("exec_geomean_ms", steady, scaled(steady, 0.8))
	c := verdict(t, Compare(ps, cs), "exec_geomean_ms")
	if c.Verdict != Improved || c.Wins != 10 || !c.Alternating {
		t.Fatalf("20%% faster in every pair: %+v, want improved", c)
	}
	if other := verdict(t, Compare(ps, cs), "cpu_ms_per_op"); other.Verdict != WithinBound || other.Wins != 0 {
		t.Fatalf("unchanged metric: %+v, want within bound with no wins (ties count for neither)", other)
	}

	// Two pairs lost: 8/10 wins is no claim, though the median moved.
	change := scaled(steady, 0.8)
	change[0], change[1] = 120, 120
	ps, cs = sides("exec_geomean_ms", steady, change)
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict == Improved {
		t.Fatalf("8/10 pairs won: %+v, want no claim", c)
	}

	// Every pair won, but by less than the parent's own spread.
	noisy := []float64{90, 110, 95, 105, 92, 108, 97, 103, 91, 109}
	ps, cs = sides("exec_geomean_ms", noisy, scaled(noisy, 0.99))
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict == Improved {
		t.Fatalf("gain inside the parent's interquartile range: %+v, want no claim", c)
	}

	// Nine pairs are too few for any claim.
	ps, cs = sides("exec_geomean_ms", steady[:9], scaled(steady[:9], 0.8))
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict == Improved {
		t.Fatalf("9 pairs: %+v, want no claim", c)
	}
}

func TestCompareRegressionsAndUnresolved(t *testing.T) {
	exec, _ := metricByName("exec_geomean_ms")
	b := exec.Bound
	ps, cs := sides("exec_geomean_ms", steady, scaled(steady, 1+2*b))
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict != Regressed || c.Worse < 1.9*b {
		t.Fatalf("slower by twice the bound: %+v, want regressed", c)
	}
	ps, cs = sides("exec_geomean_ms", steady, scaled(steady, 1+b/2))
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict != WithinBound {
		t.Fatalf("slower by half the bound: %+v, want within bound", c)
	}

	// A higher-is-better metric regresses downwards.
	thr, _ := metricByName("throughput_ops_s")
	ps, cs = sides("throughput_ops_s", steady, scaled(steady, 1-2*thr.Bound))
	if c := verdict(t, Compare(ps, cs), "throughput_ops_s"); c.Verdict != Regressed {
		t.Fatalf("throughput down by twice the bound: %+v, want regressed", c)
	}

	// Runs spreading wider than the bound cannot show it holds either way.
	wide := make([]float64, len(steady))
	for i := range wide {
		wide[i] = 100 * (1 + 3*b*float64(i%2*2-1)*float64(i+1)/10)
	}
	ps, cs = sides("exec_geomean_ms", wide, scaled(wide, 1.02))
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict != Unresolved {
		t.Fatalf("spread beyond the bound: %+v, want unresolved", c)
	}
	fast := make([]float64, len(wide))
	for i := range fast {
		fast[i] = 10 - float64(i)/10
	}
	ps, cs = sides("exec_geomean_ms", wide, fast)
	if c := verdict(t, Compare(ps, cs), "exec_geomean_ms"); c.Verdict != Improved && c.Verdict != BetterEveryRun {
		t.Fatalf("every change run below every parent run: %+v", c)
	}

	var out bytes.Buffer
	ps, cs = sides("exec_geomean_ms", steady, scaled(steady, 1+2*b))
	if !FormatComparisons(&out, Compare(ps, cs)) || !strings.Contains(out.String(), Regressed) {
		t.Fatalf("FormatComparisons did not report the regression:\n%s", out.String())
	}
}

func TestReadReportsSkipsTracedRuns(t *testing.T) {
	ps, cs := sides("exec_geomean_ms", steady, steady)
	traced := ps[0]
	traced.Trace = true
	traced.Result.Metrics = map[string]Value{"vm.run_ms": {Value: 1, Unit: "ms"}}
	path := filepath.Join(t.TempDir(), "parent.jsonl")
	var buf bytes.Buffer
	for _, r := range append([]Report{traced}, ps...) {
		line, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		buf.Write(append(line, '\n'))
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	read, err := ReadReports(path)
	if err != nil || len(read) != len(ps)+1 {
		t.Fatalf("ReadReports: %d records, %v", len(read), err)
	}
	if c := verdict(t, Compare(read, cs), "exec_geomean_ms"); c.Pairs != len(ps) {
		t.Fatalf("%d pairs, want %d untraced", c.Pairs, len(ps))
	}
}
