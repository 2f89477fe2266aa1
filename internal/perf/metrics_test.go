package perf

import (
	"errors"
	"math"
	"testing"
	"time"
)

// metricByName resolves a metric of either table.
func metricByName(name string) (Metric, bool) {
	for _, table := range [][]Metric{EndToEnd, PerLayer} {
		for _, m := range table {
			if m.Name == name {
				return m, true
			}
		}
	}
	return Metric{}, false
}

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{5000, 0.99}, {1000, 0.99}, {999, 0.95}, {200, 0.95}, {199, 0.90}, {100, 0.90}, {99, 0.50}, {3, 0.50},
	} {
		p := tailPercentile(tc.n)
		if p != tc.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", tc.n, p, tc.want)
		}
		if p > 0.5 && tc.n-rank(tc.n, p) < minBeyond {
			t.Errorf("n=%d: p%g leaves %d samples beyond it", tc.n, 100*p, tc.n-rank(tc.n, p))
		}
	}
}

// The quartiles are Python's statistics.quantiles(xs, n=4), the spread
// the benchmark contract is judged by.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 4, 1, 5}, 1, 4.5},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{7}, 7, 7},
	} {
		q1, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", tc.xs, q1, q3, tc.q1, tc.q3)
		}
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Errorf("median = %g, want 2.5", m)
	}
}

func TestGeomean(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{2, 8}, 4},
		{[]float64{1, 10, 100}, 10},
		{[]float64{3}, 3},
		{nil, 0},
	} {
		if got := geomean(tc.xs); math.Abs(got-tc.want) > 1e-9 {
			t.Errorf("geomean(%v) = %g, want %g", tc.xs, got, tc.want)
		}
	}
}

// A failed operation counts as missing every latency percentile: it
// enters the samples as +Inf, so enough failures push any percentile,
// the median included, past every successful latency.
func TestFailuresCountAsMissedLatency(t *testing.T) {
	ops := make([]opStat, 100)
	for i := range ops {
		ops[i].latency = time.Duration(i+1) * time.Millisecond
	}
	lat := latencies(ops)
	if p := percentile(lat, 0.99); p != 99 {
		t.Fatalf("p99 without failures = %g, want 99", p)
	}

	// The two fastest operations fail: p99 now lands on a failure even
	// though every failed operation was quick.
	ops[0].err, ops[1].err = errors.New("wrong answer"), errors.New("HTTP 429")
	lat = latencies(ops)
	if p := percentile(lat, 0.99); !math.IsInf(p, 1) {
		t.Errorf("p99 with 2%% failed = %g, want +Inf", p)
	}
	if p := percentile(lat, 0.95); p != 97 {
		t.Errorf("p95 with 2%% failed = %g, want 97 (shifted up by the failures)", p)
	}
	if m := median(lat); m != 52.5 {
		t.Errorf("median with 2%% failed = %g, want 52.5", m)
	}
	for i := 2; i < 60; i++ {
		ops[i].err = errors.New("wrong answer")
	}
	if m := median(latencies(ops)); !math.IsInf(m, 1) {
		t.Errorf("median with 60%% failed = %g, want +Inf", m)
	}
	if v := finite(math.Inf(1)); v != math.MaxFloat64 {
		t.Errorf("finite(+Inf) = %g, want the largest float", v)
	}
}
