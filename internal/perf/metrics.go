package perf

import (
	"math"
	"sort"
)

// Metric is one reported number: its name, unit, which direction is
// better, and (end-to-end metrics only) the share of the parent's median
// by which it may worsen before a change counts as a regression.
// BENCHMARK.json at the repository root lists the same table; a test
// holds the two equal.
type Metric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// lower reports whether smaller values are better.
func (m Metric) lower() bool { return m.Better == "lower" }

// EndToEnd lists what a user of the system sees. Every workload reports
// every one of them (with -trace 0), each measured with tracing off.
var EndToEnd = []Metric{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "exec_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "compile_geomean_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sim_overhead_geomean", Unit: "ratio", Better: "lower", Bound: 0.05},
	{Name: "throughput_ops_s", Unit: "ops/s", Better: "higher", Bound: 0.25},
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "latency_tail_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "alloc_mb_per_op", Unit: "MB", Better: "lower", Bound: 0.03},
}

// PerLayer lists the numbers of single layers, from a traced run (-trace
// 1). Every *_ms span metric is the mean self time per operation: the
// span's duration minus the part of it its child spans cover. A metric a
// workload cannot observe reads 0 there (the serve.* numbers outside
// serve-mixed, the in-process stage numbers inside it).
var PerLayer = []Metric{
	{Name: "cparser.parse_ms", Unit: "ms", Better: "lower"},
	{Name: "sema.typecheck_ms", Unit: "ms", Better: "lower"},
	{Name: "irgen.lower_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.pre_ms", Unit: "ms", Better: "lower"},
	{Name: "core.instrument_ms", Unit: "ms", Better: "lower"},
	{Name: "ir.link_ms", Unit: "ms", Better: "lower"},
	{Name: "opt.post_ms", Unit: "ms", Better: "lower"},
	{Name: "driver.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "libc.frontend_share", Unit: "ratio", Better: "lower"},
	{Name: "ir.insts_linked", Unit: "count", Better: "lower"},
	{Name: "ir.insts_final", Unit: "count", Better: "lower"},
	{Name: "opt.checks_removed", Unit: "count", Better: "higher"},
	{Name: "opt.metaloads_hoisted", Unit: "count", Better: "higher"},
	{Name: "meta.new_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.new_cold_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.new_warm_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.alloc_mb_per_run", Unit: "MB", Better: "lower"},
	{Name: "vm.run_ms", Unit: "ms", Better: "lower"},
	{Name: "vm.ns_per_inst", Unit: "ns", Better: "lower"},
	{Name: "vm.insts", Unit: "count", Better: "lower"},
	{Name: "meta.lookups", Unit: "count", Better: "lower"},
	{Name: "meta.lookaside_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "meta.table_bytes", Unit: "bytes", Better: "lower"},
	{Name: "driver.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "runtime.gc_cycles_per_op", Unit: "count", Better: "lower"},
	{Name: "runtime.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "serve.hit_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.miss_rtt_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.compile_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.execute_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.wait_ms", Unit: "ms", Better: "lower"},
	{Name: "serve.cache_hit_ratio", Unit: "ratio", Better: "higher"},
	{Name: "serve.shed", Unit: "count", Better: "lower"},
	{Name: "load.lag_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.overhead_ratio", Unit: "ratio", Better: "lower"},
}

// sorted returns a sorted copy.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle sample, or the mean of the two middle ones (0 for
// no samples).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method),
// so the spread sbperf -compare prints is the one the benchmark contract
// measures. Fewer than two samples give the sample itself twice.
func quartiles(xs []float64) (q1, q3 float64) {
	s := sorted(xs)
	ld := len(s)
	switch ld {
	case 0:
		return 0, 0
	case 1:
		return s[0], s[0]
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		if j < 1 {
			j = 1
		} else if j > ld-1 {
			j = ld - 1
		}
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// mean is the arithmetic mean (0 for no samples).
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// geomean is the geometric mean of positive samples: the average of
// ratios and of times that span orders of magnitude across programs.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var logs float64
	for _, x := range xs {
		logs += math.Log(x)
	}
	return math.Exp(logs / float64(len(xs)))
}

// minBeyond is how many samples must lie beyond a reported percentile.
const minBeyond = 10

// tailPercentile picks the tail percentile to report for n samples: the
// highest of p99, p95 and p90 that has at least minBeyond samples beyond
// it (p50 when none does).
func tailPercentile(n int) float64 {
	for _, p := range []float64{0.99, 0.95, 0.90} {
		if n-rank(n, p) >= minBeyond {
			return p
		}
	}
	return 0.50
}

// rank is the 1-based nearest-rank position of percentile p in n samples.
func rank(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile is the nearest-rank percentile p of xs. A failed or refused
// operation enters xs as +Inf, so it counts as missing every percentile
// it reaches.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	return s[rank(len(s), p)-1]
}
