// Command sbperf is the repository's benchmark. One command builds the
// inputs from a seed, measures a workload for a fixed time, checks every
// answer against the reference engine, and prints every metric by name
// and unit; its last line is a JSON summary
// {"correct", "attempted", "failed", "metrics"}. BENCHMARK.json at the
// repository root names the command, the workloads and the metrics.
//
// Usage:
//
//	sbperf [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-rate R]
//	       [-smoke] [-out FILE] [-spans FILE]
//	sbperf -compare PARENT CHANGE
//
// Without -workload, sbperf runs every workload, each in its own child
// process, one after another. cmd/sbperf/run.sh builds sbperf inside the
// checkout (under .bench_build/) and runs it with its arguments.
//
// # Workloads
//
// Inputs are a pure function of -seed. Seed 1 is the default; seed 2 is
// held out, so a claimed gain can be checked on inputs it was not tuned
// on. Load comes from this one process, with at most one client or
// connection per CPU.
//
//   - figure2: the paper's 15 programs at their default scale under the
//     baseline and 4 schemes × {store-only, full}, 135 cells, run one at
//     a time and recompiled on every pass, cells in a seeded order.
//     Execution is ~90% of the time, so engine and metadata changes show
//     (SPEC-style rows move few pointers, Olden-style rows many); serve
//     is bypassed.
//   - gen-oneshot: seeded generated programs from a pool of 256 (three
//     clean to one planted), each compiled and executed once under a
//     rotating configuration, closed loop. An operation is ~17 ms of
//     which the program runs ~0.1 ms: this shows per-request fixed cost
//     (libc recompiled per compile, VM segments and metadata tables per
//     run) and should not move with engine speedups.
//   - serve-mixed: HTTP /run against an in-process server with sbserve's
//     defaults. Half the requests come from a hot set that always hits
//     the compile cache; the rest cycle through far more than the cache's
//     128 keys, so they always miss, and a tenth of them are planted. A
//     closed loop for a third of the time measures capacity; an open loop
//     at -rate requests per second for the rest measures latency from
//     each request's due time. The only workload through admission, JSON
//     and the cache; hits and misses use the cache in opposite ways.
//
// # End-to-end metrics
//
// Reported with -trace 0. A failed or refused operation counts as
// missing every latency percentile. Bound is how far the median may
// worsen, as a share of the parent's, before a change is a regression.
//
//	metric                unit   better  bound  meaning
//	setup_s               s      lower   25%    median of 3 set-ups: pool, reference-engine oracles, server start
//	exec_geomean_ms       ms     lower   25%    geomean of ExecuteContext time (figure2: of per-cell medians; serve: execute phase)
//	compile_geomean_ms    ms     lower   25%    the same for CompileWithStats (serve: compile phase of misses)
//	sim_overhead_geomean  ratio  lower    5%    geomean of checked SimInsts over the baseline's; guards the Figure 2 shape
//	throughput_ops_s      ops/s  higher  25%    operations per second (figure2: of an average pass; serve: closed phase)
//	latency_p50_ms        ms     lower   25%    median operation latency (serve: open phase, from due time)
//	latency_tail_ms       ms     lower   25%    highest of p99/p95/p90 with >= 10 samples beyond it; the output names it
//	cpu_ms_per_op         ms     lower   25%    process user+sys time per operation
//	alloc_mb_per_op       MB     lower    3%    bytes allocated per operation
//
// The time bounds are wide because a 2-CPU virtual machine drifts: over
// twenty 30-second runs of figure2, spread out over five minutes, the
// median execute time moved from 32 to 49 ms while process CPU time per
// operation moved with it, so the machine, not the benchmark, slowed. In
// a quiet period the spread across seeds is 2-6%. sim_overhead_geomean
// is exact on figure2 and varies about 1% with the seed's programs on
// the other two workloads; alloc_mb_per_op repeats within 0.4%.
//
// Failed operations (wrong answers, unexpected traps, non-200 or
// unstructured responses) are counted in "failed"; any makes sbperf exit
// 1.
//
// # Per-layer metrics
//
// Reported with -trace 1. After a discarded warm-up (a sixth of the
// run) a third runs untraced; the last half replays each compile stage
// by stage and each execute as facility construction, vm.New and
// RunContext, recording spans around the calls into each layer (-spans
// writes them out). A *_ms layer metric is the mean self time per
// operation: the span's duration minus the part its child spans cover.
// Serve spans come from each response's phases. vm.new_warm_ms is a
// second vm.New on an already decoded module, probed for 16 of the
// window's programs after the window, so its allocation does not shift
// the timed operations' garbage collection. A layer a workload cannot
// observe reads 0. trace.overhead_ratio is the traced median latency
// over the untraced one. gen-oneshot's traced run uses one client, so
// the allocation counter read around each execute is that execute's
// alone.
//
// # Comparing two commits
//
// A gain is claimed only from at least ten pairs of runs of identical
// benchmark code and settings, alternating which side runs first. With
// the parent and the change checked out side by side in parent/ and
// change/ (git clone or git archive), for each workload the change runs
// through:
//
//	for i in 1 2 3 4 5 6 7 8 9 10; do
//	  if [ $((i % 2)) = 1 ]; then order="parent change"; else order="change parent"; fi
//	  for side in $order; do
//	    (cd $side && bash cmd/sbperf/run.sh -workload figure2 -out ../$side.jsonl)
//	  done
//	done
//	(cd change && go run ./cmd/sbperf -compare ../parent.jsonl ../change.jsonl)
//
// -compare pairs the i-th runs of each side per workload and prints each
// side's median and quartiles per metric. "improved" needs the change to
// win at least 9 of 10 pairs (ties count for neither) and its median to
// beat the parent's by more than the parent's interquartile range; the
// claim must then hold again with -seed 2. Every other metric is "within
// bound", "regressed" (median worse by more than the bound), or
// "unresolved" when either side's runs spread wider than the bound.
// sbperf -compare exits 1 if anything regressed.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"softbound/internal/perf"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("sbperf", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run: "+strings.Join(perf.Workloads, ", ")+" (empty: each, in its own child process)")
	seed := fs.Uint64("seed", perf.DefaultSeed, "input seed")
	seconds := fs.Int("seconds", perf.DefaultSeconds, "measured seconds per run (2 with -smoke unless set)")
	trace := fs.Int("trace", 0, "1 for a traced run reporting the per-layer metrics")
	rate := fs.Float64("rate", perf.DefaultRate, "serve-mixed open-loop rate, requests per second")
	smoke := fs.Bool("smoke", false, "small inputs and one set-up, for a quick check of the whole path")
	out := fs.String("out", "", "append the run's full record to this file as one JSON line")
	spans := fs.String("spans", "", "write a traced run's spans to this file")
	compare := fs.Bool("compare", false, "compare two files of -out records: sbperf -compare PARENT CHANGE")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return runCompare(fs.Args(), stdout, stderr)
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "sbperf: unexpected arguments; -trace takes 0 or 1")
		return 2
	}
	secondsSet := false
	fs.Visit(func(f *flag.Flag) { secondsSet = secondsSet || f.Name == "seconds" })
	if *smoke && !secondsSet {
		*seconds = 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	if *workload == "" {
		return runAll(ctx, args, *spans, stdout, stderr)
	}

	rep, err := perf.Run(ctx, perf.Options{
		Workload: *workload,
		Seed:     *seed,
		Seconds:  time.Duration(*seconds) * time.Second,
		Trace:    *trace == 1,
		Rate:     *rate,
		Smoke:    *smoke,
		Log:      stderr,
	})
	if err != nil {
		fmt.Fprintf(stderr, "sbperf: %v\n", err)
		return 1
	}
	printReport(stdout, rep)
	for _, f := range rep.Failures {
		fmt.Fprintf(stderr, "sbperf: FAILED %s\n", f)
	}
	if *out != "" {
		if err := appendRecord(*out, rep); err != nil {
			fmt.Fprintf(stderr, "sbperf: %v\n", err)
			return 1
		}
	}
	if *spans != "" {
		if err := perf.WriteSpans(*spans, rep.Spans()); err != nil {
			fmt.Fprintf(stderr, "sbperf: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(rep.Result)
	if err != nil {
		fmt.Fprintf(stderr, "sbperf: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !rep.Result.Correct {
		return 1
	}
	return 0
}

// runAll runs each workload in a child process of this same binary, one
// after another, so no workload inherits another's heap.
func runAll(ctx context.Context, args []string, spans string, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "sbperf: %v\n", err)
		return 1
	}
	status := 0
	for _, wl := range perf.Workloads {
		childArgs := append(append([]string(nil), args...), "-workload", wl)
		if spans != "" {
			ext := filepath.Ext(spans)
			childArgs = append(childArgs, "-spans", strings.TrimSuffix(spans, ext)+"."+wl+ext)
		}
		cmd := exec.CommandContext(ctx, self, childArgs...)
		cmd.Stdout, cmd.Stderr = stdout, stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(stderr, "sbperf: %s: %v\n", wl, err)
			status = 1
		}
	}
	return status
}

func printReport(w io.Writer, rep *perf.Report) {
	e := rep.Env
	fmt.Fprintf(w, "sbperf: workload=%s seed=%d seconds=%g trace=%v rate=%g smoke=%v\n",
		rep.Workload, rep.Seed, rep.Seconds, rep.Trace, rep.Rate, rep.Smoke)
	fmt.Fprintf(w, "sbperf: nproc=%d gomaxprocs=%d go=%s os=%s cpu=%q\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.OS, e.CPU)
	table := perf.EndToEnd
	if rep.Trace {
		table = perf.PerLayer
	}
	for _, m := range table {
		v := rep.Result.Metrics[m.Name]
		fmt.Fprintf(w, "  %-26s %14.4f %-6s %s\n", m.Name, v.Value, v.Unit, rep.Notes[m.Name])
	}
	fmt.Fprintf(w, "sbperf: attempted=%d failed=%d correct=%v\n",
		rep.Result.Attempted, rep.Result.Failed, rep.Result.Correct)
}

func appendRecord(path string, rep *perf.Report) error {
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func runCompare(files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "sbperf: -compare takes two files: PARENT CHANGE")
		return 2
	}
	var sides [2][]perf.Report
	for i, path := range files {
		reports, err := perf.ReadReports(path)
		if err != nil {
			fmt.Fprintf(stderr, "sbperf: %v\n", err)
			return 1
		}
		sides[i] = reports
	}
	cs := perf.Compare(sides[0], sides[1])
	if len(cs) == 0 {
		fmt.Fprintln(stderr, "sbperf: no workload has untraced runs in both files")
		return 1
	}
	if perf.FormatComparisons(stdout, cs) {
		return 1
	}
	return 0
}
