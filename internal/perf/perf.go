// Package perf is the repository's benchmark harness, driven by
// cmd/sbperf. It measures the system from outside, through the public
// functions a user calls: driver.CompileWithStats and
// driver.ExecuteContext in process, and HTTP /run against a serve.Server
// listening on 127.0.0.1. Every setting is the system's default (engine,
// scheme, server options as sbserve starts them), so a change to a
// default shows in the numbers.
//
// A run measures one workload (see Workloads) for a fixed time, checks
// every answer against the reference engine, and reports either the
// end-to-end metrics (EndToEnd, tracing off) or the per-layer metrics
// (PerLayer, from a traced run that replays the driver stage by stage;
// see replay.go).
package perf

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// Workloads are the benchmark's workloads, in the order sbperf runs them.
var Workloads = []string{"figure2", "gen-oneshot", "serve-mixed"}

// Defaults committed with the benchmark. HeldOutSeed is kept out of
// development so a claimed gain can be checked on inputs it was not
// tuned on.
const (
	DefaultSeed    = 1
	HeldOutSeed    = 2
	DefaultSeconds = 30
	// DefaultRate is serve-mixed's open-loop rate in requests per
	// second: about half its closed-loop capacity of 70-80 req/s on a
	// 2-CPU Intel Xeon machine, so requests rarely queue but latency
	// still feels load. BENCHMARK.json commits it in its command.
	DefaultRate = 40

	poolSize      = 256
	smokePoolSize = 24
	setupRepeats  = 3
)

// Options selects one run.
type Options struct {
	Workload string
	Seed     uint64
	// Seconds is how long the run measures.
	Seconds time.Duration
	// Trace selects a traced run reporting the per-layer metrics.
	Trace bool
	// Rate is serve-mixed's open-loop request rate (req/s).
	Rate float64
	// Smoke shrinks the inputs (a 24-program pool, the paper programs
	// at small scale) and sets up once, for a quick end-to-end check.
	Smoke bool
	// Log receives progress lines (nil = silent).
	Log io.Writer
}

// Value is one reported metric value.
type Value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the summary a run prints as its last line.
type Result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]Value `json:"metrics"`
}

// Env describes the machine a run measured.
type Env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	OS         string `json:"os"`
}

// Report is a run's full record: the result plus what is needed to read
// it later (machine, seed, notes on how each metric was taken, the first
// failures). sbperf -out appends it as one JSON line; -compare reads
// those lines.
type Report struct {
	Workload string            `json:"workload"`
	Seed     uint64            `json:"seed"`
	Seconds  float64           `json:"seconds"`
	Trace    bool              `json:"trace"`
	Rate     float64           `json:"rate"`
	Smoke    bool              `json:"smoke,omitempty"`
	Started  time.Time         `json:"started"`
	Env      Env               `json:"env"`
	Result   Result            `json:"result"`
	Notes    map[string]string `json:"notes,omitempty"`
	Failures []string          `json:"failures,omitempty"`

	spans []Span
}

// Spans returns a traced run's spans.
func (r *Report) Spans() []Span { return r.spans }

// workload is one traffic mix. setup builds the inputs and their known
// answers (and whatever must run before timing starts); it may be called
// again and then starts over. measure runs the mix for d, recording spans
// into tr when it is non-nil.
type workload interface {
	setup(ctx context.Context) error
	measure(ctx context.Context, d time.Duration, tr *tracer) (*window, error)
	endToEnd(w *window) (map[string]float64, map[string]string)
	perLayer(w *window, spans []Span) map[string]float64
	close()
}

func newWorkload(o Options) (workload, error) {
	switch o.Workload {
	case "figure2":
		return &figure2{o: o}, nil
	case "gen-oneshot":
		return &oneshot{o: o}, nil
	case "serve-mixed":
		return &serveMixed{o: o}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", o.Workload, strings.Join(Workloads, ", "))
}

// clients is how many operations a workload keeps in flight: one per CPU
// the machine has, as the benchmark's load never exceeds nproc.
func clients() int { return runtime.NumCPU() }

// Run performs one benchmark run.
func Run(ctx context.Context, o Options) (*Report, error) {
	if o.Seconds <= 0 {
		o.Seconds = DefaultSeconds * time.Second
	}
	if o.Rate <= 0 {
		o.Rate = DefaultRate
	}
	w, err := newWorkload(o)
	if err != nil {
		return nil, err
	}
	defer w.close()
	rep := &Report{
		Workload: o.Workload, Seed: o.Seed, Seconds: o.Seconds.Seconds(), Trace: o.Trace,
		Rate: o.Rate, Smoke: o.Smoke, Started: time.Now(), Env: readEnv(), Notes: map[string]string{},
	}

	// Set-up is timed on its own and repeated, so work moved into it
	// shows; the median resists one slow repetition.
	repeats := setupRepeats
	if o.Smoke || o.Trace {
		repeats = 1
	}
	var setups []float64
	for i := 0; i < repeats; i++ {
		start := time.Now()
		if err := w.setup(ctx); err != nil {
			return nil, fmt.Errorf("%s set-up: %w", o.Workload, err)
		}
		setups = append(setups, time.Since(start).Seconds())
		logf(o.Log, "sbperf: %s set-up %d/%d took %.3fs", o.Workload, i+1, repeats, setups[i])
	}

	var values map[string]float64
	var windows []*window
	if !o.Trace {
		win, err := w.measure(ctx, o.Seconds, nil)
		if err != nil {
			return nil, err
		}
		windows = append(windows, win)
		var notes map[string]string
		values, notes = w.endToEnd(win)
		values["setup_s"] = median(setups)
		notes["setup_s"] = fmt.Sprintf("median of %d set-ups %.3f", len(setups), setups)
		rep.Notes = notes
	} else {
		// A sixth warms the process up (heap size, first-use work) and is
		// discarded; a third then runs untraced, so the cost of tracing
		// itself is measured against the same inputs in the same process;
		// the last half is traced.
		warm, err := w.measure(ctx, o.Seconds/6, nil)
		if err != nil {
			return nil, err
		}
		base, err := w.measure(ctx, o.Seconds/3, nil)
		if err != nil {
			return nil, err
		}
		tr := newTracer()
		win, err := w.measure(ctx, o.Seconds-o.Seconds/6-o.Seconds/3, tr)
		if err != nil {
			return nil, err
		}
		windows = append(windows, warm, base, win)
		rep.spans = tr.snapshot()
		values = w.perLayer(win, rep.spans)
		values["runtime.peak_rss_mb"] = peakRSSMB()
		values["trace.overhead_ratio"] = median(win.lat) / median(base.lat)
		rep.Notes["trace.overhead_ratio"] = fmt.Sprintf("traced p50 %.3fms over untraced p50 %.3fms",
			median(win.lat), median(base.lat))
	}

	for _, win := range windows {
		rep.Result.Attempted += len(win.ops)
		for _, op := range win.ops {
			if op.err != nil {
				rep.Result.Failed++
				if len(rep.Failures) < 10 {
					rep.Failures = append(rep.Failures, op.err.Error())
				}
			}
		}
	}
	rep.Result.Correct = rep.Result.Failed == 0 && rep.Result.Attempted > 0
	table := EndToEnd
	if o.Trace {
		table = PerLayer
	}
	rep.Result.Metrics = make(map[string]Value, len(table))
	for _, m := range table {
		v, ok := values[m.Name]
		if !ok {
			return nil, fmt.Errorf("%s: metric %s not computed", o.Workload, m.Name)
		}
		rep.Result.Metrics[m.Name] = Value{Value: finite(v), Unit: m.Unit}
	}
	return rep, nil
}

// finite maps a latency percentile that landed on a failed operation
// (+Inf) to the largest float, which JSON can carry.
func finite(v float64) float64 {
	if math.IsInf(v, 1) || math.IsNaN(v) {
		return math.MaxFloat64
	}
	return v
}

func logf(w io.Writer, format string, args ...any) {
	if w != nil {
		fmt.Fprintf(w, format+"\n", args...)
	}
}

// window is what one measurement observed.
type window struct {
	ops []opStat
	// span is the wall time a closed loop's throughput is taken over and
	// done the operations that completed in it (serve-mixed: its closed
	// phase; figure2 takes its throughput from per-cell medians instead).
	span time.Duration
	done int
	lat  []float64 // operation latencies in ms; +Inf for a failed one
	lags []float64 // open-loop send lag in ms
	use  usage     // resources the process used over the whole window
}

// opStat is one operation's measurements.
type opStat struct {
	cell             string
	compile, execute time.Duration // 0 where not measured
	latency          time.Duration
	err              error // wrong answer or failed request
	sim              float64
	// Resource use of this operation alone (figure2, which runs one at
	// a time).
	cpu   time.Duration
	alloc uint64

	// Layer counters, filled in traced in-process operations (and the
	// VM counters from serve responses).
	counts     irCounts
	checksRm   uint64
	hoisted    uint64
	insts      uint64
	metaLoads  uint64
	lookHits   uint64
	lookMisses uint64
	metaBytes  int64
	runAlloc   uint64

	// serve-mixed
	status int
	hit    bool
	rtt    time.Duration // send to response, without any open-loop lag
}

// usage is a snapshot of process-wide resource counters.
type usage struct {
	cpu   time.Duration
	alloc uint64
	gcs   uint32
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return usage{
		cpu:   time.Duration(ru.Utime.Nano() + ru.Stime.Nano()),
		alloc: ms.TotalAlloc,
		gcs:   ms.NumGC,
	}
}

func (u usage) sub(v usage) usage {
	return usage{cpu: u.cpu - v.cpu, alloc: u.alloc - v.alloc, gcs: u.gcs - v.gcs}
}

func peakRSSMB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return float64(ru.Maxrss) * 1024 / 1e6          // Maxrss is in KiB on Linux
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// latencies returns the operations' latencies in ms, failed ones as +Inf.
func latencies(ops []opStat) []float64 {
	out := make([]float64, len(ops))
	for i, op := range ops {
		out[i] = ms(op.latency)
		if op.err != nil {
			out[i] = math.Inf(1)
		}
	}
	return out
}

// addLatency sets the p50 and tail metrics from latency samples and notes
// which percentile the tail is and over how many samples.
func addLatency(values map[string]float64, notes map[string]string, lat []float64, what string) {
	p := tailPercentile(len(lat))
	values["latency_p50_ms"] = median(lat)
	values["latency_tail_ms"] = percentile(lat, p)
	notes["latency_p50_ms"] = fmt.Sprintf("median of %d %s", len(lat), what)
	notes["latency_tail_ms"] = fmt.Sprintf("p%g of %d %s", 100*p, len(lat), what)
}

func readEnv() Env {
	return Env{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
		OS:         runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// cpuModel reads the processor name the kernel reports ("" when it
// reports none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
