// Package serve is the resilient execution service: a long-running
// HTTP/JSON front end that compiles and executes C programs under any
// metadata scheme and protection mode, engineered to stay up
// under hostile input and overload.
//
// The failure-containment stack, outside in:
//
//   - Admission control: a bounded queue feeds a fixed worker pool; when
//     the queue is full the request is shed with 429 + Retry-After rather
//     than spawning goroutines without bound.
//   - Circuit breakers: per program hash (SHA-256 of the source), opened
//     after Threshold consecutive contained crashes or step-limit traps;
//     open breakers fast-fail with 503 while periodic half-open probes
//     test recovery.
//   - Compile cache: keyed by (source hash, scheme, mode, optimize) with
//     singleflight, so a stampede of identical requests compiles once; a
//     compiled module is immutable under execution and shared across
//     concurrent VMs. Compile failures — including recovered compiler
//     panics (driver.CompileError, Stage "panic") — are cached 400s, not
//     dead servers.
//   - Bounded retry: contained non-deterministic crashes (recovered VM
//     panics) are retried with exponential backoff + jitter under the
//     shared internal/retry policy; deterministic traps — deadlines
//     included, per the bench harness's rule — are never retried.
//   - Crash-replay bundles: every trap spools a deterministic Bundle
//     (source, scheme, mode, seeded fault plan, budgets, observed trap)
//     that `sbserve -replay` re-executes offline to the identical
//     TrapCode.
//
// Endpoints: POST /run (execute), /healthz (liveness), /readyz
// (readiness; 503 while draining), /statz (counters, queue, breakers,
// cache — JSON built on metrics.CounterSet).
package serve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"softbound/internal/driver"
	"softbound/internal/faults"
	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/metrics"
	"softbound/internal/retry"
	"softbound/internal/vm"
)

// Options configures a Server. The zero value serves with the documented
// defaults.
type Options struct {
	// Workers is the execution pool size (0 = NumCPU).
	Workers int
	// QueueDepth bounds the admission queue (0 = 2×Workers). A full
	// queue sheds with 429.
	QueueDepth int
	// DefaultTimeout is the per-request VM deadline when the request
	// names none (0 = 5s); MaxTimeout caps client-requested deadlines
	// (0 = 30s).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// StepLimit is the default VM instruction budget per request (0 =
	// the driver default); MaxSteps caps client-requested budgets
	// (0 = uncapped).
	StepLimit uint64
	MaxSteps  uint64
	// MaxSourceBytes bounds accepted source size (0 = 1 MiB).
	MaxSourceBytes int64
	// CacheEntries bounds the compile cache (0 = 128).
	CacheEntries int
	// SpoolDir receives crash-replay bundles ("" = spooling off).
	SpoolDir string
	// Breaker tunes the per-program circuit breakers.
	Breaker BreakerConfig
	// Retry is the policy for contained non-deterministic crashes
	// (zero value = 2 attempts, 50ms base backoff, 1s cap).
	Retry retry.Policy
	// Restarts is the supervisor-reported restart generation of this
	// process (how many times a supervisor has respawned this backend).
	// It is surfaced verbatim as /statz restarts_observed so a router —
	// or a human tailing /statz — can detect silent backend flaps even
	// though each incarnation starts from a fresh process.
	Restarts uint64
	// Log receives one line per completed run and service event (nil =
	// silent).
	Log io.Writer
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 2 * o.Workers
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 5 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 30 * time.Second
	}
	if o.MaxSourceBytes <= 0 {
		o.MaxSourceBytes = 1 << 20
	}
	if o.CacheEntries <= 0 {
		o.CacheEntries = 128
	}
	if o.Breaker.Threshold == 0 {
		o.Breaker.Threshold = 3
	}
	if o.Retry.MaxAttempts == 0 {
		o.Retry = retry.Policy{MaxAttempts: 2, BaseDelay: 50 * time.Millisecond, MaxDelay: time.Second, Seed: o.Retry.Seed}
	}
	return o
}

// Request is the POST /run body.
type Request struct {
	// Source is the C program (one translation unit).
	Source string `json:"source"`
	// Scheme names a metadata scheme, one of meta.Kinds (default
	// "shadowspace"; ignored when Mode is "none").
	Scheme string `json:"scheme,omitempty"`
	// Mode is "none", "store-only", or "full" (default "full").
	Mode string `json:"mode,omitempty"`
	// TimeoutMillis overrides the VM deadline, capped at MaxTimeout.
	TimeoutMillis int64 `json:"timeout_ms,omitempty"`
	// Steps overrides the VM instruction budget, capped at MaxSteps.
	Steps uint64 `json:"steps,omitempty"`
	// Faults is a seeded fault plan in faults.ParsePlan syntax.
	Faults string `json:"faults,omitempty"`
	// Args are the program's argv[1:].
	Args []string `json:"args,omitempty"`
	// NoOptimize disables the optimizer for this request.
	NoOptimize bool `json:"no_optimize,omitempty"`
	// Engine selects the interpreter: "" or "fast" (default) for the
	// pre-decoded fast engine, "ref" for the reference interpreter.
	Engine string `json:"engine,omitempty"`
}

// Response is the /run result. Field names share the BENCH.json
// vocabulary (trap_code, stats, phases, wall_nanos) so scripting against
// the service and against sbbench output is the same code.
type Response struct {
	// Program is the source's hex SHA-256 (the breaker/cache identity).
	Program string `json:"program"`
	// Config is "baseline" or "<scheme>-<mode>", as in BENCH.json.
	Config   string `json:"config"`
	ExitCode int64  `json:"exit_code"`
	Output   string `json:"output"`
	TrapCode string `json:"trap_code,omitempty"`
	Error    string `json:"error,omitempty"`
	// Violation carries the SoftBound detection message when the trap is
	// a spatial violation.
	Violation string                `json:"violation,omitempty"`
	Stats     *metrics.Report       `json:"stats,omitempty"`
	Phases    []metrics.PhaseTiming `json:"phases,omitempty"`
	WallNanos int64                 `json:"wall_nanos"`
	CacheHit  bool                  `json:"cache_hit"`
	// Attempts > 1 records containment retries (shared retry policy).
	Attempts int `json:"attempts,omitempty"`
	// Bundle is the spooled crash-replay bundle path (traps only, and
	// only when spooling is configured).
	Bundle string `json:"bundle,omitempty"`
}

// ErrorBody is every non-200 JSON body.
type ErrorBody struct {
	Error string `json:"error"`
	// Compile carries the typed compiler failure for 400s.
	Compile *CompileErrorBody `json:"compile,omitempty"`
	// RetryAfterMillis mirrors the Retry-After header for 429/503.
	RetryAfterMillis int64 `json:"retry_after_ms,omitempty"`
	// Breaker is the program's breaker state when it caused the failure.
	Breaker string `json:"breaker,omitempty"`
}

// CompileErrorBody is the JSON view of a driver.CompileError.
type CompileErrorBody struct {
	Stage   string `json:"stage"`
	Unit    string `json:"unit,omitempty"`
	Message string `json:"message"`
}

// job is one admitted request travelling from handler to worker.
type job struct {
	req  Request
	key  cacheKey
	hash string
	done chan jobResult
	// ctx is the request context: execution is cancelled with it, so an
	// abandoned client's queued work finishes fast instead of burning a
	// worker for the full budget.
	ctx context.Context
}

type jobResult struct {
	status int
	body   any
}

// Server is the resilient execution service. Create with New, mount
// Handler on an http.Server, and Close on shutdown.
type Server struct {
	opts     Options
	jobs     chan *job
	workers  sync.WaitGroup
	counters *metrics.CounterSet
	cache    *compileCache
	breakers *breakerSet

	// draining flips readiness and rejects new /run work; drainMu is the
	// send barrier that makes closing jobs safe (senders hold RLock for
	// the admission check + enqueue; Close takes Lock after flipping
	// draining, so no sender can race the close).
	draining atomic.Bool
	drainMu  sync.RWMutex
	closed   atomic.Bool

	bundleSeq atomic.Uint64
	logMu     sync.Mutex
	started   time.Time

	// Metadata-facility telemetry aggregated across runs for /statz:
	// occupancy gauges (last / high-water). The session soak polls
	// these to watch the runtime age.
	metaRuns      atomic.Uint64
	metaLiveLast  atomic.Int64
	metaLiveMax   atomic.Int64
	metaBytesLast atomic.Int64
	metaBytesMax  atomic.Int64
}

// observeRunMeta folds one run's end-of-run facility stats into the
// /statz meta gauges.
func (s *Server) observeRunMeta(st *metrics.Stats) {
	s.metaRuns.Add(1)
	s.metaLiveLast.Store(st.MetaLive)
	atomicMaxInt64(&s.metaLiveMax, st.MetaLive)
	s.metaBytesLast.Store(st.MetaBytes)
	atomicMaxInt64(&s.metaBytesMax, st.MetaBytes)
}

func atomicMaxInt64(g *atomic.Int64, v int64) {
	for {
		cur := g.Load()
		if v <= cur || g.CompareAndSwap(cur, v) {
			return
		}
	}
}

// New builds a Server and starts its worker pool.
func New(opts Options) *Server {
	o := opts.withDefaults()
	s := &Server{
		opts:     o,
		jobs:     make(chan *job, o.QueueDepth),
		counters: metrics.NewCounterSet(),
		cache:    newCompileCache(o.CacheEntries),
		breakers: newBreakerSet(o.Breaker),
		started:  time.Now(),
	}
	for i := 0; i < o.Workers; i++ {
		s.workers.Add(1)
		go s.worker()
	}
	return s
}

// NewHTTPServer wraps a handler in an http.Server hardened against slow
// clients: a header deadline (slow-loris headers), a read deadline (a
// request body trickling in one byte at a time cannot pin a connection
// for ever), and an idle keep-alive cap. WriteTimeout is deliberately
// left unset — /run responses legitimately take as long as the
// server-side VM budget allows, and that budget is already enforced per
// request; a write deadline would turn slow-but-legal executions into
// torn responses. Both sbserve and sbrouter listen through this.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       60 * time.Second,
	}
}

// Handler returns the service mux.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/run", s.handleRun)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/readyz", s.handleReadyz)
	mux.HandleFunc("/statz", s.handleStatz)
	return mux
}

// BeginDrain flips /readyz to 503 and makes /run reject new work, without
// waiting. Call it on SIGTERM so load balancers stop routing here while
// in-flight requests finish.
func (s *Server) BeginDrain() {
	if !s.draining.Swap(true) {
		s.logf("serve: draining")
	}
}

// Close drains and stops the worker pool: new work is rejected, every
// admitted job still completes and is answered, then workers exit.
// Idempotent; safe after BeginDrain.
func (s *Server) Close() {
	s.BeginDrain()
	// Taking the write lock after draining is set guarantees no handler
	// is between its admission check and its enqueue, so closing the
	// channel cannot race a send. Queued jobs drain to the workers.
	s.drainMu.Lock()
	s.drainMu.Unlock() //nolint:staticcheck // empty critical section is the barrier
	if !s.closed.Swap(true) {
		close(s.jobs)
	}
	s.workers.Wait()
}

// Counters exposes the service counters (tests and /statz).
func (s *Server) Counters() *metrics.CounterSet { return s.counters }

// BreakerState reports a program hash's breaker state name.
func (s *Server) BreakerState(hash string) string { return s.breakers.State(hash) }

func (s *Server) logf(format string, args ...any) {
	if s.opts.Log == nil {
		return
	}
	s.logMu.Lock()
	fmt.Fprintf(s.opts.Log, format+"\n", args...)
	s.logMu.Unlock()
}

func writeJSON(w http.ResponseWriter, status int, body any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(body)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.counters.Inc("http.healthz")
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.counters.Inc("http.readyz")
	if s.draining.Load() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
}

// Statz is the /statz document.
type Statz struct {
	Counters   map[string]uint64 `json:"counters"`
	Workers    int               `json:"workers"`
	QueueDepth int               `json:"queue_depth"`
	QueueCap   int               `json:"queue_cap"`
	Cache      cacheStats        `json:"cache"`
	// Breakers lists every non-closed breaker: program hash → state.
	Breakers map[string]string `json:"breakers,omitempty"`
	Draining bool              `json:"draining"`
	// UptimeSeconds and PID identify this incarnation of the process;
	// RestartsObserved is the supervisor-reported respawn count
	// (Options.Restarts). Together they make silent flaps visible: a
	// backend whose uptime keeps resetting while restarts_observed
	// climbs is crash-looping even if every individual poll looks fine.
	UptimeSeconds    float64 `json:"uptime_seconds"`
	PID              int     `json:"pid"`
	RestartsObserved uint64  `json:"restarts_observed"`
	// Meta reports metadata-facility occupancy aggregated over every
	// executed run (additive extension).
	Meta MetaStatz `json:"meta"`
}

// MetaStatz is the /statz "meta" section: per-run metadata-table
// occupancy gauges, the signals a long session soak asserts bounds on.
type MetaStatz struct {
	Runs           uint64 `json:"runs"`
	LiveLast       int64  `json:"live_entries_last"`
	LiveMax        int64  `json:"live_entries_max"`
	TableBytesLast int64  `json:"table_bytes_last"`
	TableBytesMax  int64  `json:"table_bytes_max"`
}

func (s *Server) metaStatz() MetaStatz {
	return MetaStatz{
		Runs:           s.metaRuns.Load(),
		LiveLast:       s.metaLiveLast.Load(),
		LiveMax:        s.metaLiveMax.Load(),
		TableBytesLast: s.metaBytesLast.Load(),
		TableBytesMax:  s.metaBytesMax.Load(),
	}
}

func (s *Server) handleStatz(w http.ResponseWriter, r *http.Request) {
	s.counters.Inc("http.statz")
	writeJSON(w, http.StatusOK, Statz{
		Counters:         s.counters.Snapshot(),
		Workers:          s.opts.Workers,
		QueueDepth:       len(s.jobs),
		QueueCap:         cap(s.jobs),
		Cache:            s.cache.stats(),
		Breakers:         s.breakers.Snapshot(),
		Draining:         s.draining.Load(),
		UptimeSeconds:    time.Since(s.started).Seconds(),
		PID:              os.Getpid(),
		RestartsObserved: s.opts.Restarts,
		Meta:             s.metaStatz(),
	})
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	s.counters.Inc("http.run")
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, ErrorBody{Error: "POST only"})
		return
	}
	var req Request
	// MaxBytesReader (not a bare LimitReader) closes the connection once
	// the cap is hit, so a hostile slow body can neither pin the
	// connection nor be silently truncated into a confusing parse error.
	body := http.MaxBytesReader(w, r.Body, s.opts.MaxSourceBytes+4096)
	if err := json.NewDecoder(body).Decode(&req); err != nil {
		s.counters.Inc("run.bad_request")
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			writeJSON(w, http.StatusRequestEntityTooLarge,
				ErrorBody{Error: fmt.Sprintf("request body exceeds %d bytes", mbe.Limit)})
			return
		}
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "bad request body: " + err.Error()})
		return
	}
	if req.Source == "" {
		s.counters.Inc("run.bad_request")
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: "empty source"})
		return
	}
	if int64(len(req.Source)) > s.opts.MaxSourceBytes {
		s.counters.Inc("run.bad_request")
		writeJSON(w, http.StatusRequestEntityTooLarge,
			ErrorBody{Error: fmt.Sprintf("source exceeds %d bytes", s.opts.MaxSourceBytes)})
		return
	}
	mode, err := parseMode(req.Mode)
	if err != nil {
		s.counters.Inc("run.bad_request")
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
		return
	}
	scheme := req.Scheme
	if scheme == "" {
		scheme = "shadowspace"
	}
	if mode != driver.ModeNone {
		if _, err := parseScheme(scheme); err != nil {
			s.counters.Inc("run.bad_request")
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
			return
		}
	}
	if req.Faults != "" {
		if _, err := faults.ParsePlan(req.Faults); err != nil {
			s.counters.Inc("run.bad_request")
			writeJSON(w, http.StatusBadRequest, ErrorBody{Error: err.Error()})
			return
		}
	}
	switch req.Engine {
	case "", "fast", "ref":
	default:
		s.counters.Inc("run.bad_request")
		writeJSON(w, http.StatusBadRequest, ErrorBody{Error: fmt.Sprintf(
			"unknown engine %q (want \"fast\" or \"ref\")", req.Engine)})
		return
	}

	sum := sha256.Sum256([]byte(req.Source))
	hash := hex.EncodeToString(sum[:])
	j := &job{
		req:  req,
		hash: hash,
		key:  cacheKey{hash: hash, scheme: scheme, mode: mode.String(), optimize: !req.NoOptimize},
		done: make(chan jobResult, 1),
		ctx:  r.Context(),
	}

	// Circuit breaker: poison programs fast-fail without touching the
	// pool while their breaker is open.
	allowed, _ := s.breakers.Allow(hash, time.Now())
	if !allowed {
		s.counters.Inc("run.breaker_fastfail")
		retryMs := s.breakers.cfg.Cooldown.Milliseconds()
		w.Header().Set("Retry-After", strconv.FormatInt(max64(1, retryMs/1000), 10))
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{
			Error:            "circuit breaker open for program " + hash[:12],
			Breaker:          s.breakers.State(hash),
			RetryAfterMillis: retryMs,
		})
		return
	}

	// Admission: reject while draining, shed when the bounded queue is
	// full. The RLock pairs with Close's Lock so the enqueue can never
	// race the channel close.
	s.drainMu.RLock()
	if s.draining.Load() {
		s.drainMu.RUnlock()
		s.breakers.Cancel(hash)
		s.counters.Inc("run.draining_reject")
		writeJSON(w, http.StatusServiceUnavailable, ErrorBody{Error: "server draining"})
		return
	}
	select {
	case s.jobs <- j:
		s.drainMu.RUnlock()
		s.counters.Inc("run.admitted")
	default:
		s.drainMu.RUnlock()
		s.breakers.Cancel(hash)
		s.counters.Inc("run.shed")
		w.Header().Set("Retry-After", "1")
		writeJSON(w, http.StatusTooManyRequests, ErrorBody{
			Error:            "admission queue full",
			RetryAfterMillis: 1000,
		})
		return
	}

	select {
	case res := <-j.done:
		writeJSON(w, res.status, res.body)
	case <-r.Context().Done():
		// Client gone. The worker still runs the job (its execution
		// context is cancelled with ours, so it finishes fast) and its
		// result feeds the breaker and spool; only the response is lost.
		s.counters.Inc("run.abandoned")
	}
}

func (s *Server) worker() {
	defer s.workers.Done()
	for j := range s.jobs {
		j.done <- s.execute(j)
	}
}

// execute runs one admitted job: compile through the singleflight cache,
// execute with containment + bounded retry, feed the breaker, spool a
// replay bundle on trap.
func (s *Server) execute(j *job) jobResult {
	cfg := s.driverConfig(j.req)
	s.counters.Inc("run.engine." + cfg.Interp.String())

	var pt metrics.PhaseTimer
	var entry *cacheEntry
	var hit bool
	pt.Time("compile", func() {
		entry, hit = s.cache.get(j.key, func() (mod *ir.Module, counters metrics.OptCounters, err error) {
			return driver.CompileWithStats(
				[]driver.Source{{Name: "prog.c", Text: j.req.Source}}, cfg)
		})
	})
	if hit {
		s.counters.Inc("cache.hit")
	} else {
		s.counters.Inc("cache.miss")
	}
	if entry.err != nil {
		return s.compileFailure(j, entry.err)
	}

	var res *driver.Result
	var wall time.Duration
	attempts := s.opts.Retry.Do(j.ctx, func(attempt int) bool {
		execDone := pt.Start("execute")
		start := time.Now()
		res = s.runContained(j.ctx, entry, cfg)
		wall = time.Since(start)
		execDone()
		retryable := res.TrapCode().Retryable()
		if retryable {
			s.counters.Inc("run.retried")
		}
		return retryable
	})

	code := res.TrapCode()
	s.breakers.Record(j.hash, time.Now(), TripsBreaker(code))

	resp := Response{
		Program:   j.hash,
		Config:    configName(j.key),
		ExitCode:  res.ExitCode,
		Output:    res.Output,
		WallNanos: wall.Nanoseconds(),
		CacheHit:  hit,
	}
	if attempts > 1 {
		resp.Attempts = attempts
	}
	if res.Stats != nil {
		res.Stats.Opt = entry.counters
		res.Stats.TrapCode = string(code)
		s.observeRunMeta(res.Stats)
		rep := res.Stats.Report()
		resp.Stats = &rep
	}
	resp.Phases = pt.Phases()
	if res.Err != nil {
		resp.Error = res.Err.Error()
		resp.TrapCode = string(code)
		s.counters.Inc("trap." + string(code))
		if res.Violation != nil {
			resp.Violation = res.Violation.Error()
		}
		resp.Bundle = s.spool(j, cfg, code, res.Err.Error())
	} else {
		s.counters.Inc("run.ok")
	}
	s.logf("serve: %s %s trap=%q exit=%d wall=%v cache_hit=%v attempts=%d",
		j.hash[:12], resp.Config, resp.TrapCode, resp.ExitCode, wall, hit, attempts)
	return jobResult{status: http.StatusOK, body: resp}
}

// compileFailure maps a compile error to its response and feeds the
// breaker: a panicking compile is a contained crash (the poison class
// breakers exist for); ordinary rejections are the compiler doing its job.
func (s *Server) compileFailure(j *job, err error) jobResult {
	body := ErrorBody{Error: err.Error()}
	var ce *driver.CompileError
	if errors.As(err, &ce) {
		body.Compile = &CompileErrorBody{Stage: ce.Stage, Unit: ce.Unit, Message: ce.Err.Error()}
	}
	panicked := ce != nil && ce.Stage == "panic"
	s.breakers.Record(j.hash, time.Now(), panicked)
	if panicked {
		s.counters.Inc("run.compile_panic")
	} else {
		s.counters.Inc("run.compile_error")
	}
	s.logf("serve: %s compile error: %v", j.hash[:12], err)
	return jobResult{status: http.StatusBadRequest, body: body}
}

// executeContext runs a compiled module; a variable so tests can make a
// run crash.
var executeContext = driver.ExecuteContext

// runContained executes the compiled module with a panic backstop: a
// crashing VM becomes a Result carrying a TrapPanic, never a dead worker.
func (s *Server) runContained(ctx context.Context, entry *cacheEntry, cfg driver.Config) (res *driver.Result) {
	defer func() {
		if r := recover(); r != nil {
			trap := &vm.Trap{Code: vm.TrapPanic, Cause: fmt.Errorf("recovered panic: %v", r)}
			res = &driver.Result{Err: trap, Trap: trap, Stats: &metrics.Stats{}}
		}
	}()
	return executeContext(ctx, entry.mod, cfg)
}

// spool writes the crash-replay bundle for a trapped run ("" when
// spooling is off or the write fails; a spool failure must not fail the
// request).
func (s *Server) spool(j *job, cfg driver.Config, code vm.TrapCode, errMsg string) string {
	if s.opts.SpoolDir == "" {
		return ""
	}
	b := Bundle{
		Schema:       BundleSchema,
		ProgramHash:  j.hash,
		Source:       j.req.Source,
		Mode:         j.key.mode,
		Optimize:     j.key.optimize,
		Faults:       j.req.Faults,
		StepLimit:    cfg.StepLimit,
		TimeoutNanos: int64(cfg.Timeout),
		Args:         j.req.Args,
		TrapCode:     string(code),
		Error:        errMsg,
	}
	if j.key.mode != driver.ModeNone.String() {
		b.Scheme = j.key.scheme
	}
	name := fmt.Sprintf("%s-%s-%06d.json", j.hash[:12], code, s.bundleSeq.Add(1))
	path, err := WriteBundle(s.opts.SpoolDir, name, b)
	if err != nil {
		s.counters.Inc("spool.error")
		s.logf("serve: spool %s: %v", name, err)
		return ""
	}
	s.counters.Inc("spool.written")
	return path
}

// driverConfig builds the per-request driver configuration.
func (s *Server) driverConfig(req Request) driver.Config {
	mode, _ := parseMode(req.Mode) // validated at admission
	cfg := driver.DefaultConfig(mode)
	cfg.Optimize = !req.NoOptimize
	if mode != driver.ModeNone {
		scheme := req.Scheme
		if scheme == "" {
			scheme = "shadowspace"
		}
		cfg.Meta, _ = parseScheme(scheme) // validated at admission
	}
	if req.Engine == "ref" {
		cfg.Interp = vm.InterpRef
	}
	timeout := s.opts.DefaultTimeout
	if req.TimeoutMillis > 0 {
		timeout = time.Duration(req.TimeoutMillis) * time.Millisecond
		if timeout > s.opts.MaxTimeout {
			timeout = s.opts.MaxTimeout
		}
	}
	cfg.Timeout = timeout
	if s.opts.StepLimit > 0 {
		cfg.StepLimit = s.opts.StepLimit
	}
	if req.Steps > 0 {
		cfg.StepLimit = req.Steps
		if s.opts.MaxSteps > 0 && cfg.StepLimit > s.opts.MaxSteps {
			cfg.StepLimit = s.opts.MaxSteps
		}
	}
	cfg.Args = req.Args
	if req.Faults != "" {
		if plan, err := faults.ParsePlan(req.Faults); err == nil && plan.Enabled() {
			cfg.Faults = faults.NewInjector(plan)
		}
	}
	return cfg
}

// configName renders the BENCH.json config label for a key.
func configName(k cacheKey) string {
	if k.mode == driver.ModeNone.String() {
		return "baseline"
	}
	return k.scheme + "-" + k.mode
}

// parseMode maps the wire mode names (BENCH.json's vocabulary) to
// driver modes; "" defaults to full.
func parseMode(mode string) (driver.Mode, error) {
	switch mode {
	case "", "full":
		return driver.ModeFull, nil
	case "none", "baseline":
		return driver.ModeNone, nil
	case "store-only", "store":
		return driver.ModeStoreOnly, nil
	}
	return 0, fmt.Errorf("unknown mode %q (want none, store-only, or full)", mode)
}

// parseScheme resolves a request's metadata scheme name.
func parseScheme(name string) (meta.Kind, error) {
	k, err := meta.ParseKind(name)
	if err != nil {
		return 0, fmt.Errorf("unknown scheme %q (have %v)", name, meta.KindNames())
	}
	return k, nil
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
