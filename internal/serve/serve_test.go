package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"softbound/internal/driver"
	"softbound/internal/ir"
	"softbound/internal/meta"
	"softbound/internal/retry"
	"softbound/internal/vm"
)

const (
	okSrc       = `int main() { printf("hi\n"); return 7; }`
	overflowSrc = `int main() { int a[4]; int i; for (i = 0; i <= 4; i = i + 1) a[i] = i; return a[0]; }`
	spinSrc     = `int main() { int i; i = 0; while (1) { i = i + 1; } return i; }`
	badSrc      = `int main( {`
)

// newTestServer builds a server + httptest front end with fast budgets.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.Workers == 0 {
		opts.Workers = 2
	}
	if opts.DefaultTimeout == 0 {
		opts.DefaultTimeout = 5 * time.Second
	}
	if opts.Retry.MaxAttempts == 0 {
		// No backoff sleeps in tests; attempts bounded like the bench.
		opts.Retry = retry.Policy{MaxAttempts: 2}
	}
	s := New(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// post sends one /run request and returns (status, raw body).
func post(t *testing.T, ts *httptest.Server, req Request) (int, []byte) {
	t.Helper()
	blob, _ := json.Marshal(req)
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(blob))
	if err != nil {
		t.Fatalf("POST /run: %v", err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, body
}

func decodeRun(t *testing.T, body []byte) Response {
	t.Helper()
	var r Response
	if err := json.Unmarshal(body, &r); err != nil {
		t.Fatalf("bad /run body %s: %v", body, err)
	}
	return r
}

func TestRunBasicAndCompileCache(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	status, body := post(t, ts, Request{Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	r := decodeRun(t, body)
	if r.ExitCode != 7 || r.Output != "hi\n" || r.TrapCode != "" {
		t.Fatalf("unexpected result: %+v", r)
	}
	if r.Config != "shadowspace-full" {
		t.Errorf("config %q, want shadowspace-full", r.Config)
	}
	if r.Stats == nil || r.Stats.Insts == 0 {
		t.Errorf("run reported no execution stats: %+v", r.Stats)
	}
	if r.CacheHit {
		t.Error("first request claimed a cache hit")
	}
	if len(r.Phases) < 2 {
		t.Errorf("phases missing: %+v", r.Phases)
	}

	// Identical request: compile once, serve from cache.
	status, body = post(t, ts, Request{Source: okSrc})
	if status != http.StatusOK {
		t.Fatalf("second status %d", status)
	}
	if r2 := decodeRun(t, body); !r2.CacheHit || r2.ExitCode != 7 {
		t.Fatalf("second request not served from cache: %+v", r2)
	}
	// Different mode is a different artifact.
	status, body = post(t, ts, Request{Source: okSrc, Mode: "none"})
	if status != http.StatusOK {
		t.Fatal("baseline-mode request failed")
	}
	if r3 := decodeRun(t, body); r3.CacheHit || r3.Config != "baseline" {
		t.Fatalf("mode change reused the wrong artifact: %+v", r3)
	}
	if s.counters.Get("cache.hit") != 1 || s.counters.Get("cache.miss") != 2 {
		t.Errorf("cache counters hit=%d miss=%d, want 1/2",
			s.counters.Get("cache.hit"), s.counters.Get("cache.miss"))
	}
}

func TestSpatialViolationIsAServedResult(t *testing.T) {
	s, ts := newTestServer(t, Options{SpoolDir: t.TempDir()})
	status, body := post(t, ts, Request{Source: overflowSrc})
	if status != http.StatusOK {
		t.Fatalf("status %d, body %s", status, body)
	}
	r := decodeRun(t, body)
	if r.TrapCode != string(vm.TrapSpatial) {
		t.Fatalf("trap %q, want spatial-violation (%s)", r.TrapCode, body)
	}
	if r.Violation == "" {
		t.Error("violation message missing")
	}
	if r.Bundle == "" {
		t.Fatal("trap produced no replay bundle")
	}
	// Detections must not trip the breaker: they are the service working.
	if st := s.BreakerState(r.Program); st != "closed" {
		t.Errorf("breaker %q after a detection, want closed", st)
	}
}

func TestMalformedSourceIs400(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := post(t, ts, Request{Source: badSrc})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatal(err)
	}
	if eb.Compile == nil || eb.Compile.Stage != "parse" {
		t.Fatalf("compile error body %+v, want stage parse", eb.Compile)
	}
	// Bad requests that never execute must not kill the server.
	status, _ = post(t, ts, Request{Source: okSrc})
	if status != http.StatusOK {
		t.Fatal("server unhealthy after malformed input")
	}
}

func TestRequestValidation(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, req := range []Request{
		{},                                    // empty source
		{Source: okSrc, Mode: "sideways"},     // unknown mode
		{Source: okSrc, Scheme: "nope"},       // unknown scheme
		{Source: okSrc, Faults: "bogus-plan"}, // malformed fault plan
		{Source: okSrc, Engine: "turbo"},      // unknown engine
		{Source: okSrc, Engine: "compiled"},   // retired engine
	} {
		if status, body := post(t, ts, req); status != http.StatusBadRequest {
			t.Errorf("%+v: status %d, want 400 (%s)", req, status, body)
		}
	}
	// The unknown-scheme body names every scheme, in table order.
	_, body := post(t, ts, Request{Source: okSrc, Scheme: "nope"})
	const want = `{
  "error": "unknown scheme \"nope\" (have [hashtable hashtable-cets shadow-cets shadowspace])"
}
`
	if string(body) != want {
		t.Errorf("unknown-scheme body %q, want %q", body, want)
	}
}

// The retired "compiled" engine gets the same structured 400 as any
// unknown engine, naming the engines a request may select.
func TestRetiredEngineRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	status, body := post(t, ts, Request{Source: okSrc, Engine: "compiled"})
	if status != http.StatusBadRequest {
		t.Fatalf("status %d, want 400 (%s)", status, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil {
		t.Fatalf("unstructured body %q: %v", body, err)
	}
	if want := `unknown engine "compiled" (want "fast" or "ref")`; eb.Error != want {
		t.Fatalf("error %q, want %q", eb.Error, want)
	}
}

// Both interpreter engines are selectable per request and must serve the
// same observable result from the same cached artifact.
func TestEngineSelection(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	var results []Response
	for _, engine := range []string{"", "fast", "ref"} {
		status, body := post(t, ts, Request{Source: okSrc, Engine: engine})
		if status != http.StatusOK {
			t.Fatalf("engine %q: status %d, body %s", engine, status, body)
		}
		results = append(results, decodeRun(t, body))
	}
	for i, r := range results {
		if r.ExitCode != results[0].ExitCode || r.Output != results[0].Output ||
			r.TrapCode != results[0].TrapCode ||
			r.Stats.SimInsts != results[0].Stats.SimInsts {
			t.Fatalf("engine variant %d diverged: %+v vs %+v", i, r, results[0])
		}
	}
	// Engine choice affects execution only, never the compiled artifact:
	// the cache key is engine-independent.
	if !results[2].CacheHit {
		t.Error("non-default-engine request recompiled instead of reusing the cache")
	}
	// /statz accounts runs per engine.
	counters := srv.Counters().Snapshot()
	if counters["run.engine.fast"] != 2 || counters["run.engine.ref"] != 1 {
		t.Errorf("per-engine run counters off: fast=%d ref=%d",
			counters["run.engine.fast"], counters["run.engine.ref"])
	}
}

func TestStepLimitTrapAndBundleReplay(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Options{SpoolDir: spool})
	status, body := post(t, ts, Request{Source: spinSrc, Steps: 5000})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, body)
	}
	r := decodeRun(t, body)
	if r.TrapCode != string(vm.TrapStepLimit) {
		t.Fatalf("trap %q, want step-limit", r.TrapCode)
	}
	if r.Bundle == "" {
		t.Fatal("no replay bundle spooled")
	}
	b, err := ReadBundle(r.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	if b.TrapCode != r.TrapCode || b.Source != spinSrc || b.StepLimit != 5000 {
		t.Fatalf("bundle does not capture the run: %+v", b)
	}
	res, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.TrapCode()); got != b.TrapCode {
		t.Fatalf("replay trap %q, want %q (bundle must reproduce)", got, b.TrapCode)
	}
}

func TestSpatialBundleReplayWithFaults(t *testing.T) {
	spool := t.TempDir()
	_, ts := newTestServer(t, Options{SpoolDir: spool})
	// A clean program plus an aggressive seeded metadata-drop plan: the
	// injected faults trip checks deterministically, and the bundle's
	// recorded seed replays the identical schedule offline.
	status, body := post(t, ts, Request{Source: okSrc, Faults: "seed=9,drop=1"})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, body)
	}
	r := decodeRun(t, body)
	if r.TrapCode == "" {
		t.Skip("fault plan did not trap this program; nothing to replay")
	}
	b, err := ReadBundle(r.Bundle)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(b)
	if err != nil {
		t.Fatal(err)
	}
	if got := string(res.TrapCode()); got != b.TrapCode {
		t.Fatalf("replay trap %q, want %q", got, b.TrapCode)
	}
}

func TestPanickingSchemeIsContainedAndRetried(t *testing.T) {
	// A metadata scheme whose runs panic (stubbed executeContext) models
	// a crashing backend: the worker must survive, the shared retry
	// policy gets its bounded attempts, and the result is a structured
	// trap.
	old := executeContext
	t.Cleanup(func() { executeContext = old })
	executeContext = func(ctx context.Context, mod *ir.Module, cfg driver.Config) *driver.Result {
		if cfg.Mode != driver.ModeNone && cfg.Meta == meta.KindHashTable {
			panic("deliberate backend panic")
		}
		return old(ctx, mod, cfg)
	}
	s, ts := newTestServer(t, Options{SpoolDir: t.TempDir()})
	status, body := post(t, ts, Request{Source: okSrc, Scheme: "hashtable"})
	if status != http.StatusOK {
		t.Fatalf("status %d (%s)", status, body)
	}
	r := decodeRun(t, body)
	if r.TrapCode != string(vm.TrapPanic) {
		t.Fatalf("trap %q, want panic (%s)", r.TrapCode, body)
	}
	if r.Attempts != 2 {
		t.Errorf("attempts %d, want 2 (contained crash gets one retry)", r.Attempts)
	}
	if s.counters.Get("run.retried") == 0 {
		t.Error("retry counter never moved")
	}
	// The server is still alive and serving.
	if status, _ := post(t, ts, Request{Source: okSrc}); status != http.StatusOK {
		t.Fatal("server dead after contained panic")
	}
}

func TestBreakerOpensFastFailsAndRecovers(t *testing.T) {
	s, ts := newTestServer(t, Options{
		Breaker: BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
	})
	poison := Request{Source: spinSrc, Steps: 2000} // deterministic step-limit trap

	for i := 0; i < 2; i++ {
		status, body := post(t, ts, poison)
		if status != http.StatusOK {
			t.Fatalf("poison %d: status %d (%s)", i, status, body)
		}
		if r := decodeRun(t, body); r.TrapCode != string(vm.TrapStepLimit) {
			t.Fatalf("poison %d: trap %q", i, r.TrapCode)
		}
	}
	// Threshold reached: fast-fail without executing.
	status, body := post(t, ts, poison)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("breaker did not open: status %d (%s)", status, body)
	}
	var eb ErrorBody
	_ = json.Unmarshal(body, &eb)
	if eb.Breaker == "" {
		t.Errorf("fast-fail body carries no breaker state: %s", body)
	}
	if s.counters.Get("run.breaker_fastfail") == 0 {
		t.Error("fast-fail counter never moved")
	}

	// After the cooldown, a half-open probe runs. Same program hash, but
	// now with a budget it can't blow... spin never exits, so give it a
	// recovered input instead: same source is the identity, so recovery
	// means the program stops tripping — emulate with a huge step budget
	// and a short deadline (deadline traps do not qualify as failures).
	time.Sleep(80 * time.Millisecond)
	status, body = post(t, ts, Request{Source: spinSrc, TimeoutMillis: 50})
	if status != http.StatusOK {
		t.Fatalf("probe rejected: status %d (%s)", status, body)
	}
	if r := decodeRun(t, body); r.TrapCode != string(vm.TrapDeadline) {
		t.Fatalf("probe trap %q, want deadline", r.TrapCode)
	}
	// Deadline is non-qualifying → breaker closed again.
	sum := decodeRun(t, body).Program
	if st := s.BreakerState(sum); st != "closed" {
		t.Errorf("breaker %q after successful probe, want closed", st)
	}
}

// An oversized request body must be a structured 413, whether the limit
// is hit while streaming the body (MaxBytesReader) or by the decoded
// source field — and in neither case may it wedge or kill the server.
func TestOversizedBodyIsStructured413(t *testing.T) {
	_, ts := newTestServer(t, Options{MaxSourceBytes: 1024})

	// A body far beyond the cap: the reader trips while the decoder is
	// still streaming the source string.
	huge := append([]byte(`{"source":"`), bytes.Repeat([]byte("x"), 64*1024)...)
	huge = append(huge, '"', '}')
	resp, err := http.Post(ts.URL+"/run", "application/json", bytes.NewReader(huge))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized raw body: status %d, want 413 (%s)", resp.StatusCode, body)
	}
	var eb ErrorBody
	if err := json.Unmarshal(body, &eb); err != nil || eb.Error == "" {
		t.Fatalf("413 body not structured: %s (%v)", body, err)
	}

	// Valid JSON whose source field alone exceeds the cap.
	big := Request{Source: "int main() { /*" + string(bytes.Repeat([]byte("y"), 2048)) + "*/ return 0; }"}
	if status, body := post(t, ts, big); status != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized source: status %d, want 413 (%s)", status, body)
	}

	// The connection-level rejection must not have hurt the server.
	if status, _ := post(t, ts, Request{Source: okSrc}); status != http.StatusOK {
		t.Fatal("server unhealthy after oversized body")
	}
}

// /statz identifies the process incarnation: pid, uptime, and the
// supervisor-reported restart generation (the fabric router feeds
// Options.Restarts so flap detection survives process replacement).
func TestStatzReportsProcessIdentity(t *testing.T) {
	_, ts := newTestServer(t, Options{Restarts: 7})
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var z Statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	if z.PID != os.Getpid() {
		t.Errorf("statz pid %d, want %d", z.PID, os.Getpid())
	}
	if z.UptimeSeconds < 0 || z.UptimeSeconds > 300 {
		t.Errorf("implausible uptime_seconds %v", z.UptimeSeconds)
	}
	if z.RestartsObserved != 7 {
		t.Errorf("restarts_observed %d, want 7", z.RestartsObserved)
	}
}

func TestHealthReadyStatzAndDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	get := func(path string) (int, []byte) {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, b
	}
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatal("healthz not ok")
	}
	if st, _ := get("/readyz"); st != http.StatusOK {
		t.Fatal("readyz not ok")
	}
	post(t, ts, Request{Source: okSrc})

	st, body := get("/statz")
	if st != http.StatusOK {
		t.Fatal("statz not ok")
	}
	var z Statz
	if err := json.Unmarshal(body, &z); err != nil {
		t.Fatalf("statz body %s: %v", body, err)
	}
	if z.Counters["http.run"] == 0 || z.Counters["run.ok"] == 0 {
		t.Errorf("statz counters missing run traffic: %v", z.Counters)
	}
	if z.QueueCap == 0 || z.Workers == 0 {
		t.Errorf("statz pool shape empty: %+v", z)
	}

	s.BeginDrain()
	if st, _ := get("/readyz"); st != http.StatusServiceUnavailable {
		t.Fatal("readyz still ready while draining")
	}
	if st, _ := get("/healthz"); st != http.StatusOK {
		t.Fatal("healthz must stay ok while draining (process is alive)")
	}
	if st, _ := post(t, ts, Request{Source: okSrc}); st != http.StatusServiceUnavailable {
		t.Fatal("run accepted while draining")
	}
	s.Close() // idempotent with the cleanup Close
}

// TestStatzMetaSection checks /statz surfaces metadata occupancy and
// lookaside hit-rate after runs: the session soak's growth signals.
func TestStatzMetaSection(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	// Two runs of a program that dereferences a pointer held in global
	// memory, so every iteration re-loads its metadata from the facility
	// and the gauges and cumulative lookaside counters both move.
	src := `int a[16]; int* p;
		int main() { int i; p = a;
		for (i = 0; i < 16; i = i + 1) p[i] = i;
		printf("%d\n", p[3]); return 0; }`
	for i := 0; i < 2; i++ {
		if status, body := post(t, ts, Request{Source: src}); status != http.StatusOK {
			t.Fatalf("run %d: status %d body %s", i, status, body)
		}
	}
	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var z Statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	if z.Meta.Runs != 2 {
		t.Errorf("meta.runs = %d, want 2", z.Meta.Runs)
	}
	if z.Meta.LiveMax <= 0 || z.Meta.TableBytesMax <= 0 {
		t.Errorf("occupancy gauges did not move: %+v", z.Meta)
	}
	if z.Meta.LiveMax < z.Meta.LiveLast {
		t.Errorf("high-water below last: %+v", z.Meta)
	}
	// The default engine is the fast interpreter, so the lookaside served
	// the loop's repeated metadata lookups.
	if z.Meta.LookasideHits == 0 || z.Meta.LookasideHitRate <= 0 {
		t.Errorf("lookaside counters did not move: %+v", z.Meta)
	}
}
