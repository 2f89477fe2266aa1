package serve

// Load test: the service's reason to exist is surviving sustained hostile
// traffic. This hammers a small pool (W workers, queue depth Q) with
// 10×(Q+W) concurrent mixed requests — valid, malformed, trapping, and
// hung programs — and asserts the resilience contract: every request is
// answered with a structured status (no server death), overload sheds
// with 429 instead of unbounded goroutines, the repeat-crashing program's
// breaker opens, and shutdown drains cleanly back to the baseline
// goroutine count. Run under -race in CI.

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"
	"time"

	"softbound/internal/retry"
	"softbound/internal/vm"
)

// hungSrc spins until its deadline, as spinSrc does, under a different
// program hash. A deadline trap does not trip a breaker.
const hungSrc = `int main() { long n; n = 0; while (1) { n = n + 2; } return (int)n; }`

func TestServiceSurvivesHostileLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	baseline := runtime.NumGoroutine()

	const workers, queue = 4, 4
	s := New(Options{
		Workers:        workers,
		QueueDepth:     queue,
		DefaultTimeout: 300 * time.Millisecond,
		SpoolDir:       t.TempDir(),
		Breaker:        BreakerConfig{Threshold: 3, Cooldown: time.Minute}, // stays open once tripped
		Retry:          retry.Policy{MaxAttempts: 2},
	})
	ts := httptest.NewServer(s.Handler())

	poison := Request{Source: spinSrc, Steps: 2000} // deterministic step-limit trap
	poisonSum := sha256.Sum256([]byte(spinSrc))
	poisonHash := hex.EncodeToString(poisonSum[:])

	// The mixed workload. Each entry: the request plus the statuses it is
	// allowed to produce under load (200 = served, 400 = rejected input,
	// 429 = shed, 503 = breaker fast-fail or drain).
	// hung spins in a program of its own: sharing poison's source would
	// share its breaker, and once poison's step-limit traps open it, the
	// hung copies fail fast with 503 instead of holding workers for
	// their deadline, so on a fast run the queue never overflows.
	hung := Request{Source: hungSrc, TimeoutMillis: 100}
	mixed := []Request{
		{Source: okSrc},
		{Source: overflowSrc},
		{Source: badSrc},
		poison,
		hung,
		{Source: okSrc, Mode: "store-only", Scheme: "hashtable"},
	}

	type tally struct {
		mu       sync.Mutex
		byStatus map[int]int
		unknown  []string
	}
	counts := &tally{byStatus: make(map[int]int)}
	record := func(status int, body []byte) {
		counts.mu.Lock()
		defer counts.mu.Unlock()
		counts.byStatus[status]++
		switch status {
		case http.StatusOK, http.StatusBadRequest,
			http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			counts.unknown = append(counts.unknown, string(body))
		}
	}

	// ≥ 10×(Q+W) concurrent requests.
	total := 10 * (queue + workers)
	var wg sync.WaitGroup
	for i := 0; i < total; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			status, body := post(t, ts, mixed[i%len(mixed)])
			record(status, body)
		}(i)
	}
	wg.Wait()

	counts.mu.Lock()
	served, shed := counts.byStatus[200], counts.byStatus[429]
	unknown := counts.unknown
	answered := 0
	for _, n := range counts.byStatus {
		answered += n
	}
	counts.mu.Unlock()

	if answered != total {
		t.Fatalf("answered %d of %d requests; the rest vanished", answered, total)
	}
	if len(unknown) > 0 {
		t.Fatalf("unstructured responses under load: %q", unknown[0])
	}
	if served == 0 {
		t.Fatal("nothing was served under load")
	}
	if shed == 0 {
		t.Fatalf("no 429 shedding with %d concurrent requests against queue %d + workers %d: %v",
			total, queue, workers, counts.byStatus)
	}

	// The repeat-crashing program's breaker must open. The burst may have
	// shed most poison copies, so feed it sequentially until the breaker
	// reports open (bounded attempts: Threshold failures are enough).
	deadline := time.Now().Add(10 * time.Second)
	for s.BreakerState(poisonHash) != "open" && time.Now().Before(deadline) {
		post(t, ts, poison)
	}
	if st := s.BreakerState(poisonHash); st != "open" {
		t.Fatalf("poison program breaker %q, want open (counters %v)", st, s.counters.Snapshot())
	}
	// And fast-fail the next hit.
	if status, body := post(t, ts, poison); status != http.StatusServiceUnavailable {
		t.Fatalf("open breaker served status %d (%s)", status, body)
	}

	// Unrelated programs keep being served while the breaker is open.
	if status, _ := post(t, ts, Request{Source: okSrc}); status != http.StatusOK {
		t.Fatal("healthy traffic failed while a breaker is open")
	}

	// Clean drain: readiness flips, in-flight work completes, workers and
	// connections wind down to (about) the baseline goroutine count.
	s.BeginDrain()
	if status, _ := post(t, ts, Request{Source: okSrc}); status != http.StatusServiceUnavailable {
		t.Fatal("drain still admits work")
	}
	s.Close()
	ts.Close()
	http.DefaultClient.CloseIdleConnections()

	const epsilon = 12
	var after int
	for end := time.Now().Add(5 * time.Second); time.Now().Before(end); time.Sleep(50 * time.Millisecond) {
		if after = runtime.NumGoroutine(); after <= baseline+epsilon {
			break
		}
	}
	if after > baseline+epsilon {
		t.Fatalf("goroutines leaked: baseline %d, after drain %d (epsilon %d)", baseline, after, epsilon)
	}
}

// TestDrainUnderLoad closes the server while requests are still arriving:
// every in-flight admitted request must still get its answer, and late
// arrivals must be rejected, never hung or crashed.
func TestDrainUnderLoad(t *testing.T) {
	s := New(Options{
		Workers:        2,
		QueueDepth:     2,
		DefaultTimeout: 200 * time.Millisecond,
		Retry:          retry.Policy{MaxAttempts: 2},
	})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	statuses := make(chan int, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, _ := post(t, ts, Request{Source: okSrc, TimeoutMillis: 100})
			statuses <- status
		}()
	}
	time.Sleep(10 * time.Millisecond) // let some requests get admitted
	s.Close()                         // drain mid-flight
	wg.Wait()
	close(statuses)
	for status := range statuses {
		switch status {
		case http.StatusOK, http.StatusTooManyRequests, http.StatusServiceUnavailable:
		default:
			t.Fatalf("request during drain got status %d", status)
		}
	}
	// Post-drain requests are structured rejections, not hangs.
	if status, _ := post(t, ts, Request{Source: okSrc}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-drain request got %d, want 503", status)
	}
}

// TestStatzSchemaUnderLoad pins the /statz document shape the README and
// DESIGN.md document: counters, pool shape, cache stats, breaker map.
func TestStatzSchemaUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Options{Breaker: BreakerConfig{Threshold: 1, Cooldown: time.Minute}})
	post(t, ts, Request{Source: okSrc})
	post(t, ts, Request{Source: okSrc})
	post(t, ts, Request{Source: spinSrc, Steps: 1000}) // opens its breaker (threshold 1)

	resp, err := http.Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var z Statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	if z.Cache.Misses == 0 || z.Cache.Hits == 0 {
		t.Errorf("cache stats empty: %+v", z.Cache)
	}
	if z.Counters["trap."+string(vm.TrapStepLimit)] == 0 {
		t.Errorf("trap counter missing: %v", z.Counters)
	}
	if len(z.Breakers) == 0 {
		t.Errorf("opened breaker missing from statz: %+v", z)
	}
	_ = s
}
