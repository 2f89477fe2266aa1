package perf

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// An open loop must charge a server stall to every request the stall
// delays, timing each from when it was due rather than when it could be
// sent, and the generator's lateness must show in the lag.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const stall = 300 * time.Millisecond
	var mu sync.Mutex // the handler serves one request at a time
	var seen atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		defer mu.Unlock()
		if seen.Add(1) == 5 {
			time.Sleep(stall)
		}
	}))
	defer srv.Close()
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	defer client.CloseIdleConnections()

	do := func(k int) bool {
		resp, err := client.Get(srv.URL)
		if err != nil {
			return false
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode == http.StatusOK
	}
	const rate = 100 // one due every 10ms
	samples, _ := openLoop(context.Background(), rate, time.Second, 2, 0, do)
	if len(samples) != rate {
		t.Fatalf("got %d samples, want %d", len(samples), rate)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i].k < samples[j].k })

	var delayed, slowRTT int
	var lags []float64
	for i, s := range samples {
		if !s.r {
			t.Fatalf("request %d failed", s.k)
		}
		if want := time.Duration(i) * time.Second / rate; s.due.Sub(samples[0].due) != want {
			t.Fatalf("request %d due at +%v, want +%v", i, s.due.Sub(samples[0].due), want)
		}
		lags = append(lags, ms(s.lag()))
		if s.latency() > stall/3 {
			delayed++
		}
		if s.done.Sub(s.sent) > stall/3 {
			slowRTT++
		}
	}
	// The stall lasts 30 due intervals: the stalled request and the one
	// queued behind it see it as round-trip time, and every request due
	// while both connections were held sees it as lateness.
	if delayed < 10 {
		t.Errorf("%d requests over %v from their due time, want the stall charged to at least 10", delayed, stall/3)
	}
	if slowRTT > 3 {
		t.Errorf("%d requests had a slow round trip; the stall should reach later requests as lag", slowRTT)
	}
	if lag := percentile(lags, 0.99); lag < ms(stall/3) {
		t.Errorf("lag p99 = %.1fms, want the stall to show (> %.0fms)", lag, ms(stall/3))
	}
}

func TestClosedLoopNumbersEachOperationOnce(t *testing.T) {
	var inFlight, peak atomic.Int64
	samples, span := closedLoop(context.Background(), 50*time.Millisecond, 2, 10, func(k int) int {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
		return k
	})
	if peak.Load() > 2 {
		t.Errorf("%d operations in flight, want at most 2 clients", peak.Load())
	}
	seen := map[int]bool{}
	for _, s := range samples {
		if s.r != s.k || seen[s.k] || s.k < 10 || s.k >= 10+len(samples) {
			t.Fatalf("sample %+v: each index from 10 once", s)
		}
		seen[s.k] = true
		if s.due != s.sent {
			t.Fatalf("a closed loop sends when due: %+v", s)
		}
	}
	if span < 50*time.Millisecond {
		t.Errorf("span %v shorter than the loop", span)
	}
}
