package perf

import (
	"context"
	"sync"
	"sync/atomic"
	"time"
)

// sample is one operation of a load loop: its index in the workload's op
// stream, when it was due (an open loop's schedule; the send time in a
// closed loop), sent and completed, and what the operation returned.
type sample[R any] struct {
	k               int
	due, sent, done time.Time
	r               R
}

func (s sample[R]) latency() time.Duration { return s.done.Sub(s.due) }
func (s sample[R]) lag() time.Duration     { return s.sent.Sub(s.due) }

// closedLoop runs clients goroutines that each send their next operation
// as soon as the previous one completes, numbering operations from first,
// and stops starting new ones once d has passed. A slow system therefore
// receives less load. It returns the samples and the time from the start
// to the last completion.
func closedLoop[R any](ctx context.Context, d time.Duration, clients, first int, do func(k int) R) ([]sample[R], time.Duration) {
	start := time.Now()
	deadline := start.Add(d)
	var next atomic.Int64
	next.Store(int64(first))
	per := make([][]sample[R], clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for ctx.Err() == nil && time.Now().Before(deadline) {
				k := int(next.Add(1) - 1)
				sent := time.Now()
				r := do(k)
				per[c] = append(per[c], sample[R]{k: k, due: sent, sent: sent, done: time.Now(), r: r})
			}
		}(c)
	}
	wg.Wait()
	return merge(per, start)
}

// openLoop sends operation first+j when it falls due at start + j/rate,
// whether or not earlier ones have completed, for d. At most conns
// operations are in flight: when every connection is busy the next one
// goes out late, and its latency still counts from its due time, so a
// stall is charged to every request it delays and shows in the lag.
func openLoop[R any](ctx context.Context, rate float64, d time.Duration, conns, first int, do func(k int) R) ([]sample[R], time.Duration) {
	start := time.Now()
	interval := time.Duration(float64(time.Second) / rate)
	var next atomic.Int64
	per := make([][]sample[R], conns)
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				j := next.Add(1) - 1
				offset := time.Duration(j) * interval
				if offset >= d {
					return
				}
				due := start.Add(offset)
				if wait := time.Until(due); wait > 0 {
					t := time.NewTimer(wait)
					select {
					case <-t.C:
					case <-ctx.Done():
						t.Stop()
						return
					}
				}
				sent := time.Now()
				r := do(first + int(j))
				per[c] = append(per[c], sample[R]{k: first + int(j), due: due, sent: sent, done: time.Now(), r: r})
			}
		}(c)
	}
	wg.Wait()
	return merge(per, start)
}

// merge concatenates per-goroutine samples and measures the span from
// start to the last completion.
func merge[R any](per [][]sample[R], start time.Time) ([]sample[R], time.Duration) {
	var out []sample[R]
	last := start
	for _, ss := range per {
		for _, s := range ss {
			if s.done.After(last) {
				last = s.done
			}
		}
		out = append(out, ss...)
	}
	return out, last.Sub(start)
}
