package perf

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// Span is one timed call into a layer. Spans of one operation share Op;
// Parent is the index of the span that made the call (-1 for the
// operation's root). Times are nanoseconds since the trace began.
type Span struct {
	Name   string `json:"name"`
	Unit   string `json:"unit,omitempty"` // translation unit, for per-unit front-end stages
	Op     int64  `json:"op"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps every span in memory; WriteSpans writes them out when the
// run ends. A span's index in spans is its identifier.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []Span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// begin opens a span and returns its identifier.
func (t *tracer) begin(op int64, parent int32, name, unit string) int32 {
	start := t.now()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, Span{Name: name, Unit: unit, Op: op, Parent: parent, Start: start, End: -1})
	return int32(len(t.spans) - 1)
}

// end closes a span opened by begin.
func (t *tracer) end(id int32) {
	end := t.now()
	t.mu.Lock()
	t.spans[id].End = end
	t.mu.Unlock()
}

// add records a span whose interval is already known.
func (t *tracer) add(s Span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// opTrace is the tracing handle one operation passes down its call
// chain: the operation and the span new spans nest under. A nil tracer
// records nothing.
type opTrace struct {
	tr     *tracer
	op     int64
	parent int32
}

// span opens a child span and returns the handle for its children and
// the function that closes it.
func (o opTrace) span(name, unit string) (opTrace, func()) {
	if o.tr == nil {
		return o, func() {}
	}
	id := o.tr.begin(o.op, o.parent, name, unit)
	return opTrace{tr: o.tr, op: o.op, parent: id}, func() { o.tr.end(id) }
}

// selfTimes returns, for each span, its duration minus the union of its
// children's intervals clipped to it: the time the layer spent in its
// own code rather than in the layers it called.
func selfTimes(spans []Span) []int64 {
	children := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[int32(i)] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered, reach int64
		reach = s.Start
		for _, v := range ivs {
			if v.lo > reach {
				reach = v.lo
			}
			if v.hi > reach {
				covered += v.hi - reach
				reach = v.hi
			}
		}
		self[i] = s.End - s.Start - covered
	}
	return self
}

// WriteSpans writes spans as one JSON document.
func WriteSpans(path string, spans []Span) error {
	data, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
