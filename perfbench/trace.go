package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark
// around the call. Parent is the enclosing span (0 at the top) and Req
// the request the call served (0 outside serving).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Req    int64  `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced runs pay one nil check per call site.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// active is an open span; end closes and records it.
type active struct {
	tr *tracer
	sp span
}

// start opens a span named name under parent for request req.
func (t *tracer) start(name string, parent, req int64) *active {
	if t == nil {
		return nil
	}
	return &active{tr: t, sp: span{
		ID: t.nextID.Add(1), Parent: parent, Req: req, Name: name,
		Start: int64(time.Since(t.t0)),
	}}
}

// id is the span's identifier, for use as a child's parent.
func (a *active) id() int64 {
	if a == nil {
		return 0
	}
	return a.sp.ID
}

func (a *active) end() {
	if a == nil {
		return
	}
	a.sp.End = int64(time.Since(a.tr.t0))
	a.tr.mu.Lock()
	a.tr.spans = append(a.tr.spans, a.sp)
	a.tr.mu.Unlock()
}

// durations returns the durations in milliseconds of every span named
// name, in recording order.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.ms())
		}
	}
	return out
}

func (t *tracer) all() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}
