package main

import (
	"context"
	"encoding/json"
	"os"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// tracer records benchmark-side spans in memory: one around every HTTP call
// and every ladder rung, all spans of one operation under one trace ID. A
// nil tracer records nothing. When window is set, tracing is on only in
// alternate windows of that length, so one run yields traced and untraced
// operations under the same conditions.
type tracer struct {
	epoch  time.Time
	window time.Duration
	ids    atomic.Uint64

	mu      sync.Mutex
	spans   []spanRecord
	dropped int
}

// maxSpans bounds the in-memory span log (about 100 bytes a span).
const maxSpans = 1 << 20

type spanRecord struct {
	Trace   uint64 `json:"trace"`
	ID      uint64 `json:"id"`
	Parent  uint64 `json:"parent,omitempty"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func newTracer(window time.Duration) *tracer {
	return &tracer{epoch: time.Now(), window: window}
}

func (t *tracer) enabled() bool {
	if t == nil {
		return false
	}
	return t.window == 0 || time.Since(t.epoch)/t.window%2 == 0
}

type spanCtxKey struct{}

// span is an open span; the zero span is a no-op.
type span struct {
	t   *tracer
	rec spanRecord
}

// startTrace opens the root span of a new trace when tracing is enabled.
func (t *tracer) startTrace(ctx context.Context, name string) (context.Context, span) {
	if !t.enabled() {
		return ctx, span{}
	}
	s := span{t: t, rec: spanRecord{Trace: t.ids.Add(1), ID: t.ids.Add(1), Name: name, StartNS: t.now()}}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

// startSpan opens a child of the span ctx carries; without one it is a
// no-op.
func startSpan(ctx context.Context, name string) (context.Context, span) {
	parent, ok := ctx.Value(spanCtxKey{}).(span)
	if !ok || parent.t == nil {
		return ctx, span{}
	}
	t := parent.t
	s := span{t: t, rec: spanRecord{Trace: parent.rec.Trace, ID: t.ids.Add(1), Parent: parent.rec.ID, Name: name, StartNS: t.now()}}
	return context.WithValue(ctx, spanCtxKey{}, s), s
}

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (s span) end() {
	if s.t == nil {
		return
	}
	s.rec.EndNS = s.t.now()
	s.t.mu.Lock()
	if len(s.t.spans) < maxSpans {
		s.t.spans = append(s.t.spans, s.rec)
	} else {
		s.t.dropped++
	}
	s.t.mu.Unlock()
}

// write saves every recorded span as one JSON document.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(struct {
		Epoch   time.Time    `json:"epoch"`
		Dropped int          `json:"dropped"`
		Spans   []spanRecord `json:"spans"`
	}{t.epoch, t.dropped, t.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// selfPerTrace is the mean self time of the spans named name: for the
// per-operation root spans, the client's own time outside its HTTP calls.
func (t *tracer) selfPerTrace(name string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, s := range t.spans {
		if s.Name == name {
			n++
		}
	}
	return ratio(float64(selfTimes(t.spans)[name]), float64(n))
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its direct children cover.
func selfTimes(spans []spanRecord) map[string]time.Duration {
	children := map[uint64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[s.ID]
		slices.SortFunc(kids, func(a, b spanRecord) int { return int(a.StartNS - b.StartNS) })
		covered, reach := int64(0), s.StartNS
		for _, k := range kids {
			lo, hi := max(k.StartNS, reach), min(k.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		out[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return out
}
