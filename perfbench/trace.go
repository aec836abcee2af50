package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's side
// of the call.  Times are offsets from the recorder's epoch.
type span struct {
	ID     int64         `json:"id"`
	Parent int64         `json:"parent"`
	Run    string        `json:"run"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
}

func (s span) dur() time.Duration { return s.End - s.Start }

// tracer keeps spans in memory until the run ends.  A nil *tracer records
// nothing, so untraced runs pass nil and pay only a nil check per call.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	// current is the span that spans opened on other goroutines (the
	// service's HTTP calls) attach to when they have no explicit parent.
	current atomic.Int64

	mu    sync.Mutex
	run   string
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// setRun names the run id stamped on the spans that follow.
func (t *tracer) setRun(id string) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.run = id
	t.mu.Unlock()
}

// openSpan is a started span; end records it.
type openSpan struct {
	t      *tracer
	id     int64
	parent int64
	name   string
	start  time.Duration
}

// start opens a span under parent (0 = a root).
func (t *tracer) start(name string, parent int64) *openSpan {
	if t == nil {
		return nil
	}
	return &openSpan{t: t, id: t.nextID.Add(1), parent: parent, name: name, start: time.Since(t.epoch)}
}

// startCurrent opens a span under the tracer's current span.
func (t *tracer) startCurrent(name string) *openSpan {
	if t == nil {
		return nil
	}
	return t.start(name, t.current.Load())
}

// ID returns the span's id, 0 for a nil span.
func (s *openSpan) ID() int64 {
	if s == nil {
		return 0
	}
	return s.id
}

// end closes the span and records it.
func (s *openSpan) end() {
	if s == nil {
		return
	}
	end := time.Since(s.t.epoch)
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, span{ID: s.id, Parent: s.parent, Run: s.t.run, Name: s.name, Start: s.start, End: end})
	s.t.mu.Unlock()
}

// within runs fn inside a span named name under parent.
func (t *tracer) within(name string, parent int64, fn func(id int64)) {
	s := t.start(name, parent)
	fn(s.ID())
	s.end()
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes sums, per span name, each span's duration minus the part of its
// interval covered by its children.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[string]time.Duration)
	for _, s := range spans {
		self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return self
}

// covered returns how much of parent's interval the union of the child
// intervals covers (children running concurrently overlap).
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]time.Duration, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			iv = append(iv, [2]time.Duration{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	for i, x := range iv {
		if i == 0 || x[0] > curHi {
			total += curHi - curLo
			curLo, curHi = x[0], x[1]
			continue
		}
		curHi = max(curHi, x[1])
	}
	return total + curHi - curLo
}

// writeTrace stores the spans as JSON, creating the directory if needed.
func writeTrace(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
