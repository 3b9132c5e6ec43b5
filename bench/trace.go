package main

// trace.go is the benchmark's own span recorder: spans are taken around
// the calls into the system (never inside it), kept in memory, and
// written when the run ends. A nil *tracer records nothing, so the round
// code calls it unconditionally and the untraced pass pays a nil check.

import (
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Spans of one fetch share Fetch; Parent is
// the span that caused this one (0 = a root).
type span struct {
	ID       int              `json:"id"`
	Parent   int              `json:"parent"`
	Fetch    int              `json:"fetch"`
	Workload string           `json:"workload"`
	Name     string           `json:"name"`
	StartNs  int64            `json:"start_ns"` // since the trace began
	EndNs    int64            `json:"end_ns"`
	Counts   map[string]int64 `json:"counts,omitempty"` // taken at the span's boundaries
}

type tracer struct {
	origin time.Time

	mu       sync.Mutex
	workload string
	spans    []span
	fetches  int
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// setWorkload labels the spans recorded from here on.
func (t *tracer) setWorkload(name string) {
	t.mu.Lock()
	t.workload = name
	t.mu.Unlock()
}

// newFetch allocates the identifier one fetch's spans share.
func (t *tracer) newFetch() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.fetches++
	return t.fetches
}

// add records a finished span under an id from reserve. A parent ends
// after its children, so it reserves its id first, the children name it,
// and the parent is added last.
func (t *tracer) add(id, parent, fetch int, name string, start, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1] = span{
		ID: id, Parent: parent, Fetch: fetch, Workload: t.workload, Name: name,
		StartNs: start.Sub(t.origin).Nanoseconds(), EndNs: end.Sub(t.origin).Nanoseconds(),
		Counts: counts,
	}
}

// reserve allocates a span id (0 on a nil tracer).
func (t *tracer) reserve() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{})
	return len(t.spans)
}

// leaf records a span with no children in one call.
func (t *tracer) leaf(parent, fetch int, name string, start, end time.Time, counts map[string]int64) {
	if t == nil {
		return
	}
	t.add(t.reserve(), parent, fetch, name, start, end, counts)
}

func (t *tracer) count() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// write dumps every span as a JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	data, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
