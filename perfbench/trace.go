package main

import (
	"bufio"
	"encoding/json"
	"os"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one op
// share its id; parent is the index of the enclosing span, -1 at the root.
type span struct {
	Name   string    `json:"name"`
	Op     int       `json:"op"`
	Parent int       `json:"parent"`
	Start  time.Time `json:"start"`
	End    time.Time `json:"end"`
	Alloc  uint64    `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return s.End.Sub(s.Start) }

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced run calls the same code.
type tracer struct {
	mu    sync.Mutex
	spans []span
}

// begin opens a span and returns its id.
func (t *tracer) begin(name string, opID, parent int) int {
	if t == nil {
		return -1
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Op: opID, Parent: parent, Start: time.Now()})
	return len(t.spans) - 1
}

// end closes a span.
func (t *tracer) end(id int) {
	if t == nil || id < 0 {
		return
	}
	now := time.Now()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// endAlloc closes a span and records the heap bytes allocated inside it.
func (t *tracer) endAlloc(id int, alloc uint64) {
	if t == nil || id < 0 {
		return
	}
	t.end(id)
	t.mu.Lock()
	t.spans[id].Alloc = alloc
	t.mu.Unlock()
}

// record adds an already-timed span.
func (t *tracer) record(name string, opID, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.spans = append(t.spans, span{Name: name, Op: opID, Parent: parent, Start: start, End: end})
	t.mu.Unlock()
}

// selfTimes returns each span's duration minus the part of it covered by
// its children. Children of one span run one after another, so their
// durations add.
func (t *tracer) selfTimes() []time.Duration {
	self := make([]time.Duration, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.dur()
		if s.Parent >= 0 {
			self[s.Parent] -= s.dur()
		}
	}
	return self
}

// byName groups the self times, in milliseconds, of the spans named name.
func (t *tracer) byName(name string) []float64 {
	var out []float64
	self := t.selfTimes()
	for i, s := range t.spans {
		if s.Name == name {
			out = append(out, ms(self[i]))
		}
	}
	return out
}

// allocsByName lists the recorded allocation of the spans named name.
func (t *tracer) allocsByName(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.Alloc))
		}
	}
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
