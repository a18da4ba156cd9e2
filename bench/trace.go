package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call the benchmark made into a layer. Spans of one
// operation share Op; Parent is the enclosing span's ID (0 for a root).
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Op     int64   `json:"op"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_us"`
	End    float64 `json:"end_us"`
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run makes the same calls without the bookkeeping.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	next  int64
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// reserve hands out a span ID (0 on a nil tracer). A span whose children
// finish before it does reserves its ID first, so they can name it.
func (t *tracer) reserve() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.next++
	return t.next
}

// finish stores a span under a reserved ID.
func (t *tracer) finish(id int64, name string, parent, op int64, start, end time.Time) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{
		ID: id, Parent: parent, Op: op, Name: name,
		Start: float64(start.Sub(t.epoch).Nanoseconds()) / 1e3,
		End:   float64(end.Sub(t.epoch).Nanoseconds()) / 1e3,
	})
}

// record stores a finished span and returns its ID.
func (t *tracer) record(name string, parent, op int64, start, end time.Time) int64 {
	id := t.reserve()
	t.finish(id, name, parent, op, start, end)
	return id
}

// timed runs fn inside a span and returns fn's error.
func (t *tracer) timed(name string, parent, op int64, fn func() error) error {
	start := time.Now()
	err := fn()
	t.record(name, parent, op, start, time.Now())
	return err
}

func (t *tracer) snapshot() []span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as one JSON document.
func (t *tracer) write(path string) error {
	data, err := json.Marshal(struct {
		TimeUnit string `json:"time_unit"`
		Spans    []span `json:"spans"`
	}{"microseconds since the run started", t.snapshot()})
	if err != nil {
		return fmt.Errorf("encode spans: %w", err)
	}
	return os.WriteFile(path, data, 0o644)
}

// selfTimes returns each span's self time in microseconds: its duration
// minus the part of its interval that its children cover. Overlapping
// children are counted once.
func selfTimes(spans []span) map[int64]float64 {
	byID := make(map[int64]span, len(spans))
	children := map[int64][]span{}
	for _, s := range spans {
		byID[s.ID] = s
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	self := make(map[int64]float64, len(spans))
	for id, s := range byID {
		kids := children[id]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		covered, reach := 0.0, s.Start
		for _, k := range kids {
			lo, hi := max(k.Start, reach), min(k.End, s.End)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[id] = s.dur() - covered
	}
	return self
}

// selfByName sums self time (microseconds) per span name.
func selfByName(spans []span) map[string]float64 {
	self := selfTimes(spans)
	total := map[string]float64{}
	for _, s := range spans {
		total[s.Name] += self[s.ID]
	}
	return total
}
