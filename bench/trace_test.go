package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimeNestedSpans(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60}, // overlaps a: covered once
		{ID: 4, Parent: 2, Name: "c", Start: 15, End: 20},
		{ID: 5, Parent: 1, Name: "d", Start: 90, End: 120}, // runs past its parent: clipped
		{ID: 6, Name: "op", Start: 200, End: 210},
	}
	self := selfTimes(spans)
	want := map[int64]float64{1: 100 - 50 - 10, 2: 25, 3: 30, 4: 5, 5: 30, 6: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], w)
		}
	}
	if total := selfByName(spans); total["op"] != 50 {
		t.Errorf("op self total %v, want 50", total["op"])
	}
}

func TestTracerRecordsAndWrites(t *testing.T) {
	var off *tracer
	if id := off.record("x", 0, 1, time.Now(), time.Now()); id != 0 || off.snapshot() != nil {
		t.Fatal("a nil tracer must record nothing")
	}
	tr := newTracer()
	root := tr.reserve()
	start := time.Now()
	child := tr.record("child", root, root, start, start.Add(time.Millisecond))
	tr.finish(root, "root", 0, root, start, start.Add(2*time.Millisecond))
	if child == root || len(tr.snapshot()) != 2 {
		t.Fatalf("want two distinct spans, got %+v", tr.snapshot())
	}
	self := selfTimes(tr.snapshot())
	if got := self[root]; got < 999 || got > 1001 {
		t.Errorf("root self time %v us, want 1000", got)
	}
	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) != 2 {
		t.Fatalf("span file round trip: %v, %d spans", err, len(doc.Spans))
	}
}
