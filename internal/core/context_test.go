package core

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/units"
)

// TestSimulateContextPreCanceled: a done ctx aborts the point before any
// simulation work, cached or not.
func TestSimulateContextPreCanceled(t *testing.T) {
	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := SimulateContext(ctx, w, PaperMemory(1, 400*units.MHz)); !errors.Is(err, context.Canceled) {
		t.Fatalf("uncached SimulateContext err = %v, want context.Canceled", err)
	}
	c := NewSimCache()
	if _, _, err := c.SimulateContext(ctx, w, PaperMemory(1, 400*units.MHz)); !errors.Is(err, context.Canceled) {
		t.Fatalf("cached SimulateContext err = %v, want context.Canceled", err)
	}
	if got := c.Stats().Lookups(); got != 0 {
		t.Errorf("pre-canceled lookup counted: %d lookups", got)
	}
}

// TestRunIndexedContextCancelStopsClaiming: after ctx fires, no new index
// is claimed and ctx.Err() is returned — the "abort a sweep" fix. Every
// index but the fourth to start waits for the cancellation, so none can
// finish before it and exactly one per worker starts.
func TestRunIndexedContextCancelStopsClaiming(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var started atomic.Int64
	const n = 1000
	_, err := RunIndexedContext(ctx, 4, n, func(i int) (int, error) {
		if started.Add(1) == 4 {
			cancel()
		} else {
			<-ctx.Done()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if got := started.Load(); got != 4 {
		t.Errorf("%d of %d indices ran, want the 4 in flight at cancellation", got, n)
	}
}

// TestRunIndexedContextSerialCancel covers the jobs<=1 inline path.
func TestRunIndexedContextSerialCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran int
	_, err := RunIndexedContext(ctx, 1, 100, func(i int) (int, error) {
		ran++
		if i == 2 {
			cancel()
		}
		return i, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ran != 3 {
		t.Errorf("ran %d indices, want 3", ran)
	}
}

// TestSimulateContextCacheOutcomes pins the outcome classification the
// simulation service surfaces per request.
func TestSimulateContextCacheOutcomes(t *testing.T) {
	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mc := PaperMemory(1, 400*units.MHz)
	c := NewSimCache()
	ctx := context.Background()

	if _, out, err := c.SimulateContext(ctx, w, mc); err != nil || out != OutcomeSimulated {
		t.Fatalf("first lookup: outcome %v, err %v; want simulated", out, err)
	}
	if _, out, err := c.SimulateContext(ctx, w, mc); err != nil || out != OutcomeHit {
		t.Fatalf("second lookup: outcome %v, err %v; want hit", out, err)
	}
	observed := w
	observed.RecordLatency = true
	if _, out, err := c.SimulateContext(ctx, observed, mc); err != nil || out != OutcomeBypass {
		t.Fatalf("observed lookup: outcome %v, err %v; want bypass", out, err)
	}
}
