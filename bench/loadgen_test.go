package main

import (
	"context"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls on one request must inflate the latency of the
// requests due while it stalled: they are timed from when they were due,
// not from when a connection came free.
func TestOpenLoopChargesStallToLaterRequests(t *testing.T) {
	const (
		n     = 20
		rate  = 200.0 // one request every 5 ms
		stall = 100 * time.Millisecond
	)
	var inFlight, peak atomic.Int32
	out := openLoop(context.Background(), n, rate, 1, func(i int) error {
		if c := inFlight.Add(1); c > peak.Load() {
			peak.Store(c)
		}
		defer inFlight.Add(-1)
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if peak.Load() != 1 {
		t.Errorf("%d requests in flight on one connection", peak.Load())
	}
	t0 := out[0].due
	for i, s := range out {
		if s.err != nil {
			t.Fatalf("request %d: %v", i, s.err)
		}
		if want := t0.Add(time.Duration(float64(i) / rate * float64(time.Second))); !s.due.Equal(want) {
			t.Errorf("request %d due at %v, want %v", i, s.due.Sub(t0), want.Sub(t0))
		}
		if i == 0 {
			continue
		}
		// Request i could not start before the stall ended.
		if floor := (stall - s.due.Sub(t0)).Seconds(); s.latency() < floor {
			t.Errorf("request %d latency %.1f ms, want at least %.1f ms", i, s.latency()*1e3, floor*1e3)
		}
		if s.lateness() <= 0 || s.lateness() > s.latency() {
			t.Errorf("request %d lateness %.3f ms outside (0, latency %.3f ms]", i, s.lateness()*1e3, s.latency()*1e3)
		}
	}
}

func TestOpenLoopKeepsScheduleWhenIdle(t *testing.T) {
	out := openLoop(context.Background(), 10, 100, 2, func(int) error { return nil })
	for i, s := range out {
		if s.lateness() > 20e-3 {
			t.Errorf("request %d sent %.1f ms late on an idle server", i, s.lateness()*1e3)
		}
		if s.start.Before(s.due) {
			t.Errorf("request %d sent before it was due", i)
		}
	}
}

// The closed loop keeps at most conns requests in flight, sends each as
// soon as a connection comes free, and ends on a whole block once its
// budget has passed, or when the requests run out.
func TestClosedLoopSendsWholeBlocks(t *testing.T) {
	for _, c := range []struct {
		name       string
		n, block   int
		budget     time.Duration
		wantBlocks bool // a whole number of blocks, short of n
		wantN      int  // otherwise exactly this many
	}{
		{"budget", 10000, 7, 30 * time.Millisecond, true, 0},
		{"zero budget", 100, 7, 0, false, 7},
		{"runs out", 10, 7, time.Hour, false, 10},
	} {
		t.Run(c.name, func(t *testing.T) {
			var (
				mu             sync.Mutex
				inFlight, peak int
			)
			out := closedLoop(context.Background(), c.n, 2, c.block, c.budget, func(int) error {
				mu.Lock()
				inFlight++
				peak = max(peak, inFlight)
				mu.Unlock()
				time.Sleep(time.Millisecond)
				mu.Lock()
				inFlight--
				mu.Unlock()
				return nil
			})
			if c.wantBlocks && (len(out) == 0 || len(out)%c.block != 0 || len(out) == c.n) {
				t.Errorf("sent %d requests, want a positive multiple of %d below %d", len(out), c.block, c.n)
			}
			if !c.wantBlocks && len(out) != c.wantN {
				t.Errorf("sent %d requests, want %d", len(out), c.wantN)
			}
			if peak > 2 {
				t.Errorf("%d requests in flight on two connections", peak)
			}
			for i, s := range out {
				if s.err != nil || s.start.IsZero() || s.end.Before(s.start) || s.lateness() != 0 {
					t.Errorf("request %d: timeline %+v", i, s)
				}
			}
		})
	}
}

func TestOpenLoopCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := openLoop(ctx, 5, 10, 1, func(int) error { return nil })
	if out[len(out)-1].err == nil {
		t.Error("a request due after cancellation was reported sent")
	}
}
