package main

import (
	"context"
	"sync"
	"time"
)

// sent is one open-loop request's timeline.
type sent struct {
	due, start, end time.Time
	err             error
}

func (s sent) latency() float64  { return s.end.Sub(s.due).Seconds() }
func (s sent) lateness() float64 { return s.start.Sub(s.due).Seconds() }

// openLoop sends n requests on a fixed schedule: request i is due at
// i/rate seconds after the start whether or not earlier requests have been
// answered. At most conns requests are in flight; a request that finds
// every connection busy waits, and that wait counts in its latency, which
// runs from the due time. Requests left unsent when ctx ends carry its
// error.
func openLoop(ctx context.Context, n int, rate float64, conns int, send func(i int) error) []sent {
	out := make([]sent, n)
	t0 := time.Now()
	dueAt := func(i int) time.Time { return t0.Add(time.Duration(float64(i) / rate * float64(time.Second))) }
	for i := range out {
		out[i] = sent{due: dueAt(i), err: context.Canceled}
	}
	queue := make(chan int, n) // sized to the number of sends: the dispatcher never blocks
	go func() {
		defer close(queue)
		for i := 0; i < n; i++ {
			if d := time.Until(out[i].due); d > 0 {
				select {
				case <-ctx.Done():
					return
				case <-time.After(d):
				}
			}
			queue <- i
		}
	}()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range queue {
				start := time.Now()
				err := send(i)
				out[i] = sent{due: out[i].due, start: start, end: time.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return out
}

// closedLoop keeps conns requests in flight: each connection sends the
// next of the n requests as soon as its previous one is answered, so the
// rate is whatever the server sustains. Once budget has passed it hands
// out requests only up to the next multiple of block, so a phase sends
// whole blocks of the mix; it also stops when the n requests run out or
// ctx ends. It returns the timelines of the requests it sent, in order; a
// request is due when it is sent.
func closedLoop(ctx context.Context, n, conns, block int, budget time.Duration, send func(i int) error) []sent {
	out := make([]sent, n)
	var (
		mu     sync.Mutex
		handed int
	)
	t0 := time.Now()
	next := func() (int, bool) {
		mu.Lock()
		defer mu.Unlock()
		if handed == n || ctx.Err() != nil || handed%block == 0 && handed > 0 && time.Since(t0) >= budget {
			return 0, false
		}
		handed++
		return handed - 1, true
	}
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, ok := next(); ok; i, ok = next() {
				start := time.Now()
				err := send(i)
				out[i] = sent{due: start, start: start, end: time.Now(), err: err}
			}
		}()
	}
	wg.Wait()
	return out[:handed]
}
