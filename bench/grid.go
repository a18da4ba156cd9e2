package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/server"
)

// gridPoints crosses formats, channel counts, clocks and policies into
// simulate requests, policy varying slowest.
func gridPoints(formats []string, channels, mhz []int, policies []string, fraction float64) []server.SimulateRequest {
	var pts []server.SimulateRequest
	for _, pol := range policies {
		for _, f := range formats {
			for _, ch := range channels {
				for _, m := range mhz {
					pts = append(pts, server.SimulateRequest{Format: f, Channels: ch, FreqMHz: m, Fraction: fraction, Policy: pol})
				}
			}
		}
	}
	return pts
}

func setupGridOpen(ctx context.Context, cfg runConfig) (env, error) {
	pts := gridPoints(core.FormatNames, core.PaperChannels, core.PaperFreqsMHz, []string{""}, cfg.fraction(0.1))
	return newGrid(ctx, cfg, pts)
}

func setupGridPolicies(ctx context.Context, cfg runConfig) (env, error) {
	pts := gridPoints([]string{"720p30", "1080p30", "2160p30"}, core.PaperChannels, []int{200, 400, 533},
		[]string{"closed-page", "frfcfs", "bank-partition"}, cfg.fraction(0.02))
	return newGrid(ctx, cfg, pts)
}

// grid is a closed loop of jobs() workers calling core.SimulateContext with
// the result cache disabled, pass after pass over a seeded permutation of
// the points.
type grid struct {
	name     string
	fraction float64
	rng      *rand.Rand
	reqs     []server.SimulateRequest
	works    []core.Workload
	mems     []core.MemoryConfig
	ref      [][]byte // the warm-up pass's answer per point, JSON-encoded
}

func newGrid(ctx context.Context, cfg runConfig, reqs []server.SimulateRequest) (*grid, error) {
	core.DisableCache()
	g := &grid{name: cfg.Workload, fraction: reqs[0].Fraction, rng: cfg.rng(), reqs: reqs}
	for _, r := range reqs {
		w, mc, err := r.Point()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", pointKey(r), err)
		}
		g.works = append(g.works, w)
		g.mems = append(g.mems, mc)
	}
	if err := simulateAnchor(ctx); err != nil {
		return nil, err
	}
	return g, nil
}

func (g *grid) sample() []server.SimulateRequest { return strided(g.reqs, 8) }

func (g *grid) close() {}

// gridOp is one answered point of a pass.
type gridOp struct {
	idx       int
	lat, late float64
	end       time.Time
	res       core.Result
	err       error
}

// run answers whole passes of the points with jobs() workers until q stops
// handing out work.
func (g *grid) run(ctx context.Context, q *passQueue, tr *tracer) ([]gridOp, time.Time) {
	start := time.Now()
	per := make([][]gridOp, jobs())
	var wg sync.WaitGroup
	for w := range per {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			free := start
			for {
				op, idx, ok := q.next()
				if !ok {
					return
				}
				t0 := time.Now()
				res, err := core.SimulateContext(ctx, g.works[idx], g.mems[idx])
				t1 := time.Now()
				tr.record("point", 0, op, t0, t1)
				per[w] = append(per[w], gridOp{idx: idx, lat: t1.Sub(t0).Seconds(), late: t0.Sub(free).Seconds(), end: t1, res: res, err: err})
				free = t1
			}
		}(w)
	}
	wg.Wait()
	var ops []gridOp
	for _, p := range per {
		ops = append(ops, p...)
	}
	return ops, start
}

func (g *grid) warmUp(ctx context.Context) error {
	ops, _ := g.run(ctx, newPassQueue(len(g.reqs), g.rng, 0), nil)
	g.ref = make([][]byte, len(g.reqs))
	rows := map[string][]byte{}
	for _, op := range ops {
		if op.err != nil {
			return fmt.Errorf("warm-up %s: %w", pointKey(g.reqs[op.idx]), op.err)
		}
		b, err := json.Marshal(op.res)
		if err != nil {
			return err
		}
		g.ref[op.idx] = b
		rows[pointKey(g.reqs[op.idx])] = b
	}
	return checkDigest(g.name, g.fraction, digestRows(rows))
}

func (g *grid) measure(ctx context.Context, seconds float64, tr *tracer) (phase, error) {
	cpu0 := cpuSeconds()
	ops, start := g.run(ctx, newPassQueue(len(g.reqs), g.rng, seconds), tr)
	p := phase{cpu: cpuSeconds() - cpu0, attempted: len(ops), points: len(ops)}
	var last time.Time
	for _, op := range ops {
		p.lat = append(p.lat, op.lat)
		p.late = append(p.late, op.late)
		if op.end.After(last) {
			last = op.end
		}
		key := pointKey(g.reqs[op.idx])
		if op.err != nil {
			p.fail("%s: %v", key, op.err)
			continue
		}
		b, err := json.Marshal(op.res)
		if err != nil {
			return p, err
		}
		if string(b) != string(g.ref[op.idx]) {
			p.fail("%s: answer differs from the warm-up pass", key)
		}
	}
	p.wall = last.Sub(start).Seconds()
	return p, nil
}

// strided picks about n evenly spaced points, always including the first.
func strided(pts []server.SimulateRequest, n int) []server.SimulateRequest {
	step := max(len(pts)/n, 1)
	var out []server.SimulateRequest
	for i := 0; i < len(pts) && len(out) < n; i += step {
		out = append(out, pts[i])
	}
	return out
}

// passQueue hands out operations pass by pass. Each pass is a fresh seeded
// permutation of the n points. With a positive budget a new pass starts
// only while at least half a pass's worth of the budget is left, so a phase
// always ends on whole passes; a budget of zero means exactly one pass.
type passQueue struct {
	mu     sync.Mutex
	n      int
	rng    *rand.Rand
	budget time.Duration
	start  time.Time
	order  []int
	pos    int
	passes int
	done   bool
}

func newPassQueue(n int, rng *rand.Rand, seconds float64) *passQueue {
	return &passQueue{n: n, rng: rng, budget: time.Duration(seconds * float64(time.Second)), start: time.Now()}
}

// next returns a unique operation ID and the point index to answer, or
// ok=false once the phase is over.
func (q *passQueue) next() (op int64, idx int, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.pos == len(q.order) {
		if q.done || q.passes > 0 && !q.roomForPass() {
			q.done = true
			return 0, 0, false
		}
		q.order = q.rng.Perm(q.n)
		q.pos = 0
		q.passes++
	}
	idx = q.order[q.pos]
	q.pos++
	return int64((q.passes-1)*q.n + q.pos), idx, true
}

func (q *passQueue) roomForPass() bool {
	elapsed := time.Since(q.start)
	return elapsed+elapsed/time.Duration(2*q.passes) < q.budget
}
