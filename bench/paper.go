package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/usecase"
)

// paperRunners are the exported runners cmd/paper calls, in its order; the
// format matrix runs twice because Fig. 4 and Fig. 5 each call it. The
// fault artifact is left out: its scenario table is private to cmd/paper.
var paperRunners = []struct {
	name string
	run  func(core.RunOptions) (any, error)
}{
	{"table1", func(core.RunOptions) (any, error) { return core.RunTableI(usecase.Params{}) }},
	{"fig3", func(o core.RunOptions) (any, error) { return core.RunFig3(o) }},
	{"fig4", func(o core.RunOptions) (any, error) { return core.RunFormatMatrix(o) }},
	{"fig5", func(o core.RunOptions) (any, error) { return core.RunFormatMatrix(o) }},
	{"xdr", func(o core.RunOptions) (any, error) { return core.RunXDRComparison(o) }},
	{"ablations", func(o core.RunOptions) (any, error) { return core.RunAblations(o) }},
	{"geometry", func(o core.RunOptions) (any, error) { return core.RunGeometrySweep(o) }},
	{"operating", func(o core.RunOptions) (any, error) { return core.RunOperatingPoints(o) }},
	{"interleave", func(o core.RunOptions) (any, error) { return core.RunInterleaveSweep(o) }},
}

func setupPaper(ctx context.Context, cfg runConfig) (env, error) {
	core.DisableCache()
	if err := simulateAnchor(ctx); err != nil {
		return nil, err
	}
	return &paper{name: cfg.Workload, rng: cfg.rng(), opt: core.RunOptions{SampleFraction: cfg.fraction(0.05), Jobs: jobs()}}, nil
}

// paper runs every paper runner per pass, in a seeded order, over one fresh
// result cache per pass. One operation is one pass: what `paper` with no
// -only flag does.
type paper struct {
	name string
	rng  *rand.Rand
	opt  core.RunOptions
}

func (pp *paper) close() { core.DisableCache() }

// sample replays the paper grid at the artifacts' fraction.
func (pp *paper) sample() []server.SimulateRequest {
	return strided(gridPoints(core.FormatNames, core.PaperChannels, core.PaperFreqsMHz, []string{""}, pp.opt.SampleFraction), 8)
}

func (pp *paper) warmUp(ctx context.Context) error {
	p, err := pp.measure(ctx, 0, nil)
	if err != nil {
		return err
	}
	if p.failed > 0 {
		return fmt.Errorf("warm-up pass: %v", p.problems)
	}
	return nil
}

func (pp *paper) measure(ctx context.Context, seconds float64, tr *tracer) (phase, error) {
	n := len(paperRunners)
	q := newPassQueue(n, pp.rng, seconds)
	cpu0 := cpuSeconds()
	start := time.Now()
	var (
		p               phase
		cache           *core.SimCache
		passStart, free = start, start
		passID          int64
		rows            map[string][]byte
		passFailed      bool
	)
	for {
		op, idx, ok := q.next()
		if !ok {
			break
		}
		if pos := int(op-1) % n; pos == 0 {
			cache = core.NewSimCache()
			core.EnableCache(cache)
			passStart = time.Now()
			p.late = append(p.late, passStart.Sub(free).Seconds())
			passID, rows, passFailed = tr.reserve(), map[string][]byte{}, false
		}
		r := paperRunners[idx]
		t0 := time.Now()
		out, err := r.run(pp.opt)
		tr.record("runner."+r.name, passID, passID, t0, time.Now())
		if err != nil {
			p.problems = append(p.problems, fmt.Sprintf("%s: %v", r.name, err))
			passFailed = true
		} else if b, err := json.Marshal(out); err != nil {
			return p, err
		} else {
			rows[r.name] = b
		}
		if int(op)%n != 0 {
			continue // the pass goes on
		}
		free = time.Now()
		tr.finish(passID, "pass", 0, passID, passStart, free)
		core.DisableCache()
		st := cache.Stats()
		points := int(st.Lookups() + st.Bypassed)
		p.lat = append(p.lat, free.Sub(passStart).Seconds())
		p.points += points
		p.attempted += points
		p.lookups += st.Lookups()
		p.hits += st.MemHits + st.DiskHits
		p.joins += st.DedupJoins
		if !passFailed {
			if err := checkDigest(pp.name, pp.opt.SampleFraction, digestRows(rows)); err != nil {
				p.problems = append(p.problems, err.Error())
				passFailed = true
			}
		}
		if passFailed {
			p.failed += points
		}
	}
	p.wall = free.Sub(start).Seconds()
	p.cpu = cpuSeconds() - cpu0
	return p, nil
}
