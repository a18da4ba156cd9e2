package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"time"

	"repro/internal/core"
	"repro/internal/server"
	"repro/internal/shard"
)

const (
	// serviceRate is the open loop's offered load in requests per second,
	// about a sixth of the closed loop's rate on a 2-CPU host (180 to 240
	// requests/s as the host's speed varies). At 60 requests/s a slowed
	// host made hot hits queue behind cold simulates on the one-worker
	// shards often enough that the median moved by up to 60 % between runs.
	serviceRate = 30.0
	// openShare is the part of a timed phase spent in the open loop, which
	// gives the latency metrics; the rest is a closed loop on every
	// connection, which gives the capacity (ops_per_s). At a fixed offered
	// rate the completed rate only reads back the schedule.
	openShare = 0.6
	// closedCap bounds the closed loop's requests per second of its
	// budget, about twice the capacity measured on the 2-CPU host; a
	// service faster than that ends the closed loop early, which still
	// measures its rate.
	closedCap = 500
	// warmSeconds is the untimed stretch of the mix before timing.
	warmSeconds = 2
	// tinyRequests is the size of a smoke-test phase's open loop; with one
	// closed-loop block of the mix that is 50 requests.
	tinyRequests = 30
	// coldFraction and sweepFraction size the cold simulates and the
	// auto-fidelity sweeps; the sweeps use the fraction the analytic
	// envelope is calibrated at, so the auto tier can answer them.
	coldFraction  = 0.02
	sweepFraction = 0.1
	// coldChecked is how many distinct cold points are re-answered by a
	// fresh server; with the 16 hot points that is 40 distinct points.
	coldChecked = 24
)

// hotPoints is the fixed set the service answers from its caches once
// warmed.
var hotPoints = gridPoints([]string{"720p30", "720p60", "1080p30", "1080p60"}, core.PaperChannels, []int{400}, []string{""}, coldFraction)

func setupService(ctx context.Context, cfg runConfig) (_ env, err error) {
	core.DisableCache()
	s := &service{rng: cfg.rng(), tiny: cfg.Tiny, used: map[string]bool{}}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	for _, p := range hotPoints {
		s.used[pointKey(p)] = true
	}
	shards := map[string]string{}
	for _, name := range []string{"s1", "s2"} {
		c := core.NewSimCache()
		srv := server.New(server.Config{Workers: 1, Cache: c, ShardName: name})
		if err := srv.Start("127.0.0.1:0"); err != nil {
			return nil, fmt.Errorf("start shard %s: %w", name, err)
		}
		s.shards = append(s.shards, srv)
		s.caches = append(s.caches, c)
		shards[name] = "http://" + srv.Addr()
	}
	if s.router, err = shard.NewRouter(shard.RouterConfig{Shards: shards}); err != nil {
		return nil, err
	}
	if err := s.router.Start("127.0.0.1:0"); err != nil {
		return nil, fmt.Errorf("start router: %w", err)
	}
	s.base = "http://" + s.router.Addr()
	s.client = &http.Client{
		Transport: &http.Transport{MaxConnsPerHost: jobs(), MaxIdleConnsPerHost: jobs()},
		Timeout:   time.Minute,
	}
	for _, p := range hotPoints {
		if _, err := s.post(ctx, "/v1/simulate", mustJSON(p)); err != nil {
			return nil, fmt.Errorf("warm %s: %w", pointKey(p), err)
		}
	}
	body, err := s.post(ctx, "/v1/simulate", mustJSON(anchor))
	if err != nil {
		return nil, fmt.Errorf("anchor: %w", err)
	}
	var r server.SimulateResponse
	if err := json.Unmarshal(body, &r); err != nil {
		return nil, fmt.Errorf("anchor: %w", err)
	}
	if err := checkAnchor(r.PowerMW, r.AccessMS, r.Verdict); err != nil {
		return nil, err
	}
	return s, nil
}

// service drives a shard.Router fronting two one-worker server.Server
// shards over loopback HTTP, with at most jobs() connections: an open loop
// for latency, then a closed loop for capacity.
type service struct {
	rng    *rand.Rand
	tiny   bool
	shards []*server.Server
	caches []*core.SimCache
	router *shard.Router
	base   string
	client *http.Client
	used   map[string]bool // cold points already sent, so each is sent once
	cold   int             // cold points drawn so far
}

// svcReq is one request of the mix.
type svcReq struct {
	kind string // "hot", "cold" or "sweep"
	path string
	body []byte
}

func (s *service) close() {
	if s.router != nil {
		s.router.Close()
	}
	for _, srv := range s.shards {
		srv.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
}

func (s *service) sample() []server.SimulateRequest { return strided(hotPoints, 8) }

// mixBlock fixes the mix in every 20 requests: 60 % hot simulates, 25 %
// cold simulates of points never sent before, 15 % 8-point auto-fidelity
// sweeps of the paper grid. The seed orders each block.
var mixBlock = []string{
	"hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot", "hot",
	"cold", "cold", "cold", "cold", "cold",
	"sweep", "sweep", "sweep",
}

// draw generates the next n requests.
func (s *service) draw(n int) []svcReq {
	reqs := make([]svcReq, 0, n)
	for len(reqs) < n {
		for _, i := range s.rng.Perm(len(mixBlock)) {
			if len(reqs) == n {
				break
			}
			reqs = append(reqs, s.request(mixBlock[i]))
		}
	}
	return reqs
}

func (s *service) request(kind string) svcReq {
	switch kind {
	case "hot":
		return svcReq{kind, "/v1/simulate", mustJSON(hotPoints[s.rng.Intn(len(hotPoints))])}
	case "cold":
		// Cold points cycle through every format and channel count, so the
		// seed changes their clocks and order but not their cost mix.
		k := s.cold
		s.cold++
		p := server.SimulateRequest{
			Format:   core.FormatNames[k%len(core.FormatNames)],
			Channels: core.PaperChannels[k/len(core.FormatNames)%len(core.PaperChannels)],
			Fraction: coldFraction,
		}
		for {
			p.FreqMHz = 200 + s.rng.Intn(534-200)
			if key := pointKey(p); !s.used[key] {
				s.used[key] = true
				return svcReq{kind, "/v1/simulate", mustJSON(p)}
			}
		}
	default:
		f := core.PaperFreqsMHz
		i := s.rng.Intn(len(f) - 1)
		j := i + 1 + s.rng.Intn(len(f)-1-i)
		return svcReq{kind, "/v1/sweep", mustJSON(server.SweepRequest{
			Formats:  []string{core.FormatNames[s.rng.Intn(len(core.FormatNames))]},
			Channels: core.PaperChannels,
			FreqsMHz: []int{f[i], f[j]},
			Fraction: sweepFraction,
			Fidelity: "auto",
		})}
	}
}

// warmUp sends a short untimed stretch of the mix so connections, pools
// and the auto tier's envelope are live before timing.
func (s *service) warmUp(ctx context.Context) error {
	n := int(serviceRate * warmSeconds)
	if s.tiny {
		n = tinyRequests / 5
	}
	p, err := s.run(ctx, n, 0, 0, nil)
	if err != nil {
		return err
	}
	if p.failed > 0 {
		return fmt.Errorf("warm-up: %v", p.problems)
	}
	return nil
}

// measure spends openShare of the seconds in the open loop and the rest in
// the closed loop; with no seconds it sends tinyRequests open-loop and one
// block of the mix closed-loop.
func (s *service) measure(ctx context.Context, seconds float64, tr *tracer) (phase, error) {
	closed := seconds * (1 - openShare)
	return s.run(ctx, max(int(serviceRate*seconds*openShare), tinyRequests),
		max(int(closedCap*closed), len(mixBlock)), time.Duration(closed*float64(time.Second)), tr)
}

// run sends open requests of the mix on the open-loop schedule, then up to
// closedN more in a closed loop for about budget, and checks every answer.
// The open loop gives the latencies, the closed loop the points per second.
func (s *service) run(ctx context.Context, open, closedN int, budget time.Duration, tr *tracer) (phase, error) {
	reqs := s.draw(open + closedN)
	// Bodies are kept for every request the fresh-server check covers.
	keep := make([]bool, len(reqs))
	cold := 0
	for i, r := range reqs {
		keep[i] = r.kind != "cold" || cold < coldChecked
		if r.kind == "cold" {
			cold++
		}
	}
	bodies := make([][]byte, len(reqs))
	status := make([]int, len(reqs))
	send := func(off int) func(i int) error {
		return func(i int) error {
			code, body, err := s.do(ctx, reqs[off+i].path, reqs[off+i].body)
			status[off+i] = code
			if keep[off+i] {
				bodies[off+i] = body
			}
			return err
		}
	}
	before := s.cacheStats()
	out := openLoop(ctx, open, serviceRate, jobs(), send(0))
	// CPU time is taken over the closed loop, like the wall time.
	cpu0 := cpuSeconds()
	if closedN > 0 {
		out = append(out, closedLoop(ctx, closedN, jobs(), len(mixBlock), budget, send(open))...)
	}
	reqs = reqs[:len(out)]
	p := phase{cpu: cpuSeconds() - cpu0, attempted: len(out)}
	after := s.cacheStats()
	p.lookups = after.Lookups() - before.Lookups()
	p.hits = after.MemHits + after.DiskHits - before.MemHits - before.DiskHits
	p.joins = after.DedupJoins - before.DedupJoins
	var first, last time.Time
	for i, o := range out {
		op := int64(i + 1)
		id := tr.reserve()
		tr.record("send", id, op, o.start, o.end)
		tr.finish(id, "request."+reqs[i].kind, 0, op, o.due, o.end)
		inClosed := i >= open
		if !inClosed {
			p.lat = append(p.lat, o.latency())
			p.late = append(p.late, o.lateness())
		} else if first.IsZero() {
			first = o.start
		}
		if o.end.After(last) {
			last = o.end
		}
		switch {
		case o.err != nil:
			p.fail("%s request %d: %v", reqs[i].kind, i, o.err)
		case status[i] != http.StatusOK:
			p.fail("%s request %d: HTTP %d", reqs[i].kind, i, status[i])
		case inClosed:
			p.points++
		}
		if reqs[i].kind == "sweep" && status[i] == http.StatusOK {
			// A body that does not decode fails the fresh-server check below.
			var sw server.SweepResponse
			_ = json.Unmarshal(bodies[i], &sw)
			for _, pt := range sw.Points {
				p.served++
				if pt.Estimated {
					p.estimated++
				}
			}
		}
	}
	if !first.IsZero() {
		p.wall = last.Sub(first).Seconds()
	}
	return p, s.verify(reqs, status, bodies, &p)
}

// verify re-answers every kept request on a fresh single server and
// requires byte-identical bodies.
func (s *service) verify(reqs []svcReq, status []int, bodies [][]byte, p *phase) error {
	fresh := server.New(server.Config{Workers: jobs()}).Handler()
	refs := map[string][32]byte{}
	for i, r := range reqs {
		if bodies[i] == nil || status[i] != http.StatusOK {
			continue
		}
		key := r.path + string(r.body)
		ref, ok := refs[key]
		if !ok {
			rec := httptest.NewRecorder()
			fresh.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, r.path, bytes.NewReader(r.body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("fresh server answered %s %s with HTTP %d: %s", r.path, r.body, rec.Code, rec.Body)
			}
			ref = sha256.Sum256(rec.Body.Bytes())
			refs[key] = ref
		}
		if sha256.Sum256(bodies[i]) != ref {
			p.fail("%s request %d: body differs from a fresh server's answer to %s", r.kind, i, r.body)
		}
	}
	return nil
}

func (s *service) cacheStats() core.CacheStats {
	var t core.CacheStats
	for _, c := range s.caches {
		st := c.Stats()
		t.MemHits += st.MemHits
		t.DiskHits += st.DiskHits
		t.Simulated += st.Simulated
		t.DedupJoins += st.DedupJoins
	}
	return t
}

// do POSTs body to the router and returns the status and response body.
func (s *service) do(ctx context.Context, path string, body []byte) (int, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, s.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := s.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return resp.StatusCode, b, err
}

// post is do that treats any status but 200 as an error.
func (s *service) post(ctx context.Context, path string, body []byte) ([]byte, error) {
	code, b, err := s.do(ctx, path, body)
	if err == nil && code != http.StatusOK {
		err = errors.New(http.StatusText(code) + ": " + string(b))
	}
	return b, err
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err) // only plain request structs are encoded
	}
	return b
}
