package shard

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
	"repro/internal/simcache"
)

// RouterConfig tunes the fleet frontend. The zero value of every field
// means its stated default, so only Shards is required.
type RouterConfig struct {
	// Shards maps shard name -> base URL (e.g. "s1" ->
	// "http://127.0.0.1:8081"). Names are the ring identity: placement
	// depends on them, so renaming a shard reassigns its key range even
	// when the URL is unchanged.
	Shards map[string]string
	// VNodes is the virtual-node count per shard (0 = DefaultVNodes).
	VNodes int
	// Retries is how many ring successors a failed request fails over to
	// (0 = 2). The owner plus Retries shards are attempted in ring order,
	// healthy ones first, with jittered backoff between attempts.
	Retries int
	// RetryBackoff is the base failover delay (0 = 25ms); attempt k waits
	// a uniformly jittered multiple of it, so a fleet of routers never
	// thunders in lockstep.
	RetryBackoff time.Duration
	// HealthInterval is the background /healthz poll period (0 = 1s). A
	// shard that fails its poll — or a proxied request — is skipped by
	// the failover walk until a later poll revives it.
	HealthInterval time.Duration
	// MaxSweepPoints bounds one sweep request's grid (0 = 4096). The
	// per-shard sub-batches are each bounded by the shard's own limit.
	MaxSweepPoints int
	// Client performs the proxied requests (nil = a client with
	// ShardTimeout). HealthClient performs the /healthz polls (nil = a
	// 2s-timeout client).
	Client       *http.Client
	HealthClient *http.Client
	// ShardTimeout caps one proxied request when Client is nil (0 = 10m).
	ShardTimeout time.Duration
	// Metrics, when non-nil, registers the router instruments in it.
	Metrics *metrics.Registry
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Retries <= 0 {
		c.Retries = 2
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = 25 * time.Millisecond
	}
	if c.HealthInterval <= 0 {
		c.HealthInterval = time.Second
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 4096
	}
	if c.ShardTimeout <= 0 {
		c.ShardTimeout = 10 * time.Minute
	}
	if c.Client == nil {
		c.Client = &http.Client{Timeout: c.ShardTimeout}
	}
	if c.HealthClient == nil {
		c.HealthClient = &http.Client{Timeout: 2 * time.Second}
	}
	return c
}

// routerMeter bundles the router's registered instruments; fields are
// no-ops when no registry was configured.
type routerMeter struct {
	requests      map[string]*metrics.Counter
	latency       map[string]*metrics.Histogram
	shardRequests map[string]*metrics.Counter
	shardFailures map[string]*metrics.Counter
	failovers     *metrics.Counter
	unhealthy     *metrics.Gauge
}

func newRouterMeter(r *metrics.Registry, shards []string) routerMeter {
	m := routerMeter{
		requests:      map[string]*metrics.Counter{},
		latency:       map[string]*metrics.Histogram{},
		shardRequests: map[string]*metrics.Counter{},
		shardFailures: map[string]*metrics.Counter{},
	}
	if r == nil {
		r = metrics.NewRegistry()
	}
	for _, ep := range []string{"simulate", "sweep", "batch", "warm"} {
		l := metrics.Label{Key: "endpoint", Value: ep}
		m.requests[ep] = r.Counter("router_requests_total", l)
		m.latency[ep] = r.Histogram("router_request_seconds", metrics.DurationBuckets, l)
	}
	for _, s := range shards {
		l := metrics.Label{Key: "shard", Value: s}
		m.shardRequests[s] = r.Counter("router_shard_requests_total", l)
		m.shardFailures[s] = r.Counter("router_shard_failures_total", l)
	}
	m.failovers = r.Counter("router_failovers_total")
	m.unhealthy = r.Gauge("router_shards_unhealthy")
	return m
}

// shardState is one fleet member: its base URL and the router's current
// view of its health. healthy flips passively (a proxied request fails)
// and actively (the background /healthz poll), and an unhealthy shard is
// skipped by the failover walk until a poll revives it.
type shardState struct {
	name    string
	url     string
	healthy atomic.Bool
}

// Router fronts a fleet of simd shards: it owns the consistent-hash ring
// over the shard names, routes each single point to its key's owner,
// fans a sweep out as one batched sub-request per shard, and merges the
// answers byte-identically to a single daemon's. Construct with
// NewRouter, serve via Start or by mounting Handler.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	shards map[string]*shardState
	meter  routerMeter

	http *http.Server
	ln   net.Listener

	stopHealth context.CancelFunc
	healthDone chan struct{}
}

// NewRouter builds a Router and starts its health monitor.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	if len(cfg.Shards) == 0 {
		return nil, fmt.Errorf("shard: router needs at least one shard")
	}
	names := make([]string, 0, len(cfg.Shards))
	states := make(map[string]*shardState, len(cfg.Shards))
	for name, url := range cfg.Shards {
		if url == "" {
			return nil, fmt.Errorf("shard: %q has an empty URL", name)
		}
		names = append(names, name)
		st := &shardState{name: name, url: strings.TrimRight(url, "/")}
		st.healthy.Store(true)
		states[name] = st
	}
	ring, err := NewRing(cfg.VNodes, names...)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:        cfg,
		ring:       ring,
		shards:     states,
		meter:      newRouterMeter(cfg.Metrics, ring.Members()),
		healthDone: make(chan struct{}),
	}
	rt.http = &http.Server{Handler: rt.Handler()}
	hctx, cancel := context.WithCancel(context.Background())
	rt.stopHealth = cancel
	go rt.healthLoop(hctx)
	return rt, nil
}

// Ring exposes the placement ring (diagnostics and tests).
func (rt *Router) Ring() *Ring { return rt.ring }

// Handler returns the router mux.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/simulate", rt.handleSimulate)
	mux.HandleFunc("/v1/sweep", rt.handleSweep)
	mux.HandleFunc("/v1/batch", rt.handleBatch)
	mux.HandleFunc("/v1/ring", rt.handleRing)
	mux.HandleFunc("/healthz", rt.handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "simulation shard router\n\nPOST /v1/simulate\nPOST /v1/sweep (?warm=1 primes the fleet)\nPOST /v1/batch\nGET  /v1/ring\nGET  /healthz\n")
	})
	return mux
}

// Start binds addr and serves in the background (":0" learns the port).
func (rt *Router) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("shard: %w", err)
	}
	rt.ln = ln
	go rt.http.Serve(ln)
	return nil
}

// Addr returns the bound address (resolved port for ":0" binds).
func (rt *Router) Addr() string {
	if rt.ln == nil {
		return ""
	}
	return rt.ln.Addr().String()
}

// Drain gracefully stops the router: the listener closes immediately and
// in-flight proxied requests get until ctx to finish.
func (rt *Router) Drain(ctx context.Context) error {
	defer rt.stopMonitor()
	if err := rt.http.Shutdown(ctx); err != nil {
		rt.http.Close()
		return fmt.Errorf("shard: drain: %w", err)
	}
	return nil
}

// Close stops the router immediately.
func (rt *Router) Close() error {
	rt.stopMonitor()
	return rt.http.Close()
}

func (rt *Router) stopMonitor() {
	rt.stopHealth()
	<-rt.healthDone
}

// healthLoop polls every shard's /healthz on the configured interval,
// reviving shards that answer and demoting ones that do not.
func (rt *Router) healthLoop(ctx context.Context) {
	defer close(rt.healthDone)
	tick := time.NewTicker(rt.cfg.HealthInterval)
	defer tick.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
		for _, st := range rt.shards {
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, st.url+"/healthz", nil)
			if err != nil {
				continue
			}
			resp, err := rt.cfg.HealthClient.Do(req)
			ok := err == nil && resp.StatusCode == http.StatusOK
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			rt.setHealth(st, ok)
		}
	}
}

func (rt *Router) setHealth(st *shardState, healthy bool) {
	if st.healthy.Swap(healthy) != healthy {
		if healthy {
			rt.meter.unhealthy.Add(-1)
		} else {
			rt.meter.unhealthy.Add(1)
		}
	}
}

// healthyCount returns how many shards the router currently trusts.
func (rt *Router) healthyCount() int {
	n := 0
	for _, st := range rt.shards {
		if st.healthy.Load() {
			n++
		}
	}
	return n
}

// candidates returns the shards to try for key, in failover order: the
// ring successor walk starting at the owner, healthy shards first. The
// unhealthy tail keeps a fully-dark fleet answerable the moment one
// shard comes back, at the cost of a wasted attempt.
func (rt *Router) candidates(key simcache.Key) []*shardState {
	names := rt.ring.Successors(key, len(rt.shards))
	healthy := make([]*shardState, 0, len(names))
	var down []*shardState
	for _, n := range names {
		st := rt.shards[n]
		if st.healthy.Load() {
			healthy = append(healthy, st)
		} else {
			down = append(down, st)
		}
	}
	return append(healthy, down...)
}

// backoff sleeps the jittered failover delay for attempt k (k=0 is the
// first retry), honoring ctx cancellation.
func (rt *Router) backoff(ctx context.Context, k int) {
	base := rt.cfg.RetryBackoff << uint(k)
	d := base/2 + time.Duration(rand.Int63n(int64(base/2)+1))
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
	case <-ctx.Done():
	}
}

// proxyResult is one shard's answer to a forwarded request.
type proxyResult struct {
	status int
	body   []byte
	header http.Header
	shard  string
}

// retriable reports whether a shard answer should fail over to the ring
// successor: transport errors and the shard-side 5xx family (500 panic,
// 502, 503 drain cut-off). 504 is the CLIENT's deadline — retrying
// elsewhere would silently double it — and 429 is honest backpressure
// the client must see, so both pass through.
func retriable(status int) bool {
	return status == http.StatusInternalServerError ||
		status == http.StatusBadGateway ||
		status == http.StatusServiceUnavailable
}

// forward tries one POST against the candidate shards in order with
// jittered backoff between attempts, at most 1+Retries attempts. The
// passed headers ride along on every attempt.
func (rt *Router) forward(ctx context.Context, cands []*shardState, path string, payload []byte, hdr http.Header) (proxyResult, error) {
	attempts := rt.cfg.Retries + 1
	if attempts > len(cands) {
		attempts = len(cands)
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			rt.meter.failovers.Inc()
			rt.backoff(ctx, i-1)
			if ctx.Err() != nil {
				break
			}
		}
		st := cands[i]
		rt.meter.shardRequests[st.name].Inc()
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, st.url+path, bytes.NewReader(payload))
		if err != nil {
			return proxyResult{}, err
		}
		req.Header.Set("Content-Type", "application/json")
		for k, vs := range hdr {
			for _, v := range vs {
				req.Header.Add(k, v)
			}
		}
		resp, err := rt.cfg.Client.Do(req)
		if err != nil {
			rt.meter.shardFailures[st.name].Inc()
			rt.setHealth(st, false)
			lastErr = fmt.Errorf("shard %s: %w", st.name, err)
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rt.meter.shardFailures[st.name].Inc()
			rt.setHealth(st, false)
			lastErr = fmt.Errorf("shard %s: reading response: %w", st.name, err)
			continue
		}
		if retriable(resp.StatusCode) {
			rt.meter.shardFailures[st.name].Inc()
			if resp.StatusCode != http.StatusInternalServerError {
				// 502/503 mean the daemon is going (or gone); a 500 is a
				// request-level failure, not a sick shard.
				rt.setHealth(st, false)
			}
			lastErr = fmt.Errorf("shard %s: status %d: %s", st.name, resp.StatusCode, strings.TrimSpace(string(body)))
			continue
		}
		return proxyResult{status: resp.StatusCode, body: body, header: resp.Header, shard: st.name}, nil
	}
	if lastErr == nil {
		lastErr = fmt.Errorf("no shard available")
	}
	return proxyResult{}, lastErr
}

// forwardHeaders extracts the client headers that must ride along to the
// shards: the rate-limit identity and the deadline request.
func forwardHeaders(r *http.Request) http.Header {
	h := http.Header{}
	for _, k := range []string{"X-Client-ID", "X-Sim-Deadline"} {
		if v := r.Header.Get(k); v != "" {
			h.Set(k, v)
		}
	}
	if d := r.URL.Query().Get("deadline"); d != "" && h.Get("X-Sim-Deadline") == "" {
		h.Set("X-Sim-Deadline", d)
	}
	return h
}

// keyFor computes the placement key for one decoded point.
func keyFor(req server.SimulateRequest) (simcache.Key, error) {
	w, mc, err := req.Point()
	if err != nil {
		return simcache.Key{}, err
	}
	key, _ := core.CacheKey(w, mc)
	// cacheable=false cannot arise over the wire (probes and faults are
	// not expressible in the request schema); the zero key it returns
	// would still route deterministically.
	return key, nil
}

// guard wraps a router handler with method discipline and accounting.
func (rt *Router) guard(endpoint string, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		rt.meter.requests[endpoint].Inc()
		start := time.Now()
		defer func() { rt.meter.latency[endpoint].Observe(time.Since(start).Seconds()) }()
		h(w, r)
	}
}

func (rt *Router) handleSimulate(w http.ResponseWriter, r *http.Request) {
	rt.guard("simulate", func(w http.ResponseWriter, r *http.Request) {
		var req server.SimulateRequest
		if err := server.DecodeJSON(r.Body, &req); err != nil {
			writeDecodeError(w, err)
			return
		}
		key, err := keyFor(req)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		payload, err := json.Marshal(&req)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		res, err := rt.forward(r.Context(), rt.candidates(key), "/v1/simulate", payload, forwardHeaders(r))
		if err != nil {
			writeError(w, http.StatusBadGateway, err.Error())
			return
		}
		rt.relay(w, res)
	})(w, r)
}

// relay copies a shard's answer to the client, stamping the shard
// attribution: the shard's own X-Sim-Shard header when it set one (the
// daemon knows its name), else the ring member name the router used.
func (rt *Router) relay(w http.ResponseWriter, res proxyResult) {
	for _, k := range []string{"Content-Type", "X-Sim-Cache", "X-Sim-Degraded", "Retry-After"} {
		if v := res.header.Get(k); v != "" {
			w.Header().Set(k, v)
		}
	}
	shard := res.header.Get("X-Sim-Shard")
	if shard == "" {
		shard = res.shard
	}
	w.Header().Set("X-Sim-Shard", shard)
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// subBatch is one shard's share of a fanned-out grid: the original
// indices it owns and the shard's answer once it lands.
type subBatch struct {
	indices []int
	points  []server.SimulateRequest

	res  proxyResult
	resp server.BatchResponse
	err  error
}

// fanOut groups the grid's points by ring owner and answers each group
// with one /v1/batch round trip per shard (failing over per sub-batch),
// all in parallel. The returned map is keyed by owner name.
func (rt *Router) fanOut(ctx context.Context, points []server.SimulateRequest, fidelity string, warm bool, hdr http.Header) (map[string]*subBatch, error) {
	groups := map[string]*subBatch{}
	for i, p := range points {
		key, err := keyFor(p)
		if err != nil {
			return nil, err
		}
		owner := rt.ring.Owner(key)
		g := groups[owner]
		if g == nil {
			g = &subBatch{}
			groups[owner] = g
		}
		g.indices = append(g.indices, i)
		g.points = append(g.points, p)
	}
	var wg sync.WaitGroup
	for owner, g := range groups {
		wg.Add(1)
		go func(owner string, g *subBatch) {
			defer wg.Done()
			payload, err := json.Marshal(&server.BatchRequest{Points: g.points, Fidelity: fidelity, Warm: warm})
			if err != nil {
				g.err = err
				return
			}
			// Candidate order anchors on the group's first key so every
			// retry of this sub-batch walks the same successor sequence.
			key, _ := keyFor(g.points[0])
			g.res, g.err = rt.forward(ctx, rt.candidates(key), "/v1/batch", payload, hdr)
			if g.err != nil {
				return
			}
			if g.res.status != http.StatusOK {
				return
			}
			if err := json.Unmarshal(g.res.body, &g.resp); err != nil {
				g.err = fmt.Errorf("shard %s: undecodable batch response: %w", g.res.shard, err)
				return
			}
			if !warm && len(g.resp.Points) != len(g.points) {
				g.err = fmt.Errorf("shard %s: batch returned %d points, want %d", g.res.shard, len(g.resp.Points), len(g.points))
			}
		}(owner, g)
	}
	wg.Wait()
	return groups, nil
}

// mergeFailure writes the first sub-batch failure: pass through an
// honest 429 (with its Retry-After) so fleet backpressure reaches the
// client, else a 502 naming the shard. Deterministic: groups are walked
// in sorted owner order.
func mergeFailure(w http.ResponseWriter, groups map[string]*subBatch) bool {
	owners := make([]string, 0, len(groups))
	for o := range groups {
		owners = append(owners, o)
	}
	sort.Strings(owners)
	for _, o := range owners {
		g := groups[o]
		if g.err != nil {
			writeError(w, http.StatusBadGateway, g.err.Error())
			return true
		}
		if g.res.status == http.StatusTooManyRequests {
			if ra := g.res.header.Get("Retry-After"); ra != "" {
				w.Header().Set("Retry-After", ra)
			}
			w.Header().Set("X-Sim-Shard", g.shardName())
			writeError(w, http.StatusTooManyRequests, fmt.Sprintf("shard %s shed the sub-batch", g.shardName()))
			return true
		}
		if g.res.status != http.StatusOK {
			w.Header().Set("Content-Type", g.res.header.Get("Content-Type"))
			w.WriteHeader(g.res.status)
			w.Write(g.res.body)
			return true
		}
	}
	return false
}

// shardName is the attribution for this sub-batch's answer.
func (g *subBatch) shardName() string {
	if g.resp.Shard != "" {
		return g.resp.Shard
	}
	if h := g.res.header.Get("X-Sim-Shard"); h != "" {
		return h
	}
	return g.res.shard
}

// countHeader renders "k1=v1,k2=v2" with sorted keys — the deterministic
// aggregation format of the X-Sim-Cache and X-Sim-Shard sweep headers.
func countHeader(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return strings.Join(parts, ",")
}

// fanIn answers points across the fleet (fanOut) and merges the
// sub-batches back into one batch answer in request order, with the
// points each shard answered, stamping the X-Sim-Shard counts and, when
// any shard degraded, X-Sim-Degraded. ok=false means an error answer was
// written: a 400 for a bad point, else the first sub-batch failure
// (mergeFailure).
func (rt *Router) fanIn(w http.ResponseWriter, r *http.Request, points []server.SimulateRequest, fidelity string, warm bool) (resp server.BatchResponse, shards map[string]int, ok bool) {
	groups, err := rt.fanOut(r.Context(), points, fidelity, warm, forwardHeaders(r))
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return resp, nil, false
	}
	if mergeFailure(w, groups) {
		return resp, nil, false
	}
	resp.Outcomes = make([]string, len(points))
	if !warm {
		resp.Points = make([]server.SimulateResponse, len(points))
	}
	shards = map[string]int{}
	for _, g := range groups {
		shards[g.shardName()] += len(g.indices)
		resp.Degraded = resp.Degraded || g.resp.Degraded
		for j, i := range g.indices {
			if j < len(g.resp.Outcomes) {
				resp.Outcomes[i] = g.resp.Outcomes[j]
			}
			if !warm {
				resp.Points[i] = g.resp.Points[j]
			}
		}
	}
	w.Header().Set("X-Sim-Shard", countHeader(shards))
	if resp.Degraded {
		w.Header().Set("X-Sim-Degraded", "true")
	}
	return resp, shards, true
}

func (rt *Router) handleSweep(w http.ResponseWriter, r *http.Request) {
	endpoint := "sweep"
	warm := r.URL.Query().Get("warm") == "1"
	if warm {
		endpoint = "warm"
	}
	rt.guard(endpoint, func(w http.ResponseWriter, r *http.Request) {
		var req server.SweepRequest
		if err := server.DecodeJSON(r.Body, &req); err != nil {
			writeDecodeError(w, err)
			return
		}
		points, err := req.Grid(rt.cfg.MaxSweepPoints)
		if err != nil {
			writeError(w, http.StatusBadRequest, err.Error())
			return
		}
		batch, shards, ok := rt.fanIn(w, r, points, req.Fidelity, warm)
		if !ok {
			return
		}
		outcomes := map[string]int{}
		for _, o := range batch.Outcomes {
			// A shard that reported fewer outcomes than points leaves the
			// rest empty; they are not an outcome.
			if o != "" {
				outcomes[o]++
			}
		}
		w.Header().Set("X-Sim-Cache", countHeader(outcomes))
		if warm {
			writeJSON(w, http.StatusOK, &server.WarmResponse{
				Points:   len(points),
				Shards:   shards,
				Outcomes: outcomes,
			})
			return
		}
		// The merged body is exactly what one daemon would answer: the
		// same struct, the same marshaling — byte-identical by
		// construction, with every cache- and shard-dependent fact in
		// headers where it cannot perturb the bytes.
		writeJSON(w, http.StatusOK, &server.SweepResponse{Points: batch.Points, Degraded: batch.Degraded})
	})(w, r)
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.guard("batch", func(w http.ResponseWriter, r *http.Request) {
		var req server.BatchRequest
		if err := server.DecodeJSON(r.Body, &req); err != nil {
			writeDecodeError(w, err)
			return
		}
		if len(req.Points) == 0 {
			writeError(w, http.StatusBadRequest, "batch request needs at least one point")
			return
		}
		if len(req.Points) > rt.cfg.MaxSweepPoints {
			writeError(w, http.StatusBadRequest,
				fmt.Sprintf("batch has %d points, limit %d", len(req.Points), rt.cfg.MaxSweepPoints))
			return
		}
		batch, _, ok := rt.fanIn(w, r, req.Points, req.Fidelity, req.Warm)
		if !ok {
			return
		}
		writeJSON(w, http.StatusOK, &batch)
	})(w, r)
}

// RingStatus is the GET /v1/ring answer: the fleet as the router sees it.
type RingStatus struct {
	VNodes int          `json:"vnodes"`
	Shards []ShardState `json:"shards"`
}

// ShardState is one member's externally visible state.
type ShardState struct {
	Name    string `json:"name"`
	URL     string `json:"url"`
	Healthy bool   `json:"healthy"`
}

func (rt *Router) handleRing(w http.ResponseWriter, r *http.Request) {
	st := RingStatus{VNodes: rt.ring.VNodes()}
	for _, name := range rt.ring.Members() {
		s := rt.shards[name]
		st.Shards = append(st.Shards, ShardState{Name: name, URL: s.url, Healthy: s.healthy.Load()})
	}
	writeJSON(w, http.StatusOK, &st)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	healthy := rt.healthyCount()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if healthy == 0 {
		w.WriteHeader(http.StatusServiceUnavailable)
	}
	fmt.Fprintf(w, "ok (%d/%d shards healthy)\n", healthy, len(rt.shards))
}

// writeJSON and the error writers mirror the server package's: marshal
// before the header goes out, uniform error body, trailing newline.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeError(w http.ResponseWriter, status int, msg string) {
	data, _ := json.Marshal(server.ErrorResponse{Error: msg})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}

func writeDecodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, server.ErrRequestTooLarge) {
		data, _ := json.Marshal(server.ErrorResponse{
			Error:    fmt.Sprintf("request body exceeds %d bytes", int64(server.MaxRequestBytes)),
			MaxBytes: server.MaxRequestBytes,
		})
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusRequestEntityTooLarge)
		w.Write(append(data, '\n'))
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}
