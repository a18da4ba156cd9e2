// Package server is the simulation service: a hardened HTTP/JSON daemon
// exposing the simulator over POST /v1/simulate (one point), POST
// /v1/sweep (a grid) and POST /v1/batch (an explicit point list),
// answering from the content-addressed SimCache with cross-request
// single-flight dedup and dispatching misses into a bounded worker pool.
// Every endpoint lowers its body to one list of points and answers it on
// one request path (serve): resolve, deadline, admission, then each
// point at its fidelity tier.
//
// The robustness discipline mirrors the paper's QoS ladder at the service
// level, in order of preference: answer at the requested tier (cache hit
// or simulation), answer approximately when the queue is saturated (with
// Degrade, the same points at the fast tier, flagged degraded), or refuse
// cheaply and honestly (429 with Retry-After) — never hang, never let one
// client starve the rest, and never let a disconnected client keep
// burning CPU. Every limit is a Config knob and every decision is counted
// in the metrics registry.
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
)

// Config tunes the service. The zero value of every field means its
// stated default, so Config{} is a working configuration.
type Config struct {
	// Workers bounds the simulations in flight (0 = one per CPU).
	Workers int
	// QueueLimit bounds the requests admitted beyond the running ones;
	// an arrival that would exceed Workers+QueueLimit is shed with 429
	// (or served degraded, below). 0 = 4×Workers.
	QueueLimit int
	// MaxSweepPoints bounds one sweep request's grid (0 = 1024).
	MaxSweepPoints int
	// DefaultDeadline is the per-request deadline when the client sets
	// none (0 = 60s); MaxDeadline caps what a client may ask for via the
	// X-Sim-Deadline header or ?deadline= parameter (0 = 5m).
	DefaultDeadline time.Duration
	MaxDeadline     time.Duration
	// RateLimit is the per-client token-bucket rate in requests/second
	// (0 = unlimited); RateBurst the bucket size (0 = max(1, 2×rate)).
	// Clients are keyed by the X-Client-ID header, else by remote host.
	RateLimit float64
	RateBurst int
	// Degrade serves a saturated arrival's points at the fast fidelity
	// tier, outside the worker pool and flagged degraded in the
	// response, instead of shedding it with 429 — the service-level
	// analogue of the paper's frame-dropping ladder.
	Degrade bool
	// Fidelity is the tier used for requests that do not set their own
	// "fidelity" field (the simd -fidelity flag). The zero value is
	// FidelityExact — the seed behavior.
	Fidelity core.Fidelity
	// Cache answers points content-addressed with single-flight dedup
	// (nil = a fresh in-process cache).
	Cache *core.SimCache
	// Metrics, when non-nil, registers the service instruments in it.
	Metrics *metrics.Registry
	// ShardName, when set, stamps every response with an X-Sim-Shard
	// header (and batch bodies with a shard field) so a router-fronted
	// fleet can attribute each answer to the daemon that served it.
	ShardName string
}

// withDefaults resolves the zero values.
func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = core.DefaultJobs()
	}
	if c.QueueLimit <= 0 {
		c.QueueLimit = 4 * c.Workers
	}
	if c.MaxSweepPoints <= 0 {
		c.MaxSweepPoints = 1024
	}
	if c.DefaultDeadline <= 0 {
		c.DefaultDeadline = 60 * time.Second
	}
	if c.MaxDeadline <= 0 {
		c.MaxDeadline = 5 * time.Minute
	}
	if c.RateBurst <= 0 {
		c.RateBurst = int(math.Max(1, 2*c.RateLimit))
	}
	if c.Cache == nil {
		c.Cache = core.NewSimCache()
	}
	return c
}

// serverMeter bundles the service's registered instruments; every field
// is nil (a no-op) when no registry was configured.
type serverMeter struct {
	requests         map[string]*metrics.Counter
	latency          map[string]*metrics.Histogram
	shed             *metrics.Counter
	rateLimited      *metrics.Counter
	deadlineExceeded *metrics.Counter
	panics           *metrics.Counter
	degraded         *metrics.Counter
	dedupJoined      *metrics.Counter
	queueWaiting     *metrics.Gauge
	running          *metrics.Gauge
}

func newServerMeter(r *metrics.Registry) serverMeter {
	endpoint := func(name string) metrics.Label {
		return metrics.Label{Key: "endpoint", Value: name}
	}
	m := serverMeter{
		requests: map[string]*metrics.Counter{},
		latency:  map[string]*metrics.Histogram{},
	}
	for _, ep := range []string{"simulate", "sweep", "batch"} {
		m.requests[ep] = r.Counter("server_requests_total", endpoint(ep))
		m.latency[ep] = r.Histogram("server_request_seconds", metrics.DurationBuckets, endpoint(ep))
	}
	m.shed = r.Counter("server_shed_total")
	m.rateLimited = r.Counter("server_ratelimited_total")
	m.deadlineExceeded = r.Counter("server_deadline_exceeded_total")
	m.panics = r.Counter("server_panics_total")
	m.degraded = r.Counter("server_degraded_total")
	m.dedupJoined = r.Counter("server_dedup_joined_total")
	m.queueWaiting = r.Gauge("server_queue_waiting")
	m.running = r.Gauge("server_running")
	return m
}

// Server is the simulation service. Construct with New, serve either by
// Start (own listener) or by mounting Handler on an external server.
type Server struct {
	cfg     Config
	limiter *rateLimiter
	meter   serverMeter

	// slots is the worker-pool semaphore: one token per concurrent
	// simulation, shared by every endpoint. pending counts admitted
	// requests (queued + running) against Workers+QueueLimit.
	slots   chan struct{}
	pending atomic.Int64

	// baseCtx parents every request context; cancelBase aborts all
	// in-flight work when the drain deadline passes.
	baseCtx    context.Context
	cancelBase context.CancelFunc

	http *http.Server
	ln   net.Listener

	// simulate is the compute seam: production wires it to the cache;
	// tests substitute blocking or panicking stand-ins to pin the
	// failure-handling paths.
	simulate func(ctx context.Context, w core.Workload, mc core.MemoryConfig, tier core.Fidelity) (core.Result, core.CacheOutcome, error)
}

// New builds a Server from cfg.
func New(cfg Config) *Server {
	cfg = cfg.withDefaults()
	baseCtx, cancel := context.WithCancel(context.Background())
	s := &Server{
		cfg:        cfg,
		limiter:    newRateLimiter(cfg.RateLimit, cfg.RateBurst),
		meter:      newServerMeter(cfg.Metrics),
		slots:      make(chan struct{}, cfg.Workers),
		baseCtx:    baseCtx,
		cancelBase: cancel,
		simulate:   cfg.Cache.SimulateTier,
	}
	s.http = &http.Server{
		Handler:     s.Handler(),
		BaseContext: func(net.Listener) context.Context { return s.baseCtx },
	}
	return s
}

// Handler returns the service mux (also mounted by Start).
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/simulate", s.guard("simulate", s.handleSimulate))
	mux.HandleFunc("/v1/sweep", s.guard("sweep", s.handleSweep))
	mux.HandleFunc("/v1/batch", s.guard("batch", s.handleBatch))
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprint(w, "simulation service\n\nPOST /v1/simulate\nPOST /v1/sweep\nPOST /v1/batch\nGET  /healthz\n")
	})
	return mux
}

// Start binds addr and serves in the background. Like the debug server
// it binds eagerly so ":0" callers can learn the port.
func (s *Server) Start(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return fmt.Errorf("server: %w", err)
	}
	s.ln = ln
	go s.http.Serve(ln)
	return nil
}

// Addr returns the bound address (resolved port for ":0" binds).
func (s *Server) Addr() string {
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// drainGrace is how long Drain keeps waiting after it has canceled the
// in-flight requests' contexts: enough for handlers to observe the
// cancellation and unwind, short enough that a true hang is surfaced.
const drainGrace = 5 * time.Second

// Drain gracefully stops the service: the listener closes immediately
// (no new requests), in-flight requests get until ctx to finish, and
// past that their contexts are canceled so they abort at the next phase
// boundary and unwind within drainGrace. Only a request that ignores its
// cancellation hangs the drain — that returns an error after the
// listener is forcibly closed, and the daemon exits non-zero.
func (s *Server) Drain(ctx context.Context) error {
	stop := context.AfterFunc(ctx, s.cancelBase)
	defer stop()
	if err := s.http.Shutdown(ctx); err == nil {
		s.cancelBase()
		return nil
	}
	// The deadline passed and AfterFunc has canceled every request
	// context; give the handlers a grace period to unwind.
	g, cancel := context.WithTimeout(context.Background(), drainGrace)
	defer cancel()
	if err := s.http.Shutdown(g); err != nil {
		s.http.Close()
		return fmt.Errorf("server: drain: in-flight requests ignored cancellation: %w", err)
	}
	return nil
}

// Close stops the service immediately, cutting off in-flight requests.
func (s *Server) Close() error {
	s.cancelBase()
	return s.http.Close()
}

// guard wraps a handler with the shared request discipline: method
// check, per-client rate limit, panic isolation, and request accounting.
func (s *Server) guard(endpoint string, h func(http.ResponseWriter, *http.Request)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if p := recover(); p != nil {
				s.meter.panics.Inc()
				fmt.Fprintf(os.Stderr, "server: panic in %s: %v\n%s", endpoint, p, debug.Stack())
				writeError(w, http.StatusInternalServerError, fmt.Sprintf("internal error serving %s", endpoint))
			}
		}()
		if s.cfg.ShardName != "" {
			w.Header().Set("X-Sim-Shard", s.cfg.ShardName)
		}
		s.meter.requests[endpoint].Inc()
		start := time.Now()
		defer func() { s.meter.latency[endpoint].Observe(time.Since(start).Seconds()) }()
		if r.Method != http.MethodPost {
			w.Header().Set("Allow", http.MethodPost)
			writeError(w, http.StatusMethodNotAllowed, "use POST")
			return
		}
		if ok, retry := s.limiter.Allow(clientKey(r), time.Now()); !ok {
			s.meter.rateLimited.Inc()
			w.Header().Set("Retry-After", retryAfterSeconds(retry))
			writeError(w, http.StatusTooManyRequests, "client rate limit exceeded")
			return
		}
		h(w, r)
	}
}

// clientKey identifies the client for rate limiting: an explicit
// X-Client-ID header wins, else the remote host.
func clientKey(r *http.Request) string {
	if id := r.Header.Get("X-Client-ID"); id != "" {
		return id
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return r.RemoteAddr
	}
	return host
}

// retryAfterSeconds renders a wait as the integral seconds the
// Retry-After header wants, rounding up so "retry after 0" never lies.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// requestDeadline resolves the effective deadline: the client's
// X-Sim-Deadline header or ?deadline= parameter (whichever is present,
// header winning), capped at MaxDeadline; absent both, DefaultDeadline.
func (s *Server) requestDeadline(r *http.Request) (time.Duration, error) {
	spec := r.Header.Get("X-Sim-Deadline")
	if spec == "" {
		spec = r.URL.Query().Get("deadline")
	}
	if spec == "" {
		return s.cfg.DefaultDeadline, nil
	}
	d, err := time.ParseDuration(spec)
	if err != nil {
		return 0, fmt.Errorf("bad deadline %q: %v", spec, err)
	}
	if d <= 0 {
		return 0, fmt.Errorf("bad deadline %q: must be positive", spec)
	}
	if d > s.cfg.MaxDeadline {
		d = s.cfg.MaxDeadline
	}
	return d, nil
}

// admit charges one request against the admission bound. ok=false means
// the queue is full and the caller must shed or degrade; otherwise the
// returned release must be called when the request retires.
func (s *Server) admit() (release func(), ok bool) {
	limit := int64(s.cfg.Workers + s.cfg.QueueLimit)
	if s.pending.Add(1) > limit {
		s.pending.Add(-1)
		return nil, false
	}
	return func() { s.pending.Add(-1) }, true
}

// acquireSlot blocks until a worker slot is free or ctx is done, keeping
// the queue-depth gauge honest while waiting.
func (s *Server) acquireSlot(ctx context.Context) (release func(), err error) {
	s.meter.queueWaiting.Add(1)
	defer s.meter.queueWaiting.Add(-1)
	select {
	case s.slots <- struct{}{}:
		s.meter.running.Add(1)
		return func() {
			<-s.slots
			s.meter.running.Add(-1)
		}, nil
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// point is one resolved request point: the wire request it answers, its
// core inputs and the fidelity tier it is served at when admitted.
type point struct {
	req  SimulateRequest
	w    core.Workload
	mc   core.MemoryConfig
	tier core.Fidelity
}

// resolve lowers the wire points to core inputs, validating every one,
// and resolves each tier: a point's own fidelity field wins over the
// request default, which wins over the server default.
func (s *Server) resolve(reqs []SimulateRequest, fidelity string) ([]point, error) {
	points := make([]point, len(reqs))
	for i, req := range reqs {
		wl, mc, err := req.Point()
		if err != nil {
			return nil, err
		}
		spec := req.Fidelity
		if spec == "" {
			spec = fidelity
		}
		tier := s.cfg.Fidelity
		if spec != "" {
			if tier, err = core.ParseFidelity(spec); err != nil {
				return nil, err
			}
		}
		points[i] = point{req, wl, mc, tier}
	}
	return points, nil
}

// answer is one served point: its wire body and how it was answered (a
// cache outcome, or "degraded").
type answer struct {
	resp    SimulateResponse
	outcome string
}

// serve is every endpoint's request path. It resolves the points and the
// deadline (any error is a 400 before admission), then charges the
// request one admission. Admitted points fan over the shared worker pool
// at their own tiers, in request order. A saturated arrival is shed with
// 429, or, with Degrade, served at the fast tier outside the pool and
// flagged degraded. ok=false means an error answer was written.
func (s *Server) serve(w http.ResponseWriter, r *http.Request, reqs []SimulateRequest, fidelity string) (answers []answer, degraded, ok bool) {
	points, err := s.resolve(reqs, fidelity)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false, false
	}
	deadline, err := s.requestDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return nil, false, false
	}
	release, admitted := s.admit()
	switch {
	case admitted:
		defer release()
	case !s.cfg.Degrade:
		s.meter.shed.Inc()
		w.Header().Set("Retry-After", retryAfterSeconds(time.Second))
		writeError(w, http.StatusTooManyRequests, "admission queue full")
		return nil, false, false
	}
	degraded = !admitted
	jobs := s.cfg.Workers
	if degraded {
		jobs = 1
	}
	ctx, cancel := context.WithTimeout(r.Context(), deadline)
	defer cancel()
	answers, err = core.RunIndexedContext(ctx, jobs, len(points), func(i int) (answer, error) {
		return s.servePoint(ctx, points[i], degraded)
	})
	if err != nil {
		s.writeSimError(w, ctx, err)
		return nil, false, false
	}
	if degraded {
		s.meter.degraded.Inc()
		w.Header().Set("X-Sim-Degraded", "true")
	}
	return answers, degraded, true
}

// servePoint answers one point: at its own tier through a worker slot (the
// per-point acquireSlot arbitrates fairly between requests), or, when
// degraded, at the fast tier without taking one.
func (s *Server) servePoint(ctx context.Context, p point, degraded bool) (answer, error) {
	if degraded {
		res, _, err := s.simulate(ctx, p.w, p.mc, core.FidelityFast)
		return answer{responseFor(p.req, res, true), "degraded"}, err
	}
	release, err := s.acquireSlot(ctx)
	if err != nil {
		return answer{}, err
	}
	defer release()
	res, outcome, err := s.simulate(ctx, p.w, p.mc, p.tier)
	if err != nil {
		return answer{}, err
	}
	if outcome == core.OutcomeJoined {
		s.meter.dedupJoined.Inc()
	}
	return answer{responseFor(p.req, res, false), outcome.String()}, nil
}

func (s *Server) handleSimulate(w http.ResponseWriter, r *http.Request) {
	var req SimulateRequest
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	answers, degraded, ok := s.serve(w, r, []SimulateRequest{req}, "")
	if !ok {
		return
	}
	if !degraded {
		w.Header().Set("X-Sim-Cache", answers[0].outcome)
	}
	writeJSON(w, http.StatusOK, &answers[0].resp)
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	var req SweepRequest
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	grid, err := req.Grid(s.cfg.MaxSweepPoints)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	answers, degraded, ok := s.serve(w, r, grid, req.Fidelity)
	if !ok {
		return
	}
	resp := SweepResponse{Points: make([]SimulateResponse, len(answers)), Degraded: degraded}
	for i, a := range answers {
		resp.Points[i] = a.resp
	}
	writeJSON(w, http.StatusOK, &resp)
}

// handleBatch answers an explicit slice of points under ONE admission
// and deadline envelope — the shard router's per-shard transport. The
// points are served exactly as a sweep's grid is; the difference is the
// envelope (a router charges each shard one admission slot per
// sub-batch, not one per point) and the response, which carries
// per-point outcomes so the router can surface fleet-wide cache
// attribution without the merged sweep body ever depending on cache
// state. A warm batch computes and persists every point but omits the
// bodies — priming is the payload. Degraded answers are estimates, which
// never reach the disk store, so a degraded warm batch primes nothing;
// its "degraded" outcomes say so.
func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if err := DecodeJSON(r.Body, &req); err != nil {
		writeDecodeError(w, err)
		return
	}
	if len(req.Points) == 0 {
		writeError(w, http.StatusBadRequest, "batch request needs at least one point")
		return
	}
	if len(req.Points) > s.cfg.MaxSweepPoints {
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d points, limit %d", len(req.Points), s.cfg.MaxSweepPoints))
		return
	}
	answers, degraded, ok := s.serve(w, r, req.Points, req.Fidelity)
	if !ok {
		return
	}
	resp := BatchResponse{
		Shard:    s.cfg.ShardName,
		Outcomes: make([]string, len(answers)),
		Degraded: degraded,
	}
	if !req.Warm {
		resp.Points = make([]SimulateResponse, len(answers))
	}
	for i, a := range answers {
		resp.Outcomes[i] = a.outcome
		if !req.Warm {
			resp.Points[i] = a.resp
		}
	}
	writeJSON(w, http.StatusOK, &resp)
}

// writeSimError maps a simulation failure to its status: deadline and
// disconnect cancellations are the client's doing (504/499-as-503),
// anything else is a service-side 500.
func (s *Server) writeSimError(w http.ResponseWriter, ctx context.Context, err error) {
	switch ctx.Err() {
	case context.DeadlineExceeded:
		s.meter.deadlineExceeded.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded")
	case context.Canceled:
		// Client went away or the drain deadline cut the request off;
		// the status is best-effort (the peer is usually gone).
		writeError(w, http.StatusServiceUnavailable, "request canceled")
	default:
		writeError(w, http.StatusInternalServerError, err.Error())
	}
}

// writeJSON writes v with status. Marshaling happens before the header
// goes out so an encoding failure can still 500.
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

// writeDecodeError maps a request-decoding failure to its status: a body
// over MaxRequestBytes answers 413 with the documented max-size payload
// (the max_bytes field tells the client the ceiling), anything else is a
// plain 400.
func writeDecodeError(w http.ResponseWriter, err error) {
	if errors.Is(err, ErrRequestTooLarge) {
		writeErrorPayload(w, http.StatusRequestEntityTooLarge, ErrorResponse{
			Error:    fmt.Sprintf("request body exceeds %d bytes", int64(MaxRequestBytes)),
			MaxBytes: MaxRequestBytes,
		})
		return
	}
	writeError(w, http.StatusBadRequest, err.Error())
}

// writeError writes the uniform error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeErrorPayload(w, status, ErrorResponse{Error: msg})
}

func writeErrorPayload(w http.ResponseWriter, status int, e ErrorResponse) {
	data, _ := json.Marshal(e)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}
