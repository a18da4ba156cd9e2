package server

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/simcache"
)

// sampleBody is the canonical test point: small enough (5% of a 720p30
// frame) that the real simulator answers it in milliseconds.
const sampleBody = `{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05}`

func sampleRequest() SimulateRequest {
	return SimulateRequest{Format: "720p30", Channels: 1, FreqMHz: 200, Fraction: 0.05}
}

var (
	sampleOnce sync.Once
	sampleRes  core.Result
	sampleErr  error
)

// sampleResult simulates the canonical point once, directly through
// core.Simulate, and shares it across tests — both as a stub return
// value and as the independent expectation the service must reproduce.
func sampleResult(t *testing.T) core.Result {
	t.Helper()
	sampleOnce.Do(func() {
		req := sampleRequest()
		w, mc, err := req.Point()
		if err != nil {
			sampleErr = err
			return
		}
		sampleRes, sampleErr = core.Simulate(w, mc)
	})
	if sampleErr != nil {
		t.Fatalf("simulating sample point: %v", sampleErr)
	}
	return sampleRes
}

func postJSON(h http.Handler, path, body string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(http.MethodPost, path, strings.NewReader(body))
	req.RemoteAddr = "10.0.0.1:12345"
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

// TestSimulateEndpoint: the real path end to end — a miss simulates, a
// repeat hits the cache, and the two bodies are byte-identical (cache
// state lives in the header, never the body).
func TestSimulateEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, Metrics: metrics.NewRegistry()})
	h := s.Handler()

	first := postJSON(h, "/v1/simulate", sampleBody, nil)
	if first.Code != http.StatusOK {
		t.Fatalf("first request: status %d, body %s", first.Code, first.Body)
	}
	if got := first.Header().Get("X-Sim-Cache"); got != "simulated" {
		t.Errorf("first request X-Sim-Cache = %q, want simulated", got)
	}
	second := postJSON(h, "/v1/simulate", sampleBody, nil)
	if second.Code != http.StatusOK {
		t.Fatalf("second request: status %d, body %s", second.Code, second.Body)
	}
	if got := second.Header().Get("X-Sim-Cache"); got != "hit" {
		t.Errorf("second request X-Sim-Cache = %q, want hit", got)
	}
	if first.Body.String() != second.Body.String() {
		t.Errorf("hit body differs from miss body:\n  miss: %s\n  hit:  %s", first.Body, second.Body)
	}

	want := responseFor(sampleRequest(), sampleResult(t), false)
	var got SimulateResponse
	if err := json.Unmarshal(first.Body.Bytes(), &got); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	if got != want {
		t.Errorf("response = %+v, want %+v", got, want)
	}
}

// TestSimulateRejectsBadRequests: the strict decoder and validators turn
// every malformed input into a 400 (or 405) before any simulation runs.
func TestSimulateRejectsBadRequests(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	for _, tc := range []struct {
		name string
		body string
		hdr  map[string]string
		want int
	}{
		{"unknown field", `{"format":"720p30","channels":1,"freq_mhz":200,"chanels":4}`, nil, 400},
		{"trailing data", sampleBody + `{"x":1}`, nil, 400},
		{"bad format", `{"format":"9999p99","channels":1,"freq_mhz":200}`, nil, 400},
		{"zero channels", `{"format":"720p30","channels":0,"freq_mhz":200}`, nil, 400},
		{"bad mux", `{"format":"720p30","channels":1,"freq_mhz":200,"mux":"cbr"}`, nil, 400},
		{"bad policy", `{"format":"720p30","channels":1,"freq_mhz":200,"policy":"ajar"}`, nil, 400},
		{"bad deadline", sampleBody, map[string]string{"X-Sim-Deadline": "soon"}, 400},
		{"negative deadline", sampleBody, map[string]string{"X-Sim-Deadline": "-1s"}, 400},
		{"empty body", ``, nil, 400},
	} {
		if rec := postJSON(h, "/v1/simulate", tc.body, tc.hdr); rec.Code != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, rec.Code, tc.want, rec.Body)
		}
	}
	req := httptest.NewRequest(http.MethodGet, "/v1/simulate", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	if rec.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET: status %d, want 405", rec.Code)
	}
}

// TestSingleFlightDedup is the satellite's contract: N concurrent
// identical requests execute ONE simulation; the other N-1 join it, the
// dedup-join counter reads N-1, and all N bodies are byte-identical.
// The stub routes through a real simcache.Memo whose computation is held
// open until every request has parked in the memo, so the join is
// deterministic rather than a race the fast simulator usually wins.
func TestSingleFlightDedup(t *testing.T) {
	const n = 8
	reg := metrics.NewRegistry()
	s := New(Config{Workers: n, QueueLimit: n, Metrics: reg})
	res := sampleResult(t)

	memo := simcache.NewMemo[core.Result]()
	key := simcache.Key{0x5f}
	gate := make(chan struct{})
	var computed atomic.Int64
	s.simulate = func(ctx context.Context, w core.Workload, mc core.MemoryConfig, tier core.Fidelity) (core.Result, core.CacheOutcome, error) {
		val, err, hit, joined := memo.DoContext(ctx, key, func(context.Context) (core.Result, error) {
			computed.Add(1)
			<-gate
			return res, nil
		})
		outcome := core.OutcomeSimulated
		switch {
		case joined:
			outcome = core.OutcomeJoined
		case hit:
			outcome = core.OutcomeHit
		}
		return val, outcome, err
	}

	h := s.Handler()
	type answer struct {
		code  int
		body  string
		cache string
	}
	answers := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() {
			rec := postJSON(h, "/v1/simulate", sampleBody, nil)
			answers <- answer{rec.Code, rec.Body.String(), rec.Header().Get("X-Sim-Cache")}
		}()
	}

	// One initiator plus n-1 joiners all hold a ref on the entry.
	deadline := time.Now().Add(10 * time.Second)
	for memo.Inflight(key) < n {
		if time.Now().After(deadline) {
			t.Fatalf("inflight %d, want %d", memo.Inflight(key), n)
		}
		time.Sleep(time.Millisecond)
	}
	close(gate)

	var bodies []string
	counts := map[string]int{}
	for i := 0; i < n; i++ {
		a := <-answers
		if a.code != http.StatusOK {
			t.Fatalf("request failed: status %d, body %s", a.code, a.body)
		}
		bodies = append(bodies, a.body)
		counts[a.cache]++
	}
	for _, b := range bodies[1:] {
		if b != bodies[0] {
			t.Fatalf("bodies not byte-identical:\n  %s\n  %s", bodies[0], b)
		}
	}
	if computed.Load() != 1 {
		t.Errorf("computed %d simulations, want 1", computed.Load())
	}
	if counts["simulated"] != 1 || counts["joined"] != n-1 {
		t.Errorf("outcomes = %v, want 1 simulated + %d joined", counts, n-1)
	}
	if v := s.meter.dedupJoined.Value(); v != n-1 {
		t.Errorf("server_dedup_joined_total = %d, want %d", v, n-1)
	}
}

// blockingStub parks every simulate call until gate closes (or the
// request context is canceled), reporting each arrival on started. Fast
// tier calls, which is how saturated requests are degraded, answer at
// once with the analytic estimate.
func blockingStub(res core.Result, gate <-chan struct{}, started chan<- struct{}) func(context.Context, core.Workload, core.MemoryConfig, core.Fidelity) (core.Result, core.CacheOutcome, error) {
	return func(ctx context.Context, w core.Workload, mc core.MemoryConfig, tier core.Fidelity) (core.Result, core.CacheOutcome, error) {
		if tier == core.FidelityFast {
			est, err := core.AnalyticResult(w, mc)
			return est, core.OutcomeSimulated, err
		}
		if started != nil {
			started <- struct{}{}
		}
		select {
		case <-gate:
			return res, core.OutcomeSimulated, nil
		case <-ctx.Done():
			return core.Result{}, 0, ctx.Err()
		}
	}
}

// TestAdmissionShed: with Workers=1 and QueueLimit=1, the third
// concurrent request must shed with 429 + Retry-After while the two
// admitted ones complete once the pool frees up.
func TestAdmissionShed(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, QueueLimit: 1, Metrics: reg})
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	s.simulate = blockingStub(sampleResult(t), gate, started)
	h := s.Handler()

	admitted := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { admitted <- postJSON(h, "/v1/simulate", sampleBody, nil) }()
	}
	<-started // first holds the worker slot
	deadline := time.Now().Add(10 * time.Second)
	for s.pending.Load() < 2 { // second admitted, queued for a slot
		if time.Now().After(deadline) {
			t.Fatalf("pending %d, want 2", s.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	rec := postJSON(h, "/v1/simulate", sampleBody, nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("saturated request: status %d, want 429 (body %s)", rec.Code, rec.Body)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if v := s.meter.shed.Value(); v != 1 {
		t.Errorf("server_shed_total = %d, want 1", v)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		if a := <-admitted; a.Code != http.StatusOK {
			t.Errorf("admitted request: status %d, body %s", a.Code, a.Body)
		}
	}
}

// TestDegradedFallback: with Degrade on, saturation serves the analytic
// estimate — flagged in both header and body — instead of a 429.
func TestDegradedFallback(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, QueueLimit: 1, Degrade: true, Metrics: reg})
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	s.simulate = blockingStub(sampleResult(t), gate, started)
	h := s.Handler()

	admitted := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { admitted <- postJSON(h, "/v1/simulate", sampleBody, nil) }()
	}
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.pending.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pending %d, want 2", s.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}

	rec := postJSON(h, "/v1/simulate", sampleBody, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("degraded request: status %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sim-Degraded"); got != "true" {
		t.Errorf("X-Sim-Degraded = %q, want true", got)
	}
	var resp SimulateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding degraded response: %v", err)
	}
	if !resp.Degraded {
		t.Error("degraded response body not flagged degraded")
	}
	if resp.AccessMS <= 0 || resp.PowerMW <= 0 {
		t.Errorf("degraded estimate implausible: access %.3fms power %.1fmW", resp.AccessMS, resp.PowerMW)
	}
	if v := s.meter.degraded.Value(); v != 1 {
		t.Errorf("server_degraded_total = %d, want 1", v)
	}

	close(gate)
	for i := 0; i < 2; i++ {
		<-admitted
	}
}

// TestDegradedSweepAndBatch: with Degrade on, a saturated sweep, batch
// and warm batch each answer 200 with every point the fidelity-fast
// answer flagged degraded, the batch outcomes read "degraded", and each
// request counts once in server_degraded_total.
func TestDegradedSweepAndBatch(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, QueueLimit: 1, Degrade: true, Metrics: reg})
	// Exact simulations park until gate closes, holding the pool full;
	// every other tier reaches the real cache.
	gate := make(chan struct{})
	started := make(chan struct{}, 4)
	real := s.simulate
	park := blockingStub(core.Result{}, gate, started)
	s.simulate = func(ctx context.Context, w core.Workload, mc core.MemoryConfig, tier core.Fidelity) (core.Result, core.CacheOutcome, error) {
		if tier == core.FidelityExact {
			return park(ctx, w, mc, tier)
		}
		return real(ctx, w, mc, tier)
	}
	h := s.Handler()

	admitted := make(chan *httptest.ResponseRecorder, 2)
	for i := 0; i < 2; i++ {
		go func() { admitted <- postJSON(h, "/v1/simulate", sampleBody, nil) }()
	}
	<-started
	deadline := time.Now().Add(10 * time.Second)
	for s.pending.Load() < 2 {
		if time.Now().After(deadline) {
			t.Fatalf("pending %d, want 2", s.pending.Load())
		}
		time.Sleep(time.Millisecond)
	}
	defer func() {
		close(gate)
		for i := 0; i < 2; i++ {
			<-admitted
		}
	}()

	// fastAnswer is the fidelity-fast answer an unsaturated daemon gives.
	fast := New(Config{Workers: 1}).Handler()
	fastAnswer := func(req SimulateRequest) SimulateResponse {
		t.Helper()
		req.Fidelity = "fast"
		body, err := json.Marshal(&req)
		if err != nil {
			t.Fatal(err)
		}
		rec := postJSON(fast, "/v1/simulate", string(body), nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("fast reference: status %d, body %s", rec.Code, rec.Body)
		}
		var resp SimulateResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatal(err)
		}
		return resp
	}
	checkPoints := func(name string, reqs []SimulateRequest, got []SimulateResponse) {
		t.Helper()
		if len(got) != len(reqs) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(reqs))
		}
		for i, req := range reqs {
			if !got[i].Degraded || !got[i].Estimated {
				t.Errorf("%s: point %d degraded=%v estimated=%v, want both true", name, i, got[i].Degraded, got[i].Estimated)
			}
			want := fastAnswer(req)
			want.Degraded = true
			if got[i] != want {
				t.Errorf("%s: point %d = %+v, want %+v", name, i, got[i], want)
			}
		}
	}
	post := func(name, path, body string) []byte {
		t.Helper()
		before := s.meter.degraded.Value()
		rec := postJSON(h, path, body, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, body %s", name, rec.Code, rec.Body)
		}
		if got := rec.Header().Get("X-Sim-Degraded"); got != "true" {
			t.Errorf("%s: X-Sim-Degraded = %q, want true", name, got)
		}
		if d := s.meter.degraded.Value() - before; d != 1 {
			t.Errorf("%s: server_degraded_total rose by %d, want 1", name, d)
		}
		return rec.Body.Bytes()
	}

	sweep := SweepRequest{Formats: []string{"720p30"}, Channels: []int{1, 2}, FreqsMHz: []int{200, 400}, Fraction: 0.05}
	grid, err := sweep.Grid(16)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(&sweep)
	if err != nil {
		t.Fatal(err)
	}
	var sresp SweepResponse
	if err := json.Unmarshal(post("sweep", "/v1/sweep", string(body)), &sresp); err != nil {
		t.Fatal(err)
	}
	if !sresp.Degraded {
		t.Error("sweep: envelope not flagged degraded")
	}
	checkPoints("sweep", grid, sresp.Points)

	// A point's own exact tier does not survive saturation: degraded
	// means the fast tier for every point.
	points := []SimulateRequest{sampleRequest(), sampleRequest()}
	points[1].Channels = 2
	points[1].Fidelity = "exact"
	for _, warm := range []bool{false, true} {
		name := fmt.Sprintf("batch warm=%v", warm)
		body, err := json.Marshal(&BatchRequest{Points: points, Warm: warm})
		if err != nil {
			t.Fatal(err)
		}
		var bresp BatchResponse
		if err := json.Unmarshal(post(name, "/v1/batch", string(body)), &bresp); err != nil {
			t.Fatal(err)
		}
		if !bresp.Degraded {
			t.Errorf("%s: envelope not flagged degraded", name)
		}
		if len(bresp.Outcomes) != len(points) {
			t.Fatalf("%s: %d outcomes, want %d", name, len(bresp.Outcomes), len(points))
		}
		for i, o := range bresp.Outcomes {
			if o != "degraded" {
				t.Errorf("%s: outcome %d = %q, want degraded", name, i, o)
			}
		}
		if warm {
			if bresp.Points != nil {
				t.Errorf("%s: %d point bodies, want none", name, len(bresp.Points))
			}
			continue
		}
		checkPoints(name, points, bresp.Points)
	}
}

// TestDeadlineExceeded: a request whose deadline fires mid-simulation
// gets 504 and the deadline counter, not a hang.
func TestDeadlineExceeded(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	s.simulate = blockingStub(core.Result{}, nil, nil) // nil gate: only ctx can release it
	h := s.Handler()

	rec := postJSON(h, "/v1/simulate", sampleBody, map[string]string{"X-Sim-Deadline": "30ms"})
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", rec.Code, rec.Body)
	}
	if v := s.meter.deadlineExceeded.Value(); v != 1 {
		t.Errorf("server_deadline_exceeded_total = %d, want 1", v)
	}
}

// TestPanicIsolation: a panicking request answers 500 and the service
// keeps serving — one poisoned input cannot take the daemon down.
func TestPanicIsolation(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, Metrics: reg})
	s.simulate = func(context.Context, core.Workload, core.MemoryConfig, core.Fidelity) (core.Result, core.CacheOutcome, error) {
		panic("poisoned point")
	}
	h := s.Handler()

	if rec := postJSON(h, "/v1/simulate", sampleBody, nil); rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request: status %d, want 500", rec.Code)
	}
	if v := s.meter.panics.Value(); v != 1 {
		t.Errorf("server_panics_total = %d, want 1", v)
	}
	res := sampleResult(t)
	s.simulate = func(context.Context, core.Workload, core.MemoryConfig, core.Fidelity) (core.Result, core.CacheOutcome, error) {
		return res, core.OutcomeSimulated, nil
	}
	if rec := postJSON(h, "/v1/simulate", sampleBody, nil); rec.Code != http.StatusOK {
		t.Errorf("request after panic: status %d, want 200", rec.Code)
	}
	if running := s.meter.running.Value(); running != 0 {
		t.Errorf("running gauge leaked: %d, want 0", running)
	}
}

// TestRateLimit: a client over its token bucket gets 429 + Retry-After;
// other clients are unaffected.
func TestRateLimit(t *testing.T) {
	reg := metrics.NewRegistry()
	s := New(Config{Workers: 1, RateLimit: 0.001, RateBurst: 1, Metrics: reg})
	res := sampleResult(t)
	s.simulate = func(context.Context, core.Workload, core.MemoryConfig, core.Fidelity) (core.Result, core.CacheOutcome, error) {
		return res, core.OutcomeSimulated, nil
	}
	h := s.Handler()

	a := map[string]string{"X-Client-ID": "alice"}
	if rec := postJSON(h, "/v1/simulate", sampleBody, a); rec.Code != http.StatusOK {
		t.Fatalf("first alice request: status %d", rec.Code)
	}
	rec := postJSON(h, "/v1/simulate", sampleBody, a)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("second alice request: status %d, want 429", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Error("rate-limited 429 without Retry-After")
	}
	if rec := postJSON(h, "/v1/simulate", sampleBody, map[string]string{"X-Client-ID": "bob"}); rec.Code != http.StatusOK {
		t.Errorf("bob request: status %d, want 200 (limits are per-client)", rec.Code)
	}
	if v := s.meter.rateLimited.Value(); v != 1 {
		t.Errorf("server_ratelimited_total = %d, want 1", v)
	}
}

// TestSweepEndpoint: a grid answers in row-major order with each point
// equal to an independent direct simulation.
func TestSweepEndpoint(t *testing.T) {
	s := New(Config{Workers: 4, Metrics: metrics.NewRegistry()})
	h := s.Handler()

	body := `{"formats":["720p30"],"channels":[1,2],"freqs_mhz":[200],"fraction":0.05}`
	rec := postJSON(h, "/v1/sweep", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("sweep: status %d, body %s", rec.Code, rec.Body)
	}
	var resp SweepResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding sweep response: %v", err)
	}
	if len(resp.Points) != 2 {
		t.Fatalf("sweep returned %d points, want 2", len(resp.Points))
	}
	for i, channels := range []int{1, 2} {
		req := sampleRequest()
		req.Channels = channels
		w, mc, err := req.Point()
		if err != nil {
			t.Fatal(err)
		}
		direct, err := core.Simulate(w, mc)
		if err != nil {
			t.Fatal(err)
		}
		if want := responseFor(req, direct, false); resp.Points[i] != want {
			t.Errorf("point %d = %+v, want %+v", i, resp.Points[i], want)
		}
	}
}

// TestSweepGridLimit: a grid over MaxSweepPoints is refused up front.
func TestSweepGridLimit(t *testing.T) {
	s := New(Config{Workers: 1, MaxSweepPoints: 1})
	body := `{"formats":["720p30"],"channels":[1,2],"freqs_mhz":[200]}`
	if rec := postJSON(s.Handler(), "/v1/sweep", body, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("oversized grid: status %d, want 400 (body %s)", rec.Code, rec.Body)
	}
}

// TestDrainCancelsInflight: a drain whose deadline passes cancels the
// in-flight request contexts and still comes back clean — the handler
// unwinds on cancellation instead of hanging the shutdown.
func TestDrainCancelsInflight(t *testing.T) {
	s := New(Config{Workers: 1})
	started := make(chan struct{}, 1)
	s.simulate = blockingStub(core.Result{}, nil, started) // releases only on ctx cancel
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr() + "/v1/simulate"

	type reply struct {
		code int
		err  error
	}
	replies := make(chan reply, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(sampleBody))
		if err != nil {
			replies <- reply{0, err}
			return
		}
		defer resp.Body.Close()
		replies <- reply{resp.StatusCode, nil}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	r := <-replies
	if r.err != nil {
		t.Fatalf("in-flight request errored instead of answering: %v", r.err)
	}
	if r.code != http.StatusServiceUnavailable {
		t.Errorf("canceled in-flight request: status %d, want 503", r.code)
	}
	if _, err := http.Post(url, "application/json", strings.NewReader(sampleBody)); err == nil {
		t.Error("post-drain request succeeded, want connection refused")
	}
}

// TestDrainClean: an in-flight request that finishes inside the drain
// deadline completes normally with a 200.
func TestDrainClean(t *testing.T) {
	s := New(Config{Workers: 1})
	gate := make(chan struct{})
	started := make(chan struct{}, 1)
	s.simulate = blockingStub(sampleResult(t), gate, started)
	if err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	url := "http://" + s.Addr() + "/v1/simulate"

	codes := make(chan int, 1)
	go func() {
		resp, err := http.Post(url, "application/json", strings.NewReader(sampleBody))
		if err != nil {
			codes <- 0
			return
		}
		defer resp.Body.Close()
		codes <- resp.StatusCode
	}()
	<-started
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(gate)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if code := <-codes; code != http.StatusOK {
		t.Errorf("in-flight request during clean drain: status %d, want 200", code)
	}
}

// TestRequestDeadlineResolution: header beats query, both are capped at
// MaxDeadline, and absence means the default.
func TestRequestDeadlineResolution(t *testing.T) {
	s := New(Config{DefaultDeadline: 7 * time.Second, MaxDeadline: 30 * time.Second})
	for _, tc := range []struct {
		name   string
		header string
		query  string
		want   time.Duration
	}{
		{"default", "", "", 7 * time.Second},
		{"header", "2s", "", 2 * time.Second},
		{"query", "", "3s", 3 * time.Second},
		{"header wins", "2s", "3s", 2 * time.Second},
		{"capped", "10m", "", 30 * time.Second},
	} {
		target := "/v1/simulate"
		if tc.query != "" {
			target += "?deadline=" + tc.query
		}
		req := httptest.NewRequest(http.MethodPost, target, nil)
		if tc.header != "" {
			req.Header.Set("X-Sim-Deadline", tc.header)
		}
		got, err := s.requestDeadline(req)
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if got != tc.want {
			t.Errorf("%s: deadline %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHealthz: liveness answers without touching the simulation path.
func TestHealthz(t *testing.T) {
	s := New(Config{Workers: 1})
	req := httptest.NewRequest(http.MethodGet, "/healthz", nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "ok") {
		t.Errorf("healthz: status %d body %q", rec.Code, rec.Body)
	}
}

// TestRetryAfterSeconds: the header never advertises a zero wait.
func TestRetryAfterSeconds(t *testing.T) {
	for _, tc := range []struct {
		d    time.Duration
		want string
	}{
		{0, "1"},
		{10 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1500 * time.Millisecond, "2"},
	} {
		if got := retryAfterSeconds(tc.d); got != tc.want {
			t.Errorf("retryAfterSeconds(%v) = %s, want %s", tc.d, got, tc.want)
		}
	}
}
