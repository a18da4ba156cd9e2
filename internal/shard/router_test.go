package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/server"
)

// testFleet is a set of in-process shards (each a full server.Server
// behind httptest) plus a Router fronting them — the unit-test version
// of the simrouter + N×simd deployment.
type testFleet struct {
	shards  map[string]*httptest.Server
	urls    map[string]string
	router  *Router
	service *httptest.Server
}

func newTestFleet(t *testing.T, n int, cfg RouterConfig) *testFleet {
	t.Helper()
	f := &testFleet{
		shards: map[string]*httptest.Server{},
		urls:   map[string]string{},
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("s%d", i+1)
		s := server.New(server.Config{Workers: 2, ShardName: name, Metrics: metrics.NewRegistry()})
		ts := httptest.NewServer(s.Handler())
		f.shards[name] = ts
		f.urls[name] = ts.URL
	}
	cfg.Shards = f.urls
	if cfg.HealthInterval == 0 {
		// Keep the poller out of short tests; passive marking still runs.
		cfg.HealthInterval = time.Hour
	}
	rt, err := NewRouter(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f.router = rt
	f.service = httptest.NewServer(rt.Handler())
	t.Cleanup(func() {
		f.service.Close()
		rt.Close()
		for _, ts := range f.shards {
			ts.Close()
		}
	})
	return f
}

func post(t *testing.T, url, body string) *http.Response {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func readAll(t *testing.T, resp *http.Response) []byte {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

const sweepBody = `{"formats":["720p30"],"channels":[1,2],"freqs_mhz":[200,400],"fraction":0.05}`

// singleSweep answers the same sweep from ONE fresh daemon — the
// byte-identity reference.
func singleSweep(t *testing.T, body string) []byte {
	t.Helper()
	s := server.New(server.Config{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	resp := post(t, ts.URL+"/v1/sweep", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("reference sweep: status %d", resp.StatusCode)
	}
	return readAll(t, resp)
}

// TestRouterSimulate: a routed point answers exactly like a direct
// daemon, attributed to the ring owner of its cache key.
func TestRouterSimulate(t *testing.T) {
	f := newTestFleet(t, 3, RouterConfig{})
	body := `{"format":"720p30","channels":2,"freq_mhz":200,"fraction":0.05}`

	resp := post(t, f.service.URL+"/v1/simulate", body)
	routed := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed simulate: status %d, body %s", resp.StatusCode, routed)
	}
	shard := resp.Header.Get("X-Sim-Shard")
	if shard == "" {
		t.Fatal("routed response has no X-Sim-Shard attribution")
	}
	var req server.SimulateRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatal(err)
	}
	key, err := keyFor(req)
	if err != nil {
		t.Fatal(err)
	}
	if owner := f.router.Ring().Owner(key); shard != owner {
		t.Errorf("served by %s, ring owner is %s", shard, owner)
	}
	if cache := resp.Header.Get("X-Sim-Cache"); cache == "" {
		t.Error("shard's X-Sim-Cache header was not relayed")
	}

	direct := post(t, f.urls[shard]+"/v1/simulate", body)
	want := readAll(t, direct)
	if !bytes.Equal(routed, want) {
		t.Errorf("routed body %s != direct shard body %s", routed, want)
	}
}

// TestRouterSweepByteIdentical is the tentpole contract: the merged
// fleet sweep is byte-for-byte the single-daemon sweep, at the exact
// tier and at -fidelity auto, with per-shard attribution adding up to
// the grid size.
func TestRouterSweepByteIdentical(t *testing.T) {
	f := newTestFleet(t, 3, RouterConfig{})
	for _, tier := range []string{"", "auto"} {
		body := sweepBody
		if tier != "" {
			body = strings.Replace(body, `{"formats"`, `{"fidelity":"`+tier+`","formats"`, 1)
		}
		resp := post(t, f.service.URL+"/v1/sweep", body)
		merged := readAll(t, resp)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("tier %q: routed sweep status %d, body %s", tier, resp.StatusCode, merged)
		}
		if want := singleSweep(t, body); !bytes.Equal(merged, want) {
			t.Errorf("tier %q: merged sweep differs from single daemon\nrouter: %s\nsingle: %s", tier, merged, want)
		}

		total := 0
		for _, part := range strings.Split(resp.Header.Get("X-Sim-Shard"), ",") {
			kv := strings.SplitN(part, "=", 2)
			var n int
			if len(kv) != 2 {
				t.Fatalf("tier %q: unparsable X-Sim-Shard part %q", tier, part)
			}
			if _, err := fmt.Sscanf(kv[1], "%d", &n); err != nil {
				t.Fatalf("tier %q: unparsable X-Sim-Shard part %q", tier, part)
			}
			total += n
		}
		if total != 4 {
			t.Errorf("tier %q: X-Sim-Shard %q counts sum to %d, want 4",
				tier, resp.Header.Get("X-Sim-Shard"), total)
		}
	}
}

// TestRouterFailover: with one shard down, every request still answers
// correctly from a ring successor and the fleet view marks the loss.
func TestRouterFailover(t *testing.T) {
	f := newTestFleet(t, 3, RouterConfig{Retries: 2, RetryBackoff: time.Millisecond})
	want := singleSweep(t, sweepBody)

	f.shards["s2"].Close()

	resp := post(t, f.service.URL+"/v1/sweep", sweepBody)
	merged := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep with a dead shard: status %d, body %s", resp.StatusCode, merged)
	}
	if !bytes.Equal(merged, want) {
		t.Errorf("failover sweep differs from single daemon\nrouter: %s\nsingle: %s", merged, want)
	}
	if strings.Contains(resp.Header.Get("X-Sim-Shard"), "s2=") {
		t.Errorf("dead shard still attributed answers: %q", resp.Header.Get("X-Sim-Shard"))
	}

	ringResp, err := http.Get(f.service.URL + "/v1/ring")
	if err != nil {
		t.Fatal(err)
	}
	var status RingStatus
	if err := json.Unmarshal(readAll(t, ringResp), &status); err != nil {
		t.Fatal(err)
	}
	healthyByName := map[string]bool{}
	for _, s := range status.Shards {
		healthyByName[s.Name] = s.Healthy
	}
	// Passive marking only demotes a shard the router actually tried, and
	// with three members one sub-batch may never have touched s2 — but if
	// it did, the ring view must say so.
	if len(status.Shards) != 3 {
		t.Fatalf("/v1/ring lists %d shards, want 3", len(status.Shards))
	}
	if healthyByName["s1"] == false || healthyByName["s3"] == false {
		t.Errorf("live shards marked unhealthy: %+v", status.Shards)
	}
}

// TestRouterAllDown: with every shard gone the router answers an honest
// 502, not a hang or a wrong answer.
func TestRouterAllDown(t *testing.T) {
	f := newTestFleet(t, 2, RouterConfig{Retries: 1, RetryBackoff: time.Millisecond})
	for _, ts := range f.shards {
		ts.Close()
	}
	resp := post(t, f.service.URL+"/v1/simulate",
		`{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05}`)
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusBadGateway {
		t.Fatalf("all shards down: status %d, want 502", resp.StatusCode)
	}
}

// TestRouterWarm: ?warm=1 primes every shard's cache without shipping
// result bodies; the following sweep answers entirely from cache.
func TestRouterWarm(t *testing.T) {
	f := newTestFleet(t, 3, RouterConfig{})

	resp := post(t, f.service.URL+"/v1/sweep?warm=1", sweepBody)
	body := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("warm: status %d, body %s", resp.StatusCode, body)
	}
	var warm server.WarmResponse
	if err := json.Unmarshal(body, &warm); err != nil {
		t.Fatal(err)
	}
	if warm.Points != 4 {
		t.Errorf("warm primed %d points, want 4", warm.Points)
	}
	if warm.Outcomes["simulated"]+warm.Outcomes["joined"] != 4 {
		t.Errorf("cold warm outcomes = %v, want 4 computed", warm.Outcomes)
	}

	resp = post(t, f.service.URL+"/v1/sweep", sweepBody)
	merged := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-warm sweep: status %d", resp.StatusCode)
	}
	if got := resp.Header.Get("X-Sim-Cache"); got != "hit=4" {
		t.Errorf("post-warm sweep X-Sim-Cache = %q, want hit=4", got)
	}
	if want := singleSweep(t, sweepBody); !bytes.Equal(merged, want) {
		t.Errorf("post-warm sweep differs from single daemon")
	}
}

// TestRouterBatch: a routed batch merges points and outcomes in request
// order across shards.
func TestRouterBatch(t *testing.T) {
	f := newTestFleet(t, 2, RouterConfig{})
	body := `{"points":[
		{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05},
		{"format":"720p30","channels":2,"freq_mhz":200,"fraction":0.05},
		{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05}]}`
	resp := post(t, f.service.URL+"/v1/batch", body)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("routed batch: status %d, body %s", resp.StatusCode, raw)
	}
	var batch server.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if len(batch.Points) != 3 || len(batch.Outcomes) != 3 {
		t.Fatalf("routed batch: %d points / %d outcomes, want 3 / 3", len(batch.Points), len(batch.Outcomes))
	}
	if batch.Points[0] != batch.Points[2] {
		t.Errorf("identical points answered differently: %+v vs %+v", batch.Points[0], batch.Points[2])
	}
	if batch.Points[0].Channels != 1 || batch.Points[1].Channels != 2 {
		t.Errorf("batch merge lost request order: %+v", batch.Points)
	}
}

// TestRouterValidation: undecodable, oversized and empty requests fail
// at the router without touching any shard.
func TestRouterValidation(t *testing.T) {
	f := newTestFleet(t, 1, RouterConfig{})
	huge := `{"formats":["720p30","` + strings.Repeat("x", server.MaxRequestBytes) + `"],"channels":[1],"freqs_mhz":[200]}`
	resp := post(t, f.service.URL+"/v1/sweep", huge)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Errorf("oversized sweep: status %d, want 413", resp.StatusCode)
	}
	var e server.ErrorResponse
	if err := json.Unmarshal(raw, &e); err != nil || e.MaxBytes != server.MaxRequestBytes {
		t.Errorf("413 body %s lacks max_bytes", raw)
	}

	for _, tc := range []struct{ path, body string }{
		{"/v1/simulate", `{"format":"nope","channels":1,"freq_mhz":200}`},
		{"/v1/sweep", `{"formats":[],"channels":[1],"freqs_mhz":[200]}`},
		{"/v1/batch", `{"points":[]}`},
	} {
		resp := post(t, f.service.URL+tc.path, tc.body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.path, resp.StatusCode)
		}
	}

	if _, err := NewRouter(RouterConfig{}); err == nil {
		t.Error("router built with no shards")
	}
	if _, err := NewRouter(RouterConfig{Shards: map[string]string{"a": ""}}); err == nil {
		t.Error("router accepted an empty shard URL")
	}
}

// TestRouterDegradedPassThrough: when one shard answers its sub-batch
// degraded, the merged sweep and batch carry X-Sim-Degraded and the body
// flag, and every point, degraded or exact, stays in grid order.
func TestRouterDegradedPassThrough(t *testing.T) {
	// The stub shard answers every point degraded, echoing its grid
	// coordinates so a misplaced point is visible.
	stubAnswer := func(p server.SimulateRequest) server.SimulateResponse {
		return server.SimulateResponse{Format: p.Format, Channels: p.Channels, FreqMHz: p.FreqMHz, Degraded: true, Estimated: true}
	}
	stub := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		var req server.BatchRequest
		if err := server.DecodeJSON(r.Body, &req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		resp := server.BatchResponse{Degraded: true, Shard: "stub"}
		for _, p := range req.Points {
			resp.Outcomes = append(resp.Outcomes, "degraded")
			if !req.Warm {
				resp.Points = append(resp.Points, stubAnswer(p))
			}
		}
		writeJSON(w, http.StatusOK, &resp)
	}))
	defer stub.Close()
	exact := httptest.NewServer(server.New(server.Config{Workers: 2, ShardName: "real"}).Handler())
	defer exact.Close()
	rt, err := NewRouter(RouterConfig{
		Shards:         map[string]string{"stub": stub.URL, "real": exact.URL},
		HealthInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Close()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	body := `{"formats":["720p30"],"channels":[1,2,3,4],"freqs_mhz":[200,400],"fraction":0.05}`
	var sweep server.SweepRequest
	if err := json.Unmarshal([]byte(body), &sweep); err != nil {
		t.Fatal(err)
	}
	grid, err := sweep.Grid(rt.cfg.MaxSweepPoints)
	if err != nil {
		t.Fatal(err)
	}
	var ref server.SweepResponse
	if err := json.Unmarshal(singleSweep(t, body), &ref); err != nil {
		t.Fatal(err)
	}
	// want is the grid-order answer: the stub's for the points it owns,
	// the single daemon's for the rest.
	want := make([]server.SimulateResponse, len(grid))
	owned := map[string]int{}
	for i, p := range grid {
		key, err := keyFor(p)
		if err != nil {
			t.Fatal(err)
		}
		owner := rt.Ring().Owner(key)
		owned[owner]++
		want[i] = ref.Points[i]
		if owner == "stub" {
			want[i] = stubAnswer(p)
		}
	}
	if owned["stub"] == 0 || owned["real"] == 0 {
		t.Fatalf("grid placement %v leaves a shard without points; widen the grid", owned)
	}
	checkPoints := func(name string, got []server.SimulateResponse) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d points, want %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: point %d = %+v, want %+v", name, i, got[i], want[i])
			}
		}
	}

	resp := post(t, front.URL+"/v1/sweep", body)
	raw := readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("sweep: status %d, body %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Sim-Degraded"); got != "true" {
		t.Errorf("sweep: X-Sim-Degraded = %q, want true", got)
	}
	var merged server.SweepResponse
	if err := json.Unmarshal(raw, &merged); err != nil {
		t.Fatal(err)
	}
	if !merged.Degraded {
		t.Error("sweep: merged body not flagged degraded")
	}
	checkPoints("sweep", merged.Points)

	batchBody, err := json.Marshal(&server.BatchRequest{Points: grid})
	if err != nil {
		t.Fatal(err)
	}
	resp = post(t, front.URL+"/v1/batch", string(batchBody))
	raw = readAll(t, resp)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", resp.StatusCode, raw)
	}
	if got := resp.Header.Get("X-Sim-Degraded"); got != "true" {
		t.Errorf("batch: X-Sim-Degraded = %q, want true", got)
	}
	var batch server.BatchResponse
	if err := json.Unmarshal(raw, &batch); err != nil {
		t.Fatal(err)
	}
	if !batch.Degraded {
		t.Error("batch: merged body not flagged degraded")
	}
	checkPoints("batch", batch.Points)
	for i, o := range batch.Outcomes {
		if (o == "degraded") != want[i].Degraded {
			t.Errorf("batch: outcome %d = %q for point %+v", i, o, want[i])
		}
	}
}
