package server

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/metrics"
)

// TestBatchEndpoint: a batch answers in request order, each point equal
// to a direct simulation, with a cache outcome per point and the shard
// name echoed in the body.
func TestBatchEndpoint(t *testing.T) {
	s := New(Config{Workers: 2, ShardName: "s1", Metrics: metrics.NewRegistry()})
	h := s.Handler()

	body := `{"points":[
		{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05},
		{"format":"720p30","channels":2,"freq_mhz":200,"fraction":0.05},
		{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05}]}`
	rec := postJSON(h, "/v1/batch", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("batch: status %d, body %s", rec.Code, rec.Body)
	}
	if got := rec.Header().Get("X-Sim-Shard"); got != "s1" {
		t.Errorf("X-Sim-Shard = %q, want s1", got)
	}
	var resp BatchResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatalf("decoding batch response: %v", err)
	}
	if resp.Shard != "s1" {
		t.Errorf("body shard = %q, want s1", resp.Shard)
	}
	if len(resp.Points) != 3 || len(resp.Outcomes) != 3 {
		t.Fatalf("batch returned %d points / %d outcomes, want 3 / 3", len(resp.Points), len(resp.Outcomes))
	}
	for i, channels := range []int{1, 2, 1} {
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
	// Point 2 repeats point 0 inside one batch, so exactly one of the two
	// is simulated and the other is answered by the memo (a hit or a
	// single-flight join). Which one simulates depends on which worker
	// reaches the memo first: with two workers, point 2 can start once
	// point 1 is done, before point 0's worker has looked its key up.
	sims := 0
	for _, o := range []string{resp.Outcomes[0], resp.Outcomes[2]} {
		if o == "simulated" {
			sims++
		}
	}
	if sims != 1 {
		t.Errorf("duplicate points' outcomes = %q and %q, want one simulated and one hit or joined",
			resp.Outcomes[0], resp.Outcomes[2])
	}
	for i, o := range resp.Outcomes[:2] {
		if o != "simulated" && o != "joined" && o != "hit" {
			t.Errorf("outcome %d = %q, not in the X-Sim-Cache vocabulary", i, o)
		}
	}
}

// TestBatchWarm: a warm batch computes the points (their outcomes are
// reported) but omits the result bodies, and a second warm batch of the
// same points answers entirely from cache.
func TestBatchWarm(t *testing.T) {
	s := New(Config{Workers: 2, Metrics: metrics.NewRegistry()})
	h := s.Handler()

	body := `{"warm":true,"points":[
		{"format":"720p30","channels":1,"freq_mhz":200,"fraction":0.05},
		{"format":"720p30","channels":2,"freq_mhz":200,"fraction":0.05}]}`
	var first BatchResponse
	rec := postJSON(h, "/v1/batch", body, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("warm batch: status %d, body %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &first); err != nil {
		t.Fatal(err)
	}
	if first.Points != nil {
		t.Errorf("warm batch returned %d point bodies, want none", len(first.Points))
	}
	if len(first.Outcomes) != 2 {
		t.Fatalf("warm outcomes = %v, want 2 entries", first.Outcomes)
	}
	for i, o := range first.Outcomes {
		if o != "simulated" {
			t.Errorf("cold warm-batch outcome %d = %q, want simulated", i, o)
		}
	}
	var second BatchResponse
	rec = postJSON(h, "/v1/batch", body, nil)
	if err := json.Unmarshal(rec.Body.Bytes(), &second); err != nil {
		t.Fatal(err)
	}
	for i, o := range second.Outcomes {
		if o != "hit" {
			t.Errorf("re-warm outcome %d = %q, want hit", i, o)
		}
	}
}

// TestBatchValidation: empty batches, oversized batches and bad points
// 400 before any simulation runs.
func TestBatchValidation(t *testing.T) {
	s := New(Config{Workers: 1, MaxSweepPoints: 2})
	h := s.Handler()
	for _, tc := range []struct {
		name, body string
	}{
		{"empty", `{"points":[]}`},
		{"missing", `{}`},
		{"over limit", `{"points":[{"format":"720p30","channels":1,"freq_mhz":200},{"format":"720p30","channels":2,"freq_mhz":200},{"format":"720p30","channels":4,"freq_mhz":200}]}`},
		{"bad point", `{"points":[{"format":"nope","channels":1,"freq_mhz":200}]}`},
		{"bad fidelity", `{"fidelity":"psychic","points":[{"format":"720p30","channels":1,"freq_mhz":200}]}`},
	} {
		if rec := postJSON(h, "/v1/batch", tc.body, nil); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", tc.name, rec.Code, rec.Body)
		}
	}
}

// TestRequestTooLarge is the satellite's contract: a body over
// MaxRequestBytes answers 413 — not a generic 400 — with the documented
// payload carrying the byte ceiling, on every decoding endpoint.
func TestRequestTooLarge(t *testing.T) {
	s := New(Config{Workers: 1})
	h := s.Handler()
	// A syntactically valid document that is simply enormous: the filler
	// lives in a giant formats list, so only the size can be the reason
	// for rejection.
	huge := `{"formats":["720p30","` + strings.Repeat("x", MaxRequestBytes) + `"],"channels":[1],"freqs_mhz":[200]}`
	for _, path := range []string{"/v1/simulate", "/v1/sweep", "/v1/batch"} {
		rec := postJSON(h, path, huge, nil)
		if rec.Code != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: status %d, want 413", path, rec.Code)
			continue
		}
		var e ErrorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
			t.Errorf("%s: undecodable 413 body: %v", path, err)
			continue
		}
		if e.MaxBytes != MaxRequestBytes {
			t.Errorf("%s: max_bytes = %d, want %d", path, e.MaxBytes, MaxRequestBytes)
		}
		if !strings.Contains(e.Error, "exceeds") {
			t.Errorf("%s: 413 error %q does not explain the limit", path, e.Error)
		}
	}
	// Just under the limit is a plain 400 (unknown field), never a 413.
	small := `{"formats":["720p30"],"chanels":[1]}`
	if rec := postJSON(h, "/v1/sweep", small, nil); rec.Code != http.StatusBadRequest {
		t.Errorf("small bad request: status %d, want 400", rec.Code)
	}
}
