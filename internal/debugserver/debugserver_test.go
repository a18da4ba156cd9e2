package debugserver

import (
	"context"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
)

func get(t *testing.T, url string) (int, string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: reading body: %v", url, err)
	}
	return resp.StatusCode, string(body)
}

func TestEndpoints(t *testing.T) {
	reg := metrics.NewRegistry()
	reg.Counter("simcache_hits_total", metrics.Label{Key: "tier", Value: "memory"}).Add(12)
	reg.Gauge("workers_busy").Set(3)

	s, err := Start("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	base := "http://" + s.Addr()

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if !strings.Contains(body, `simcache_hits_total{tier="memory"} 12`) ||
		!strings.Contains(body, "workers_busy 3") {
		t.Errorf("/metrics body missing series:\n%s", body)
	}

	code, body = get(t, base+"/metrics.json")
	if code != http.StatusOK || !strings.Contains(body, `"simcache_hits_total"`) {
		t.Errorf("/metrics.json status %d body:\n%s", code, body)
	}

	code, body = get(t, base+"/debug/vars")
	if code != http.StatusOK || !strings.Contains(body, "memstats") {
		t.Errorf("/debug/vars status %d", code)
	}

	code, body = get(t, base+"/debug/pprof/")
	if code != http.StatusOK || !strings.Contains(body, "goroutine") {
		t.Errorf("/debug/pprof/ status %d", code)
	}

	code, _ = get(t, base+"/nonexistent")
	if code != http.StatusNotFound {
		t.Errorf("/nonexistent status %d, want 404", code)
	}
}

func TestNilRegistry(t *testing.T) {
	s, err := Start("127.0.0.1:0", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Shutdown(context.Background())
	code, body := get(t, "http://"+s.Addr()+"/metrics")
	if code != http.StatusOK || strings.TrimSpace(body) != "" {
		t.Errorf("nil-registry /metrics: status %d body %q", code, body)
	}
}

func TestValidateAddr(t *testing.T) {
	for _, ok := range []string{":0", "127.0.0.1:8080", "localhost:9999", "[::1]:0"} {
		if err := ValidateAddr(ok); err != nil {
			t.Errorf("ValidateAddr(%q) = %v, want nil", ok, err)
		}
	}
	for _, bad := range []string{"", "no-port", "127.0.0.1:http", ":70000", ":-1", "host:port:extra"} {
		if err := ValidateAddr(bad); err == nil {
			t.Errorf("ValidateAddr(%q) = nil, want error", bad)
		}
	}
}

// TestShutdownDrainsInflightScrape: Shutdown must close the listener to
// new scrapes while an in-flight request (a 1-second pprof CPU capture)
// runs to completion.
func TestShutdownDrainsInflightScrape(t *testing.T) {
	s, err := Start("127.0.0.1:0", metrics.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	addr := s.Addr()
	type scrape struct {
		code int
		n    int
		err  error
	}
	inflight := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/debug/pprof/profile?seconds=1")
		if err != nil {
			inflight <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		inflight <- scrape{code: resp.StatusCode, n: len(body), err: err}
	}()
	// Wait until the capture is actually in flight, then shut down.
	time.Sleep(200 * time.Millisecond)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	got := <-inflight
	if got.err != nil || got.code != http.StatusOK || got.n == 0 {
		t.Errorf("in-flight scrape during Shutdown: code=%d bytes=%d err=%v; want a complete 200", got.code, got.n, got.err)
	}
	// The listener is gone: a fresh scrape is refused, not served or hung.
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Error("listener still accepting connections after Shutdown")
	}
}

// TestShutdownNil: like every other accessor, Shutdown is nil-safe.
func TestShutdownNil(t *testing.T) {
	var s *Server
	if err := s.Shutdown(context.Background()); err != nil {
		t.Errorf("nil Shutdown = %v", err)
	}
}
