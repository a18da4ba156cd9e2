package core

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/units"
)

// metricsRun enables a fresh registry for the test body and restores the
// disabled default afterwards (the instrumented layers are process-wide).
func metricsRun(t *testing.T) *metrics.Registry {
	t.Helper()
	reg := metrics.NewRegistry()
	EnableMetrics(reg)
	t.Cleanup(func() { EnableMetrics(nil) })
	return reg
}

func counterValue(t *testing.T, reg *metrics.Registry, id string) int64 {
	t.Helper()
	e, ok := reg.Snapshot().Find(id)
	if !ok {
		t.Fatalf("metric %q not in snapshot", id)
	}
	return int64(e.Value)
}

// TestSimulateMetrics: an instrumented Simulate counts points, observes
// wall time, and accounts the subsystem pool.
func TestSimulateMetrics(t *testing.T) {
	reg := metricsRun(t)
	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mc := PaperMemory(2, 400*units.MHz)
	for i := 0; i < 3; i++ {
		if _, err := Simulate(w, mc); err != nil {
			t.Fatal(err)
		}
	}
	if got := counterValue(t, reg, "sim_points_started_total"); got != 3 {
		t.Errorf("points started = %d, want 3", got)
	}
	if got := counterValue(t, reg, "sim_points_completed_total"); got != 3 {
		t.Errorf("points completed = %d, want 3", got)
	}
	e, ok := reg.Snapshot().Find("sim_point_seconds")
	if !ok || e.Count != 3 || e.Sum <= 0 {
		t.Errorf("point histogram = %+v ok=%v, want 3 observations", e, ok)
	}
	// Pool accounting: builds + revivals together cover all three runs
	// (whether the pool had a warm system from another test or not).
	builds := counterValue(t, reg, "simpool_builds_total")
	revivals := counterValue(t, reg, "simpool_revivals_total")
	if builds+revivals != 3 {
		t.Errorf("pool builds=%d revivals=%d, want sum 3", builds, revivals)
	}
	// The memsys meter counted the subsystem runs.
	if got := counterValue(t, reg, "memsys_runs_total"); got != 3 {
		t.Errorf("memsys runs = %d, want 3", got)
	}
}

// TestRunIndexedMetrics: the worker pool accounts planned/completed and
// leaves the gauges at zero when idle again.
func TestRunIndexedMetrics(t *testing.T) {
	reg := metricsRun(t)
	_, err := RunIndexed(4, 10, func(i int) (int, error) {
		time.Sleep(time.Millisecond)
		return i, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := counterValue(t, reg, "runindexed_points_planned_total"); got != 10 {
		t.Errorf("planned = %d, want 10", got)
	}
	if got := counterValue(t, reg, "runindexed_points_completed_total"); got != 10 {
		t.Errorf("completed = %d, want 10", got)
	}
	if got := counterValue(t, reg, "runindexed_workers_busy"); got != 0 {
		t.Errorf("workers busy after completion = %d, want 0", got)
	}
	if got := counterValue(t, reg, "runindexed_queue_depth"); got != 0 {
		t.Errorf("queue depth after completion = %d, want 0", got)
	}
	if got := counterValue(t, reg, "runindexed_busy_nanos_total"); got <= 0 {
		t.Errorf("busy nanos = %d, want > 0", got)
	}
}

// TestSimCacheMetrics: a cache built under an enabled registry serves its
// counters through /metrics names and keeps the stderr formatter working.
func TestSimCacheMetrics(t *testing.T) {
	reg := metricsRun(t)
	c := NewSimCache()
	EnableCache(c)
	t.Cleanup(DisableCache)

	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mc := PaperMemory(1, 200*units.MHz)
	if _, err := Simulate(w, mc); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(w, mc); err != nil {
		t.Fatal(err)
	}

	if got := counterValue(t, reg, "simcache_misses_total"); got != 1 {
		t.Errorf("misses = %d, want 1", got)
	}
	if got := counterValue(t, reg, `simcache_hits_total{tier="memory"}`); got != 1 {
		t.Errorf("memory hits = %d, want 1", got)
	}
	// The stderr line is a formatter over the same counters.
	st := c.Stats()
	if st.Simulated != 1 || st.MemHits != 1 {
		t.Errorf("Stats() = %+v, want Simulated=1 MemHits=1", st)
	}
	if s := st.String(); !strings.Contains(s, "1 simulated, 1 memory hits") {
		t.Errorf("Stats().String() = %q", s)
	}
}

// TestSimulateSpans: with a span recorder enabled, one cached point
// records cache-lookup plus the compute phases on lane 0.
func TestSimulateSpans(t *testing.T) {
	sp := probe.NewSpans()
	EnableSpans(sp)
	t.Cleanup(func() { EnableSpans(nil) })
	EnableCache(NewSimCache())
	t.Cleanup(DisableCache)

	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	if _, err := Simulate(w, PaperMemory(1, 200*units.MHz)); err != nil {
		t.Fatal(err)
	}
	evs := sp.ChromeEvents()
	var phases []string
	for _, ev := range evs {
		if ev.Ph == "X" {
			phases = append(phases, ev.Name)
		}
	}
	joined := strings.Join(phases, ",")
	for _, want := range []string{"cache-lookup", "generate", "simulate", "report"} {
		if !strings.Contains(joined, want) {
			t.Errorf("phases %v missing %q", phases, want)
		}
	}
	if sp.Lanes() != 1 {
		t.Errorf("lanes = %d, want 1 for a serial run", sp.Lanes())
	}
}

// TestProgressReporter: lines go to the given writer only, and the final
// line reports the planned/completed totals.
func TestProgressReporter(t *testing.T) {
	metricsRun(t)
	var buf bytes.Buffer
	p := StartProgress(&buf, time.Millisecond)
	if p == nil {
		t.Fatal("StartProgress returned nil with metrics enabled")
	}
	if _, err := RunIndexed(2, 6, func(i int) (int, error) {
		time.Sleep(2 * time.Millisecond)
		return i, nil
	}); err != nil {
		t.Fatal(err)
	}
	p.Stop()
	out := buf.String()
	if !strings.Contains(out, "progress:") {
		t.Fatalf("no progress lines:\n%s", out)
	}
	if !strings.Contains(out, "6/6 points") || !strings.Contains(out, "done in") {
		t.Errorf("final line missing from:\n%s", out)
	}
}

// TestProgressDisabled: without metrics the reporter is inert.
func TestProgressDisabled(t *testing.T) {
	EnableMetrics(nil)
	var buf bytes.Buffer
	p := StartProgress(&buf, time.Millisecond)
	if p != nil {
		t.Fatal("StartProgress must return nil with metrics disabled")
	}
	p.Stop() // nil-safe
	if buf.Len() != 0 {
		t.Errorf("disabled reporter wrote %q", buf.String())
	}
}
