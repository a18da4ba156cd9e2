package core

import (
	"fmt"
	"io"
	"sync/atomic"
	"time"

	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/probe"
)

// coreMeter bundles the registered instruments of the simulation layer.
// It exists (and is consulted) only when a run enabled metrics, so the
// disabled path costs one atomic load and an untaken branch — the same
// cost model as the probe layer.
type coreMeter struct {
	reg *metrics.Registry

	// Simulate-level accounting.
	pointsStarted   *metrics.Counter
	pointsCompleted *metrics.Counter
	pointSeconds    *metrics.Histogram

	// RunIndexed worker-pool accounting: planned vs completed drive the
	// -progress ETA; busy/queue-depth gauges and busy time are the data
	// needed to diagnose worker-pool scaling.
	indexedPlanned   *metrics.Counter
	indexedCompleted *metrics.Counter
	workersBusy      *metrics.Gauge
	queueDepth       *metrics.Gauge
	busyNanos        *metrics.Counter

	// Subsystem pool reuse.
	poolRevivals *metrics.Counter
	poolBuilds   *metrics.Counter

	// Points served per fidelity tier; auto splits into envelope-proven
	// analytic answers and cycle-accurate fallbacks.
	fidelityExact        *metrics.Counter
	fidelityFast         *metrics.Counter
	fidelityAutoAnalytic *metrics.Counter
	fidelityAutoExact    *metrics.Counter

	// Degraded-mode fault/QoS accounting.
	framesSimulated *metrics.Counter
	framesDropped   *metrics.Counter
	framesLate      *metrics.Counter
	deadlineMisses  *metrics.Counter
	degradeSteps    *metrics.Counter
	faultInjections *metrics.Counter
	faultRetries    *metrics.Counter
}

func newCoreMeter(r *metrics.Registry) *coreMeter {
	return &coreMeter{
		reg:              r,
		pointsStarted:    r.Counter("sim_points_started_total"),
		pointsCompleted:  r.Counter("sim_points_completed_total"),
		pointSeconds:     r.Histogram("sim_point_seconds", metrics.DurationBuckets),
		indexedPlanned:   r.Counter("runindexed_points_planned_total"),
		indexedCompleted: r.Counter("runindexed_points_completed_total"),
		workersBusy:      r.Gauge("runindexed_workers_busy"),
		queueDepth:       r.Gauge("runindexed_queue_depth"),
		busyNanos:        r.Counter("runindexed_busy_nanos_total"),
		poolRevivals:     r.Counter("simpool_revivals_total"),
		poolBuilds:       r.Counter("simpool_builds_total"),
		fidelityExact:    r.Counter("sim_fidelity_points_total", metrics.Label{Key: "tier", Value: "exact"}),
		fidelityFast:     r.Counter("sim_fidelity_points_total", metrics.Label{Key: "tier", Value: "fast"}),
		fidelityAutoAnalytic: r.Counter("sim_fidelity_points_total",
			metrics.Label{Key: "tier", Value: "auto_analytic"}),
		fidelityAutoExact: r.Counter("sim_fidelity_points_total",
			metrics.Label{Key: "tier", Value: "auto_exact"}),
		framesSimulated: r.Counter("qos_frames_simulated_total"),
		framesDropped:   r.Counter("qos_frames_dropped_total"),
		framesLate:      r.Counter("qos_frames_late_total"),
		deadlineMisses:  r.Counter("qos_deadline_misses_total"),
		degradeSteps:    r.Counter("qos_degrade_steps_total"),
		faultInjections: r.Counter("fault_injections_total"),
		faultRetries:    r.Counter("fault_retries_total"),
	}
}

// activeMeter is the process-wide meter, nil when metrics are disabled.
var activeMeter atomic.Pointer[coreMeter]

// EnableMetrics installs the run's metrics registry: the simulation layer
// (Simulate, RunIndexed, the subsystem pool, degraded-mode QoS) and the
// memory subsystem register their instruments in it and start counting.
// Passing nil disables metrics again. Enable before constructing a
// SimCache so the cache registers its counters too.
func EnableMetrics(r *metrics.Registry) {
	if r == nil {
		activeMeter.Store(nil)
	} else {
		activeMeter.Store(newCoreMeter(r))
	}
	memsys.EnableMetrics(r)
}

// MetricsRegistry returns the enabled registry, or nil.
func MetricsRegistry() *metrics.Registry {
	if m := activeMeter.Load(); m != nil {
		return m.reg
	}
	return nil
}

// activeSpans is the process-wide phase-span recorder, nil when disabled.
var activeSpans atomic.Pointer[probe.Spans]

// EnableSpans installs the run-level phase-span recorder consulted by
// Simulate; nil disables. The recorder is merged into the Chrome trace by
// probe.Observer.SetSpans.
func EnableSpans(s *probe.Spans) {
	if s == nil {
		activeSpans.Store(nil)
		return
	}
	activeSpans.Store(s)
}

// EnabledSpans returns the installed recorder, or nil.
func EnabledSpans() *probe.Spans { return activeSpans.Load() }

// Progress is a periodic stderr reporter over the enabled registry:
// completed/total points, cache-hit rate and estimated time remaining.
// It writes only to the given writer, never stdout, so enabling it keeps
// command output byte-identical.
type Progress struct {
	w        io.Writer
	interval time.Duration
	start    time.Time
	stop     chan struct{}
	done     chan struct{}
}

// StartProgress begins reporting every interval. Requires EnableMetrics
// first; with metrics disabled it returns a nil (inert) reporter.
func StartProgress(w io.Writer, interval time.Duration) *Progress {
	m := activeMeter.Load()
	if m == nil || interval <= 0 {
		return nil
	}
	p := &Progress{w: w, interval: interval, start: time.Now(),
		stop: make(chan struct{}), done: make(chan struct{})}
	go p.run(m)
	return p
}

func (p *Progress) run(m *coreMeter) {
	defer close(p.done)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
			fmt.Fprintln(p.w, p.line(m, false))
		}
	}
}

// line renders one progress report. final switches to the completed form.
func (p *Progress) line(m *coreMeter, final bool) string {
	done := m.indexedCompleted.Value()
	total := m.indexedPlanned.Value()
	elapsed := time.Since(p.start)
	s := fmt.Sprintf("progress: %d/%d points", done, total)
	if total > 0 {
		s += fmt.Sprintf(" (%.0f%%)", 100*float64(done)/float64(total))
	}
	if c := EnabledCache(); c != nil {
		s += fmt.Sprintf(", cache hit %.0f%%", 100*c.Stats().HitRate())
	}
	if final {
		return s + fmt.Sprintf(", done in %.1fs", elapsed.Seconds())
	}
	if done > 0 && elapsed > 0 {
		rate := float64(done) / elapsed.Seconds()
		s += fmt.Sprintf(", %.1f points/s", rate)
		if left := total - done; left > 0 && rate > 0 {
			s += fmt.Sprintf(", eta %.0fs", float64(left)/rate)
		}
	}
	return s
}

// Stop halts the ticker and emits a final summary line. Nil-safe.
func (p *Progress) Stop() {
	if p == nil {
		return
	}
	close(p.stop)
	<-p.done
	if m := activeMeter.Load(); m != nil {
		fmt.Fprintln(p.w, p.line(m, true))
	}
}
