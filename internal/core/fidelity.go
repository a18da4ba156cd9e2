package core

import (
	"context"
	"fmt"
	"math"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/load"
	"repro/internal/units"
	"repro/internal/usecase"
)

// Fidelity selects how much simulation a point is worth.
//
// FidelityExact always runs the cycle-accurate simulator — the seed
// behavior, and the default everywhere. FidelityFast always answers with
// the closed-form analytic estimate (microseconds instead of
// milliseconds, no verdict guarantee). FidelityAuto serves the analytic
// answer only when the calibrated error envelope proves the verdict could
// not differ from the simulator's, and silently falls back to the exact
// path otherwise — auto sweeps are verdict-identical to exact ones by
// construction.
type Fidelity int

const (
	FidelityExact Fidelity = iota
	FidelityFast
	FidelityAuto
)

// String spells the tier the way the -fidelity flag accepts it.
func (f Fidelity) String() string {
	switch f {
	case FidelityExact:
		return "exact"
	case FidelityFast:
		return "fast"
	case FidelityAuto:
		return "auto"
	default:
		return fmt.Sprintf("Fidelity(%d)", int(f))
	}
}

// ParseFidelity parses a -fidelity flag value.
func ParseFidelity(s string) (Fidelity, error) {
	switch s {
	case "exact":
		return FidelityExact, nil
	case "fast":
		return FidelityFast, nil
	case "auto":
		return FidelityAuto, nil
	default:
		return FidelityExact, fmt.Errorf("unknown fidelity %q (want exact, fast or auto)", s)
	}
}

// installedEnvelope overrides the embedded default calibration envelope
// when non-nil (the sweep -envelope flag).
var installedEnvelope atomic.Pointer[analytic.Envelope]

// EnableEnvelope installs the calibration envelope consulted by the auto
// fidelity tier. Passing nil reverts to the envelope embedded at build
// time. The envelope must already be validated (DecodeEnvelope does).
func EnableEnvelope(e *analytic.Envelope) { installedEnvelope.Store(e) }

// EnabledEnvelope returns the envelope the auto tier will consult: the
// installed one, or the embedded default. A nil return (embedded artifact
// unreadable) makes auto equivalent to exact — fail safe, never fast.
func EnabledEnvelope() *analytic.Envelope {
	if e := installedEnvelope.Load(); e != nil {
		return e
	}
	e, _ := analytic.DefaultEnvelope()
	return e
}

// envelopeTag returns env's Fingerprint, memoized for the envelope last
// asked about: every auto point's cache key carries it, and hashing the
// whole envelope per point dominated the cache-cold auto sweep. So an
// envelope must not change once the auto tier has consulted it.
func envelopeTag(env *analytic.Envelope) string {
	if m := lastEnvelopeTag.Load(); m != nil && m.env == env {
		return m.fp
	}
	m := &fingerprintedEnvelope{env: env, fp: env.Fingerprint()}
	lastEnvelopeTag.Store(m)
	return m.fp
}

type fingerprintedEnvelope struct {
	env *analytic.Envelope
	fp  string
}

var lastEnvelopeTag atomic.Pointer[fingerprintedEnvelope]

// SimulateAuto answers one grid point at the requested fidelity tier.
// Exact is Simulate. Fast is AnalyticResult (flagged Estimated, cached
// under a tier-tagged key). Auto serves the analytic answer only when the
// calibrated envelope proves the verdict: with the signed relative error
// e = (est − sim)/sim bounded in [lo, hi], the true access time lies in
// [est/(1+hi), est/(1+lo)]; if both interval endpoints classify
// identically, that verdict is the simulator's verdict, and the result
// carries it (together with the analytic time estimate). Any point the
// envelope cannot prove — straddling a feasibility boundary, off the
// calibrated grid, a different sampling fraction, a non-baseline
// controller configuration, or an observed run (latency recording,
// probes, faults) — falls back to the cycle-accurate path.
func SimulateAuto(w Workload, mc MemoryConfig, tier Fidelity) (Result, error) {
	est, envTag, ok, err := tierEstimate(w, mc, tier)
	switch {
	case err != nil:
		return Result{}, err
	case !ok:
		return Simulate(w, mc)
	}
	if c := EnabledCache(); c != nil {
		res, _, err := c.memoEstimateOutcome(context.Background(), w, mc, tier, envTag, est)
		return res, err
	}
	return est, nil
}

// SimulateTier is SimulateAuto through this specific cache (the
// simulation service owns its cache instance rather than the process-wide
// one) with cancellation, and reports the cache outcome for the
// X-Sim-Cache header.
func (c *SimCache) SimulateTier(ctx context.Context, w Workload, mc MemoryConfig, tier Fidelity) (Result, CacheOutcome, error) {
	est, envTag, ok, err := tierEstimate(w, mc, tier)
	if err != nil {
		return Result{}, OutcomeBypass, err
	}
	if !ok {
		return c.simulate(ctx, w, mc, nil)
	}
	return c.memoEstimateOutcome(ctx, w, mc, tier, envTag, est)
}

// tierEstimate is the one fidelity switch: it returns the analytic
// answer tier serves for (w, mc), with the envelope tag its cache key
// carries, or ok=false when the point must be simulated exactly. Each
// call counts one point in its tier's fidelity counter.
func tierEstimate(w Workload, mc MemoryConfig, tier Fidelity) (est Result, envTag string, ok bool, err error) {
	switch tier {
	case FidelityFast:
		est, err = AnalyticResult(w, mc)
		if err != nil {
			return Result{}, "", false, err
		}
		countFidelity("fast")
		return est, "", true, nil
	case FidelityAuto:
		env := EnabledEnvelope()
		if est, ok := autoEstimate(w, mc, env); ok {
			countFidelity("auto_analytic")
			return est, envelopeTag(env), true, nil
		}
		countFidelity("auto_exact")
		return Result{}, "", false, nil
	default:
		countFidelity("exact")
		return Result{}, "", false, nil
	}
}

// autoEstimate decides whether the envelope proves this point's verdict
// and, when it does, returns the analytic result carrying the proven
// verdict. The verdict is classified from the error-bounded access-time
// interval, not from the point estimate — near a boundary the interval
// verdict can differ from Classify(est), and it is the interval one that
// matches the simulator.
func autoEstimate(w Workload, mc MemoryConfig, env *analytic.Envelope) (Result, bool) {
	if env == nil {
		return Result{}, false
	}
	// The envelope's identity must be the paper baseline this build
	// calibrates (empty policy and device). An artifact stamped with any
	// other identity bounds a different simulator configuration, so its
	// error intervals prove nothing here — hard-fall back to exact.
	if env.Policy != "" || env.Device != "" {
		return Result{}, false
	}
	// Observed runs exist for their event streams and per-frame payloads;
	// they always simulate (same rule as the cache bypass).
	if w.RecordLatency || mc.NewProbe != nil || mc.Faults != nil {
		return Result{}, false
	}
	if !baselinePoint(w, mc) {
		return Result{}, false
	}
	mhz := float64(mc.Freq) / 1e6
	if mhz <= 0 || mhz != math.Trunc(mhz) {
		return Result{}, false
	}
	fraction := w.SampleFraction
	if fraction == 0 {
		fraction = 1
	}
	lo, hi, ok := env.Bound(w.Profile.Format.Name, mc.Channels, int(mhz), fraction)
	if !ok || 1+lo <= 0 {
		return Result{}, false
	}
	res, err := AnalyticResult(w, mc)
	if err != nil {
		// Let the exact path surface the configuration error.
		return Result{}, false
	}
	est := float64(res.AccessTime)
	if est <= 0 {
		return Result{}, false
	}
	// e ∈ [lo, hi] and sim = est/(1+e), decreasing in e.
	simLo := units.Duration(est / (1 + hi))
	simHi := units.Duration(est / (1 + lo))
	vLo := Classify(simLo, res.FramePeriod)
	vHi := Classify(simHi, res.FramePeriod)
	if vLo != vHi {
		return Result{}, false
	}
	res.Verdict = vLo
	return res, true
}

// baselinePoint reports whether (w, mc) is, after default normalization,
// the paper's baseline configuration the envelope was calibrated against.
// Ablation spellings (device/mux/policy/power-down/write-buffer/queue/
// refresh/precharge/interleave/geometry/timing overrides, non-default
// use-case params or load granularities) change access time in ways the
// envelope does not bound, so they are never served analytically. The power model
// (Datasheet/Interface) does not influence access time and is not
// constrained.
func baselinePoint(w Workload, mc MemoryConfig) bool {
	nw := normalizeWorkload(w)
	if nw.Params != usecase.DefaultParams() || nw.Load != (load.Config{}).WithDefaults() {
		return false
	}
	nmc := normalizeMemoryConfig(mc)
	base := normalizeMemoryConfig(PaperMemory(mc.Channels, mc.Freq))
	return nmc.Device == base.Device &&
		nmc.Mux == base.Mux &&
		nmc.Policy == base.Policy &&
		!nmc.DisablePowerDown &&
		nmc.WriteBufferDepth == base.WriteBufferDepth &&
		nmc.QueueDepth == base.QueueDepth &&
		nmc.RefreshPostpone == base.RefreshPostpone &&
		!nmc.PrechargeOnIdle &&
		nmc.Geometry == base.Geometry &&
		nmc.Timing == base.Timing &&
		nmc.InterleaveGranularity == base.InterleaveGranularity
}

// countFidelity counts one point served at a fidelity tier; auto splits
// into auto_analytic (envelope-proven estimate) and auto_exact (fallback).
func countFidelity(tier string) {
	if m := activeMeter.Load(); m != nil {
		switch tier {
		case "exact":
			m.fidelityExact.Inc()
		case "fast":
			m.fidelityFast.Inc()
		case "auto_analytic":
			m.fidelityAutoAnalytic.Inc()
		case "auto_exact":
			m.fidelityAutoExact.Inc()
		}
	}
}
