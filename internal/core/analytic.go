package core

import (
	"repro/internal/analytic"
	"repro/internal/dram"
	"repro/internal/units"
)

// PowerNotComputed is the sentinel an analytic Result carries in
// InterfacePower: the closed forms produce only the total, and a literal
// zero would read as "the interface consumed nothing". Negative power is
// impossible, so the sentinel survives JSON (unlike NaN) and is trivially
// detectable downstream.
const PowerNotComputed units.Power = -1

// AnalyticResult estimates the Result of Simulate(w, mc) from the
// closed-form model in internal/analytic, without running the
// cycle-accurate simulator. It is the graceful-degradation path of the
// simulation service: when the admission queue is saturated, an estimate
// in microseconds beats a shed request — the caller is told the answer is
// an estimate and can retry for the exact one.
//
// Only the fields the closed forms can honestly produce are populated:
// access time, verdict, bandwidths, efficiency and total power. The rest
// carry explicit "not computed" sentinels — an estimate must never
// masquerade as simulator output: Estimated is true, InterfacePower is
// PowerNotComputed (−1), and the per-channel breakdown and latency
// histogram are nil (never empty-but-allocated).
//
// The power model is resolved here with the same explicit nil-checked
// defaulting the simulator uses, so a MemoryConfig with nil
// Datasheet/Interface (the common spelling — PaperMemory leaves both nil)
// estimates with the paper's power model instead of dereferencing nil; a
// present-but-invalid datasheet is rejected with the validation error
// from FramePower.
func AnalyticResult(w Workload, mc MemoryConfig) (Result, error) {
	if err := mc.Validate(); err != nil {
		return Result{}, err
	}
	if err := w.Validate(); err != nil {
		return Result{}, err
	}
	w = normalizeWorkload(w)
	mc = normalizeMemoryConfig(mc)

	speed, err := dram.Resolve(mc.Geometry, mc.Timing, mc.Freq)
	if err != nil {
		return Result{}, err
	}
	gen, err := generatorFor(w.Profile, w.Params, mc.Channels, speed.Geometry, w.Load)
	if err != nil {
		return Result{}, err
	}
	est, err := analytic.FrameTime(gen, speed)
	if err != nil {
		return Result{}, err
	}

	framePeriod := w.Profile.Format.FramePeriod()
	frameBytes := gen.FrameBytes()
	res := Result{
		Format:      w.Profile.Format,
		Level:       w.Profile.Level,
		Channels:    mc.Channels,
		Freq:        mc.Freq,
		FrameBytes:  frameBytes,
		FramePeriod: framePeriod,
		AccessTime:  est.Time,
		Verdict:     Classify(est.Time, framePeriod),
	}
	res.RequiredBandwidth = units.Bandwidth(float64(frameBytes) / framePeriod.Seconds())
	if est.Time > 0 {
		res.AchievedBandwidth = units.Bandwidth(float64(frameBytes) / est.Time.Seconds())
	}
	res.PeakBandwidth = units.Bandwidth(float64(mc.Channels)) * speed.PeakBandwidth()
	if res.PeakBandwidth > 0 {
		res.Efficiency = float64(res.AchievedBandwidth) / float64(res.PeakBandwidth)
	}
	ds, iface := mc.powerParams()
	res.TotalPower, err = analytic.FramePower(gen, speed, ds, iface, framePeriod)
	if err != nil {
		return Result{}, err
	}
	res.InterfacePower = PowerNotComputed
	res.PerChannel = nil
	res.Latency = nil
	res.Estimated = true
	return res, nil
}
