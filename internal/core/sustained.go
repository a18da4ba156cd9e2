package core

import (
	"repro/internal/units"
)

// SustainedResult extends Result for a paced multi-frame run: instead of
// asking "how fast can one frame's accesses complete?" (the saturated
// access-time experiments of the figures), it runs the recorder the way a
// device does — each frame's traffic spread across its frame slot, the
// memory powering down in every gap — and reports whether the memory keeps
// up and what the realistic average power is.
type SustainedResult struct {
	Result
	// Frames is the number of simulated frame slots.
	Frames int
	// Lateness is how far past the last frame slot the final memory
	// access completed; <= 0 means the memory kept up.
	Lateness units.Duration
	// PowerDownResidency is the mean fraction of the run each channel
	// spent in power-down (in-run gaps plus trailing slack).
	PowerDownResidency float64
	// PowerDownExits counts power-down wakeups across all channels —
	// each costs tXP of latency.
	PowerDownExits int64
}

// SimulateSustained runs frames consecutive paced frame slots of the
// workload. Traffic is spread over (1-ProcessingMargin) of each slot,
// modeling the processing share the paper reserves. It is a view of the
// degradation engine's slot loop with the ladder off: the workload never
// changes, posted writes drain at the end of every slot, and the QoS
// report (with a fault plan) counts each slot's deadline miss.
func SimulateSustained(w Workload, mc MemoryConfig, frames int) (SustainedResult, error) {
	r, err := newFrameRun(w, mc)
	if err != nil {
		return SustainedResult{}, err
	}
	d, last, err := r.runSlots(frames, false)
	if err != nil {
		return SustainedResult{}, err
	}
	res := SustainedResult{Frames: frames}
	window, err := r.report(&res.Result, last, frames, float64(r.gen.FrameBytes())*float64(frames))
	if err != nil {
		return SustainedResult{}, err
	}
	makespan := r.sys.Speed().CycleDuration(int64(float64(last.Cycles) * r.scale))
	runWindow := units.Duration(int64(frames)) * res.FramePeriod
	res.Lateness = makespan - runWindow
	// Per-frame access budget semantics: the sustained run is feasible
	// when it never falls behind its slots.
	switch {
	case res.Lateness <= 0:
		res.Verdict = Feasible
	case float64(res.Lateness) <= ProcessingMargin*float64(runWindow):
		res.Verdict = Marginal
	default:
		res.Verdict = Infeasible
	}

	var pdCycles int64
	for _, st := range last.PerChannel {
		scaled := scaleStats(st, r.scale)
		pdCycles += scaled.PowerDownCycles + window - min(scaled.BusyCycles, window)
	}
	if n := int64(len(last.PerChannel)) * window; n > 0 {
		res.PowerDownResidency = float64(pdCycles) / float64(n)
	}
	res.PowerDownExits = res.Totals.PowerDownExits
	if r.sys.Injector() != nil {
		res.QoS = d.QoS
	}
	r.release()
	return res, nil
}
