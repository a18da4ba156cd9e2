package core

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/memsys"
	"repro/internal/probe"
	"repro/internal/units"
	"repro/internal/video"
)

// FrameQoS records how one frame slot of a degraded-mode run went. Cycle
// fields are in the run's (possibly sample-scaled) clock domain.
type FrameQoS struct {
	// Frame is the slot index; Level the degradation-ladder level the
	// frame was produced at (0 = full quality).
	Frame int
	Level int
	// Dropped marks a slot intentionally skipped by frame-rate
	// degradation; such slots carry no traffic and no verdict.
	Dropped bool
	// Start and Deadline bound the slot; Completed is the cycle the
	// frame's last memory access finished (0 when dropped).
	Start     int64
	Deadline  int64
	Completed int64
	// Late: finished inside the slot but consumed more than half the
	// processing margin (arrivals themselves extend to the end of the
	// pace window, so only the service tail beyond it counts). Missed:
	// finished after the slot — a deadline miss that escalates the
	// degradation ladder.
	Late   bool
	Missed bool
}

// DegradedResult is the outcome of a fault-injected degraded-mode run.
type DegradedResult struct {
	Result
	// PerFrame records every frame slot in order.
	PerFrame []FrameQoS
	// FinalLevel is the degradation-ladder level the run ended at.
	FinalLevel int
	// FinalFormat is the frame format after any resolution step-down.
	FinalFormat video.FrameFormat
	// BytesRead and BytesWritten total the payload actually moved (frames
	// the ladder dropped move nothing), unscaled by the sample fraction.
	BytesRead    int64
	BytesWritten int64
}

// The degradation ladder: after each deadline miss the engine steps the
// workload down one level and keeps recording rather than erroring out.
const (
	levelFull      = 0 // full quality
	levelHalfRate  = 1 // drop alternate frames (half effective frame rate)
	levelNoStab    = 2 // stabilization border off (1.0)
	levelStepDown  = 3 // resolution step-down (2160 -> 1080 -> 720, same fps)
	levelExhausted = 4 // nothing left to shed
)

// SimulateDegraded runs frames consecutive paced frame slots with the fault
// plan active, reacting to deadline misses by degrading the workload
// (frame rate, then stabilization, then resolution) instead of failing.
// The per-frame loop and every fault decision are deterministic: the same
// seed yields a byte-identical QoS report, serial or parallel.
func SimulateDegraded(w Workload, mc MemoryConfig, frames int) (DegradedResult, error) {
	r, err := newFrameRun(w, mc)
	if err != nil {
		return DegradedResult{}, err
	}
	res, last, err := r.runSlots(frames, true)
	if err != nil {
		return DegradedResult{}, err
	}
	if _, err := r.report(&res.Result, last, frames, float64(res.BytesRead+res.BytesWritten)*r.scale); err != nil {
		return DegradedResult{}, err
	}
	// Verdict: how the run ended. Recovered (or never missed) is feasible
	// in its degraded mode; still missing at the end is infeasible.
	switch q := res.QoS; {
	case q.Recovered() && q.LateFrames == 0:
		res.Verdict = Feasible
	case q.Recovered():
		res.Verdict = Marginal
	default:
		res.Verdict = Infeasible
	}
	r.release()
	return res, nil
}

// runSlots is the one paced driver: it runs frames consecutive frame
// slots, each frame's traffic spread over (1-ProcessingMargin) of its
// slot, one memsys Run per slot on the same system — so every Run's final
// flush drains posted writes at the end of its slot. It records each
// slot's QoS and returns the per-frame result (without its report) and
// the final slot's memsys result, whose makespan and channel counters are
// cumulative. With ladder on, a missed deadline steps the workload down
// the degradation ladder; with it off the workload never changes and
// misses are only recorded.
func (r *frameRun) runSlots(frames int, ladder bool) (DegradedResult, memsys.Result, error) {
	fail := func(err error) (DegradedResult, memsys.Result, error) {
		return DegradedResult{}, memsys.Result{}, err
	}
	if frames <= 0 {
		return fail(fmt.Errorf("core: %d frames", frames))
	}
	sys := r.sys
	speed := sys.Speed()
	fraction := r.fraction

	// The generator for the current ladder state; swapped on level changes.
	profile := r.w.Profile
	params := r.w.Params
	gen := r.gen

	periodCycles := profile.Format.FramePeriod().Cycles(speed.Freq)
	paceCycles := int64(float64(periodCycles) * (1 - ProcessingMargin))
	// Sampled runs scale the slot with the traffic, so the arrival
	// intensity, the idle-gap structure (and with it the power-down
	// residency) and the fault plan's cycle triggers, which the caller
	// states against the sampled timeline, are preserved.
	period := int64(float64(periodCycles) * fraction)
	pace := int64(float64(paceCycles) * fraction)
	if period < 1 || pace < 1 {
		return fail(fmt.Errorf("core: fraction %v collapses the frame slot", fraction))
	}

	qos := fault.NewQoS(frames)
	res := DegradedResult{FinalFormat: profile.Format}
	level := levelFull

	// announce emits a ladder event on every observed channel so degradation
	// and recovery show up on each trace track alongside the fault events.
	announce := func(kind probe.Kind, at int64, aux int64) {
		for _, ch := range sys.Channels() {
			if ch.Observed() {
				ch.Controller().EmitEvent(probe.Event{Kind: kind, Bank: -1, At: at, End: at, Aux: aux})
			}
		}
	}

	// escalate applies the next ladder step after frame f missed its slot.
	escalate := func(f int, at int64) error {
		for level < levelExhausted {
			level++
			switch level {
			case levelHalfRate:
				qos.Steps = append(qos.Steps, fault.Step{Frame: f, Action: "half frame rate (drop alternate frames)"})
			case levelNoStab:
				params.StabilizationBorder = 1.0
				qos.Steps = append(qos.Steps, fault.Step{Frame: f, Action: "stabilization off"})
			case levelStepDown:
				next, ok := stepDownProfile(profile)
				if !ok {
					continue // nothing smaller; ladder exhausted
				}
				qos.Steps = append(qos.Steps, fault.Step{Frame: f,
					Action: fmt.Sprintf("resolution %s -> %s", profile.Format.Name, next.Format.Name)})
				profile = next
			default:
				return nil // exhausted: keep recording at the floor
			}
			g, err := generatorFor(profile, params, r.mc.Channels, speed.Geometry, r.w.Load)
			if err != nil {
				return err
			}
			gen = g
			announce(probe.KindDegrade, at, int64(level))
			return nil
		}
		return nil
	}

	// Live fault/QoS accounting: per-frame counter deltas rather than
	// per-event hooks, so the injection hot path stays untouched and a
	// -debug-addr scrape still sees the run advance frame by frame.
	meter := activeMeter.Load()
	var prevInj fault.Counters

	var last memsys.Result
	for f := 0; f < frames; f++ {
		start := int64(f) * period
		deadline := start + period
		fr := FrameQoS{Frame: f, Level: level, Start: start, Deadline: deadline}

		if level >= levelHalfRate && f%2 == 1 {
			fr.Dropped = true
			qos.DroppedFrames++
			if meter != nil {
				meter.framesDropped.Inc()
			}
			res.PerFrame = append(res.PerFrame, fr)
			continue
		}

		src, err := gen.PacedFrame(fraction, start, pace)
		if err != nil {
			return fail(err)
		}
		run, err := sys.Run(src)
		if err != nil {
			return fail(err)
		}
		last = run
		// memsys channel stats are cumulative across Run calls; byte counts
		// are per-run, so accumulate them here.
		res.BytesRead += run.BytesRead
		res.BytesWritten += run.BytesWritten

		if meter != nil {
			meter.framesSimulated.Inc()
			if inj := sys.Injector(); inj != nil {
				cur := inj.Counters()
				meter.faultInjections.Add((cur.ReadErrors + cur.Stalls + cur.Derates) -
					(prevInj.ReadErrors + prevInj.Stalls + prevInj.Derates))
				meter.faultRetries.Add(cur.Retries - prevInj.Retries)
				prevInj = cur
			}
		}

		fr.Completed = run.Cycles
		switch {
		case run.Cycles > deadline:
			fr.Missed = true
			qos.DeadlineMisses++
			if meter != nil {
				meter.deadlineMisses.Inc()
			}
			if qos.FirstMissFrame < 0 {
				qos.FirstMissFrame = f
			}
			qos.RecoveredFrame = -1 // a new miss re-opens recovery
			if ladder {
				levelBefore := level
				if err := escalate(f, run.Cycles); err != nil {
					return fail(err)
				}
				if meter != nil && level != levelBefore {
					meter.degradeSteps.Inc()
				}
			}
		case run.Cycles > deadline-(period-pace)/2:
			fr.Late = true
			qos.LateFrames++
			if meter != nil {
				meter.framesLate.Inc()
			}
		}
		if !fr.Missed && qos.FirstMissFrame >= 0 && qos.RecoveredFrame < 0 {
			qos.RecoveredFrame = f
			announce(probe.KindRecover, run.Cycles, int64(f))
		}
		res.PerFrame = append(res.PerFrame, fr)
	}

	// Frame 0 always runs, so last holds the final executed slot.
	if inj := sys.Injector(); inj != nil {
		qos.Counters = inj.Counters()
	}
	qos.FailedChannel = last.FailedChannel
	qos.DropClock = last.DropClock
	res.QoS = &qos
	res.FinalLevel = level
	res.FinalFormat = profile.Format
	return res, last, nil
}

// MidFirstSlot returns the cycle halfway through the workload's first
// frame slot at the given clock, on the sampled timeline the paced slot
// loop runs (a zero SampleFraction is the full frame): the default cycle
// of a fault plan's channel dropout. It is always positive, so a plan
// carrying it always drops the channel.
func MidFirstSlot(w Workload, freq units.Frequency) int64 {
	fraction := w.SampleFraction
	if fraction == 0 {
		fraction = 1
	}
	period := w.Profile.Format.FramePeriod().Cycles(freq)
	return int64(float64(period)*fraction) / 2
}

// stepDownProfile returns the next smaller evaluated profile at the same
// frame rate (2160 -> 1080 -> 720), or ok=false at the floor.
func stepDownProfile(p video.Profile) (video.Profile, bool) {
	var nextHeight int
	switch {
	case p.Format.Height >= 2160:
		nextHeight = 1080
	case p.Format.Height >= 1080:
		nextHeight = 720
	default:
		return video.Profile{}, false
	}
	name := fmt.Sprintf("%dp%d", nextHeight, p.Format.FPS)
	next, err := video.ProfileFor(name)
	if err != nil {
		return video.Profile{}, false
	}
	return next, true
}
