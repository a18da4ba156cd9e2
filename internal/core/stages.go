package core

import (
	"repro/internal/units"
)

// StageResult attributes one pipeline stage's share of the frame.
type StageResult struct {
	Name string
	// Bytes is the stage's payload per frame.
	Bytes int64
	// Time is the stage's share of the frame access time.
	Time units.Duration
	// Energy is the stage's incremental energy (burst + activate; the
	// window-proportional background, refresh and interface shares are
	// reported separately on the whole-frame Result).
	Energy units.Energy
	// Efficiency is the stage's achieved fraction of peak bandwidth.
	Efficiency float64
}

// SimulateStages runs one frame stage by stage on a single memory system,
// attributing access time and incremental energy per pipeline stage — the
// per-row view of Table I, but measured on the simulated memory rather than
// counted from the traffic equations.
//
// The stages run back to back on the same controllers (bank and bus state
// carries over), so the per-stage times sum to the whole-frame access time.
func SimulateStages(w Workload, mc MemoryConfig) ([]StageResult, error) {
	r, err := newFrameRun(w, mc)
	if err != nil {
		return nil, err
	}
	sys, gen, fraction := r.sys, r.gen, r.fraction
	speed := sys.Speed()
	pm, err := r.powerModel()
	if err != nil {
		return nil, err
	}

	scale := r.scale
	var results []StageResult
	var prevCycles int64
	prevEnergy := units.Energy(0)
	cumEnergy := func() (units.Energy, error) {
		var sum units.Energy
		for _, ch := range sys.Channels() {
			st := ch.Stats()
			// Incremental components only: bursts and activates.
			b, err := pm.ChannelEnergy(st, st.BusyCycles, true)
			if err != nil {
				return 0, err
			}
			sum += b.ReadWrite + b.Activate
		}
		return sum, nil
	}

	for i := 0; i < gen.StageCount(); i++ {
		src, err := gen.StageFrame(i, fraction)
		if err != nil {
			return nil, err
		}
		run, err := sys.Run(src)
		if err != nil {
			return nil, err
		}
		cycles := run.Cycles
		delta := cycles - prevCycles
		if delta < 0 {
			delta = 0
		}
		prevCycles = cycles

		total, err := cumEnergy()
		if err != nil {
			return nil, err
		}
		stageEnergy := total - prevEnergy
		prevEnergy = total

		time := speed.CycleDuration(int64(float64(delta) * scale))
		bytes := int64(float64(run.BytesRead+run.BytesWritten) * scale)
		sr := StageResult{
			Name:   gen.StageName(i),
			Bytes:  bytes,
			Time:   time,
			Energy: units.Energy(float64(stageEnergy) * scale),
		}
		if time > 0 && sys.PeakBandwidth() > 0 {
			sr.Efficiency = float64(bytes) / time.Seconds() / float64(sys.PeakBandwidth())
		}
		results = append(results, sr)
	}
	r.release()
	return results, nil
}
