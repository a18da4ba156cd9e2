package core

import (
	"repro/internal/load"
	"repro/internal/memsys"
	"repro/internal/power"
	"repro/internal/stats"
	"repro/internal/units"
	"repro/internal/usecase"
)

// frameRun is the set-up every driver shares — Simulate, the paced slot
// loop behind SimulateSustained and SimulateDegraded, and SimulateStages:
// the validated workload and configuration with the device datasheet
// applied and the defaults filled, and the memory system and load
// generator built for them.
type frameRun struct {
	w  Workload
	mc MemoryConfig
	// fraction is the simulated share of each frame (zero means 1) and
	// scale its inverse, the extrapolation factor.
	fraction float64
	scale    float64
	sys      *memsys.System
	gen      *load.Generator
	// release returns sys to its pool; call it only after the driver's
	// runs all succeeded (see acquireSystem).
	release func()
}

// newFrameRun validates w and mc and builds the run they describe.
func newFrameRun(w Workload, mc MemoryConfig) (frameRun, error) {
	if err := mc.Validate(); err != nil {
		return frameRun{}, err
	}
	if err := w.Validate(); err != nil {
		return frameRun{}, err
	}
	mc = mc.applyDevice()
	if w.Params == (usecase.Params{}) {
		w.Params = usecase.DefaultParams()
	}
	r := frameRun{w: w, mc: mc, fraction: w.SampleFraction}
	if r.fraction == 0 {
		r.fraction = 1
	}
	r.scale = 1 / r.fraction
	msc := mc.memsysConfig()
	msc.RecordLatency = w.RecordLatency
	var err error
	if r.sys, r.release, err = acquireSystem(msc); err != nil {
		return frameRun{}, err
	}
	if r.gen, err = generatorFor(w.Profile, w.Params, mc.Channels, r.sys.Speed().Geometry, w.Load); err != nil {
		return frameRun{}, err
	}
	return r, nil
}

// powerParams resolves the power model's inputs: the configuration's
// datasheet and interface, or the calibrated paper defaults.
func (mc MemoryConfig) powerParams() (power.Datasheet, power.Interface) {
	ds := power.DefaultDatasheet()
	if mc.Datasheet != nil {
		ds = *mc.Datasheet
	}
	iface := power.DefaultInterface()
	if mc.Interface != nil {
		iface = *mc.Interface
	}
	return ds, iface
}

// powerModel builds the run's power model at the system's clock.
func (r *frameRun) powerModel() (*power.Model, error) {
	ds, iface := r.mc.powerParams()
	return power.NewModel(ds, iface, r.sys.Speed())
}

// report fills res from last, the final memsys result of a run covering
// frames frame slots that moved bytes of payload (extrapolated to whole
// frames): the header, the extrapolated makespan as the per-frame access
// time, the bandwidths, each channel's energy over the power window —
// the frame slots, or the makespan when that is longer — the scaled
// Totals and the merged latency histogram. It returns the window in
// cycles. The verdict and the QoS report are the driver's.
func (r *frameRun) report(res *Result, last memsys.Result, frames int, bytes float64) (int64, error) {
	speed := r.sys.Speed()
	cycles := int64(float64(last.Cycles) * r.scale)
	framePeriod := r.w.Profile.Format.FramePeriod()
	res.Format = r.w.Profile.Format
	res.Level = r.w.Profile.Level
	res.Channels = r.mc.Channels
	res.Freq = r.mc.Freq
	res.FrameBytes = r.gen.FrameBytes()
	res.FramePeriod = framePeriod
	res.AccessTime = speed.CycleDuration(cycles / int64(frames))
	res.SimulatedCycles = last.Cycles
	res.RequiredBandwidth = units.Bandwidth(float64(res.FrameBytes) / framePeriod.Seconds())
	if t := speed.CycleDuration(cycles); t > 0 {
		res.AchievedBandwidth = units.Bandwidth(bytes / t.Seconds())
	}
	res.PeakBandwidth = r.sys.PeakBandwidth()
	if res.PeakBandwidth > 0 {
		res.Efficiency = float64(res.AchievedBandwidth) / float64(res.PeakBandwidth)
	}

	window := int64(frames) * framePeriod.Cycles(speed.Freq)
	if cycles > window {
		window = cycles
	}
	pm, err := r.powerModel()
	if err != nil {
		return 0, err
	}
	for _, chStats := range last.PerChannel {
		scaled := scaleStats(chStats, r.scale)
		if scaled.BusyCycles > window {
			scaled.BusyCycles = window
		}
		b, err := pm.ChannelEnergy(scaled, window, !r.mc.DisablePowerDown)
		if err != nil {
			return 0, err
		}
		res.PerChannel = append(res.PerChannel, b)
		res.TotalPower += b.AveragePower()
		res.InterfacePower += b.InterfacePower()
		res.Totals.Add(scaled)
	}
	if r.w.RecordLatency {
		res.Latency = &stats.Histogram{}
		for _, ch := range r.sys.Channels() {
			res.Latency.Merge(ch.Latency())
		}
	}
	return window, nil
}
