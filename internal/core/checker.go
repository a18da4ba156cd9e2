package core

import (
	"repro/internal/check"
	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/probe"
)

// AttachChecker wires a protocol invariant checker (see internal/check)
// into the configuration as an additional per-channel probe sink, chained
// after any sink already installed. The checker verifies every DRAM
// command the simulated controllers emit against the device's timing
// constraints; inspect the returned Set after the run (Err is non-nil on
// any violation). The -check flag of every CLI tool goes through here.
//
// The checked run takes the same coalesced dispatch as an unchecked one,
// with the bursts of each row-run jump delivered as synthesized events, so
// the checker verifies the schedule that computes the answers. Attaching
// a checker makes the run observed, which turns channel classes off and
// bypasses the result cache — results are bit-identical, simulation is
// slower.
func AttachChecker(mc *MemoryConfig) (*check.Set, error) {
	// The checker must see the same geometry and timing the run will use,
	// so the datasheet (Device) is applied before the fallbacks.
	eff := mc.applyDevice()
	geom := eff.Geometry
	if geom == (dram.Geometry{}) {
		geom = dram.DefaultGeometry()
	}
	timing := eff.Timing
	if timing == (dram.Timing{}) {
		timing = dram.DefaultTiming()
	}
	speed, err := dram.Resolve(geom, timing, mc.Freq)
	if err != nil {
		return nil, err
	}
	set := check.New(check.Options{
		Speed:           speed,
		Policy:          mc.Policy,
		RefreshPostpone: mc.RefreshPostpone,
	})
	prev := mc.NewProbe
	mc.NewProbe = func(ch int) probe.Sink {
		if prev == nil {
			return set.Channel(ch)
		}
		return probe.Multi(prev(ch), set.Channel(ch))
	}
	return set, nil
}

// Replay runs a recorded request stream through the memory system mc
// describes, with the named device's datasheet applied as in Simulate.
func Replay(reqs []memsys.Request, mc MemoryConfig) (memsys.Result, error) {
	sys, err := memsys.New(mc.applyDevice().memsysConfig())
	if err != nil {
		return memsys.Result{}, err
	}
	return sys.Run(memsys.NewSliceSource(reqs))
}
