package core

import (
	"fmt"
	"math"

	"repro/internal/dram"
	"repro/internal/usecase"
)

// Validate checks the memory configuration before any simulation work
// starts, replacing the scattered ad-hoc checks the constructors used to
// perform piecemeal. Every driver reaches it through the set-up all of
// them share (see frameRun), before the device datasheet is applied; CLIs
// print the returned message to stderr and exit non-zero.
func (mc MemoryConfig) Validate() error {
	if mc.Channels <= 0 {
		return fmt.Errorf("core: invalid channel count %d: want a positive number of channels (the paper evaluates 1, 2, 4, 8)", mc.Channels)
	}
	if mc.Freq <= 0 {
		return fmt.Errorf("core: zero or negative interface clock %v: want a positive frequency (the paper evaluates 200-533 MHz)", mc.Freq)
	}
	if mc.WriteBufferDepth < 0 {
		return fmt.Errorf("core: negative write buffer depth %d", mc.WriteBufferDepth)
	}
	if mc.QueueDepth < 0 {
		return fmt.Errorf("core: negative reorder queue depth %d", mc.QueueDepth)
	}
	if mc.RefreshPostpone < 0 {
		return fmt.Errorf("core: negative refresh postponement %d", mc.RefreshPostpone)
	}
	dev, err := dram.Device(mc.Device)
	if err != nil {
		return err
	}
	geom := mc.Geometry
	if geom == (dram.Geometry{}) {
		geom = dev.Geometry
	}
	if err := geom.Validate(); err != nil {
		return err
	}
	if g := mc.InterleaveGranularity; g != 0 {
		if g < 0 {
			return fmt.Errorf("core: negative interleave granularity %d", g)
		}
		if g%geom.BurstBytes() != 0 {
			return fmt.Errorf("core: interleave granularity %d is not a multiple of the %d-byte minimum burst", g, geom.BurstBytes())
		}
	}
	if mc.Faults != nil {
		if err := mc.Faults.Validate(mc.Channels); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks the workload description. Zero-value fields that mean
// "use the default" (Params, Load runs, SampleFraction) are accepted;
// everything else must be physically meaningful.
func (w Workload) Validate() error {
	f := w.Profile.Format
	if f.Width <= 0 || f.Height <= 0 {
		return fmt.Errorf("core: empty workload profile: use WorkloadFor(format) or set Workload.Profile")
	}
	if f.FPS <= 0 {
		return fmt.Errorf("core: workload frame rate %d fps: want a positive rate", f.FPS)
	}
	if math.IsNaN(w.SampleFraction) || w.SampleFraction < 0 || w.SampleFraction > 1 {
		return fmt.Errorf("core: sample fraction %v outside (0,1] (zero means the full frame)", w.SampleFraction)
	}
	if w.Params != (usecase.Params{}) {
		if err := w.Params.Validate(); err != nil {
			return err
		}
	}
	// Load runs: zero means "use the calibrated default"; set values must
	// be whole burst multiples.
	runs := []struct {
		name string
		v    int64
	}{
		{"image run", w.Load.ImageRun},
		{"reference run", w.Load.RefRun},
		{"coding run", w.Load.CodingRun},
		{"bitstream run", w.Load.BitstreamRun},
	}
	for _, r := range runs {
		if r.v == 0 {
			continue
		}
		if r.v < 16 || r.v%16 != 0 {
			return fmt.Errorf("core: load %s %d bytes: want a positive multiple of the 16-byte minimum burst", r.name, r.v)
		}
	}
	if w.Load.BaseAddress < 0 {
		return fmt.Errorf("core: negative load base address %d", w.Load.BaseAddress)
	}
	return nil
}
