package load

import (
	"fmt"

	"repro/internal/memsys"
)

// PacedFrame returns a transaction source for a single frame whose arrivals
// are spread evenly across the paceCycles starting at startCycle. Unlike
// Frame, requests carry arrival times, so the memory idles — and powers
// down — between paced transactions whenever it is faster than the load.
// It is the one-slot building block of every paced run: the core engine
// runs one such frame per frame slot, adapting the workload between slots
// when it degrades (see core.SimulateSustained and core.SimulateDegraded).
// Cycle values are in the caller's clock domain, so a sampling caller
// passes an already fraction-scaled slot: scaling each frame's traffic and
// its slot by the fraction preserves the arrival intensity and idle-gap
// structure, so a sampled run extrapolates to the full run by 1/fraction.
func (g *Generator) PacedFrame(fraction float64, startCycle, paceCycles int64) (memsys.Source, error) {
	if startCycle < 0 {
		return nil, fmt.Errorf("load: negative slot start %d", startCycle)
	}
	if paceCycles <= 0 {
		return nil, fmt.Errorf("load: pace window %d cycles", paceCycles)
	}
	src, err := g.Frame(fraction) // validates fraction
	if err != nil {
		return nil, err
	}
	var frameBytes int64
	for _, st := range g.stages {
		for _, s := range st.streams {
			frameBytes += int64(float64(s.bytes) * fraction)
		}
	}
	if frameBytes <= 0 {
		return nil, fmt.Errorf("load: empty frame at fraction %v", fraction)
	}
	return &slotSource{src: src, start: startCycle, pace: paceCycles, frameBytes: frameBytes}, nil
}

// slotSource stamps paced arrivals for one frame slot.
type slotSource struct {
	src        memsys.Source
	start      int64
	pace       int64
	frameBytes int64
	sent       int64
}

// Next implements memsys.Source.
func (s *slotSource) Next() (memsys.Request, bool) {
	req, ok := s.src.Next()
	if !ok {
		return memsys.Request{}, false
	}
	req.Arrival = s.start + s.sent*s.pace/s.frameBytes
	s.sent += req.Bytes
	return req, true
}
