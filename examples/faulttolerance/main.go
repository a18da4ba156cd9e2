// Faulttolerance demonstrates the fault-injection and graceful-degradation
// subsystem: seeded hardware faults (channel dropout, thermal refresh
// derate, transient ECC read errors, controller stall jitter) are injected
// into a sustained 1080p30 recording, and the degradation engine keeps the
// recorder running — re-interleaving traffic over the surviving channels
// and stepping the workload down (frame rate, then stabilization, then
// resolution) until the real-time verdict recovers.
//
// Every scenario is deterministic: the same seed produces a byte-identical
// QoS report, whether the channels simulate serially or in parallel.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fault"
)

func main() {
	fraction := flag.Float64("fraction", 0.05, "fraction of each frame to simulate (QoS extrapolates)")
	frames := flag.Int("frames", 10, "frame slots per scenario")
	seed := flag.Uint64("seed", 1, "fault plan seed")
	flag.Parse()

	w, err := core.WorkloadFor("1080p30")
	if err != nil {
		log.Fatal(err)
	}
	w.SampleFraction = *fraction
	midFrame := core.MidFirstSlot(w, core.PaperFrequency)

	scenarios := []struct {
		name     string
		channels int
		plan     fault.Plan
	}{
		{
			// One of four channels dies mid-frame; three survivors still
			// carry 1080p30, so quality is untouched.
			name:     "dropout, 1 of 4 channels",
			channels: 4,
			plan:     fault.Plan{Seed: *seed, DropChannel: 1, DropAtCycle: midFrame},
		},
		{
			// One of two channels dies; the survivor cannot carry 1080p30,
			// so the ladder sheds frame rate, stabilization and resolution
			// until the recorder is real-time again.
			name:     "dropout, 1 of 2 channels (full ladder)",
			channels: 2,
			plan:     fault.Plan{Seed: *seed, DropChannel: 1, DropAtCycle: midFrame},
		},
		{
			// A thermal event doubles the refresh rate and the DRAM starts
			// flipping bits: ECC read-retries and refresh steal bandwidth,
			// but four channels absorb it.
			name:     "thermal derate + transient bit errors",
			channels: 4,
			plan:     fault.Plan{Seed: *seed, DerateAtCycle: midFrame, ReadErrorRate: 0.01},
		},
		{
			// Controller arbitration jitter: random stalls before requests
			// are attended.
			name:     "controller stall jitter",
			channels: 4,
			plan:     fault.Plan{Seed: *seed, StallRate: 0.01, StallMaxCycles: 64},
		},
	}

	for i, sc := range scenarios {
		mc := core.PaperMemory(sc.channels, core.PaperFrequency)
		plan := sc.plan
		mc.Faults = &plan
		res, err := core.SimulateDegraded(w, mc, *frames)
		if err != nil {
			log.Fatal(err)
		}
		if i > 0 {
			fmt.Println()
		}
		fmt.Printf("=== %s (%d channel(s) @ %v) ===\n", sc.name, sc.channels, core.PaperFrequency)
		fmt.Printf("verdict: %s, final level %d, final format %s, power %.0f mW\n",
			res.Verdict, res.FinalLevel, res.FinalFormat.Name, res.TotalPower.Milliwatts())
		fmt.Print(res.QoS.Report())
	}
}
