package memsys_test

import (
	"reflect"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/load"
	"repro/internal/memsys"
	"repro/internal/units"
	"repro/internal/usecase"
)

// TestPaperTrafficEquivalence runs the benchmark's policy grid on the load
// generator's traffic at fraction 0.002 — 720p30, 1080p30 and 2160p30 ×
// 200, 400 and 533 MHz × every scheduling policy — over 1, 2, 3, 4, 6 and
// 8 channels at the default 16-byte and a 64-byte interleave, and requires
// the coalesced dispatch to return a Result deeply equal to the per-burst
// reference (NoCoalesce). Paper traffic has what random streams rarely
// produce: back-to-back runs of opposite direction to one row with
// consecutive sequence numbers, which a reorder window must not batch
// together. The 3- and 6-channel points put the interleave stripe off a
// power of two, and their buffers and tiles start mid-stripe, so the
// transaction split hands neighbouring channels runs at different local
// addresses that must not share one row walk.
func TestPaperTrafficEquivalence(t *testing.T) {
	for _, format := range []string{"720p30", "1080p30", "2160p30"} {
		w, err := core.WorkloadFor(format)
		if err != nil {
			t.Fatal(err)
		}
		uc, err := usecase.New(w.Profile, usecase.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, channels := range []int{1, 2, 3, 4, 6, 8} {
			gen, err := load.New(uc, channels, dram.DefaultGeometry(), w.Load)
			if err != nil {
				t.Fatal(err)
			}
			src, err := gen.Frame(0.002)
			if err != nil {
				t.Fatal(err)
			}
			var reqs []memsys.Request
			for r, ok := src.Next(); ok; r, ok = src.Next() {
				reqs = append(reqs, r)
			}
			for _, gran := range []int64{0, 64} {
				for _, mhz := range []int{200, 400, 533} {
					for _, pol := range controller.Policies() {
						cfg := memsys.PaperConfig(channels, units.Frequency(mhz)*units.MHz)
						cfg.Policy = pol
						cfg.InterleaveGranularity = gran
						got := runPoint(t, cfg, reqs)
						cfg.NoCoalesce = true
						want := runPoint(t, cfg, reqs)
						if !reflect.DeepEqual(got, want) {
							t.Errorf("%s %d ch %d B %d MHz %v: coalesced result diverged from per-burst:\ngot:  %+v\nwant: %+v",
								format, channels, gran, mhz, pol, got, want)
						}
					}
				}
			}
		}
	}
}

func runPoint(t *testing.T, cfg memsys.Config, reqs []memsys.Request) memsys.Result {
	t.Helper()
	sys, err := memsys.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(memsys.NewSliceSource(reqs))
	if err != nil {
		t.Fatal(err)
	}
	return res
}
