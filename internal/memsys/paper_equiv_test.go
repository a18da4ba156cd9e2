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

// TestPaperTrafficEquivalence runs every point of the benchmark's policy
// grid — 720p30, 1080p30 and 2160p30 × 1, 2, 4, 8 channels × 200, 400 and
// 533 MHz × closed page, FR-FCFS and bank partitioning — on the load
// generator's traffic at fraction 0.002, and requires the coalesced
// dispatch to return a Result deeply equal to the per-burst reference
// (NoCoalesce). Paper traffic has what random streams rarely produce:
// back-to-back runs of opposite direction to one row with consecutive
// sequence numbers, which a reorder window must not batch together.
func TestPaperTrafficEquivalence(t *testing.T) {
	policies := []controller.PagePolicy{controller.ClosedPage, controller.FRFCFS, controller.BankPartition}
	for _, format := range []string{"720p30", "1080p30", "2160p30"} {
		w, err := core.WorkloadFor(format)
		if err != nil {
			t.Fatal(err)
		}
		uc, err := usecase.New(w.Profile, usecase.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, channels := range []int{1, 2, 4, 8} {
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
			for _, mhz := range []int{200, 400, 533} {
				for _, pol := range policies {
					cfg := memsys.PaperConfig(channels, units.Frequency(mhz)*units.MHz)
					cfg.Policy = pol
					got := runPoint(t, cfg, reqs)
					cfg.NoCoalesce = true
					want := runPoint(t, cfg, reqs)
					if !reflect.DeepEqual(got, want) {
						t.Errorf("%s %d ch %d MHz %v: coalesced result diverged from per-burst:\ngot:  %+v\nwant: %+v",
							format, channels, mhz, pol, got, want)
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
