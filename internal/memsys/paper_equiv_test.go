package memsys_test

import (
	"fmt"
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

// TestChannelClassEquivalence checks what channel classes leave behind
// beyond the Result: with latency recording on, every channel's Stats and
// Latency after Run must equal the per-burst reference's (NoCoalesce, one
// controller stepped per channel), and so must the Result and per-channel
// state of a second Run on the same System without Reset, of a Run after
// Reset and of a Run that stops at a bad request. Members of a class are not stepped during a Run; they take
// their leader's state at its end (or when it stops at a bad request) and
// carry the class into the next Run.
func TestChannelClassEquivalence(t *testing.T) {
	for _, format := range []string{"720p30", "1080p30"} {
		w, err := core.WorkloadFor(format)
		if err != nil {
			t.Fatal(err)
		}
		uc, err := usecase.New(w.Profile, usecase.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, channels := range []int{2, 3, 4, 6, 8} {
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
				for _, pol := range controller.Policies() {
					cfg := memsys.PaperConfig(channels, 400*units.MHz)
					cfg.Policy = pol
					cfg.InterleaveGranularity = gran
					cfg.RecordLatency = true
					got := newSystem(t, cfg)
					cfg.NoCoalesce = true
					want := newSystem(t, cfg)
					name := func(step string) string {
						return fmt.Sprintf("%s %d ch %d B %v, %s", format, channels, gran, pol, step)
					}
					// A Run that stops at a bad request leaves its channels
					// part-way, and they must read back exactly too.
					bad := append(append([]memsys.Request(nil), reqs[:len(reqs)/2]...), memsys.Request{Bytes: -1})
					for _, step := range []string{"first run", "second run without Reset", "run after Reset", "run stopped by an error"} {
						run := reqs
						switch step {
						case "run after Reset":
							got.Reset()
							want.Reset()
						case "run stopped by an error":
							run = bad
						}
						g, gerr := got.Run(memsys.NewSliceSource(run))
						r, rerr := want.Run(memsys.NewSliceSource(run))
						if (gerr != nil) != (step == "run stopped by an error") || (rerr != nil) != (gerr != nil) {
							t.Fatalf("%s: errors %v and %v", name(step), gerr, rerr)
						}
						if !reflect.DeepEqual(g, r) {
							t.Errorf("%s: result diverged from per-burst:\ngot:  %+v\nwant: %+v", name(step), g, r)
						}
						for i, ch := range got.Channels() {
							ref := want.Channels()[i]
							if ch.Stats() != ref.Stats() {
								t.Errorf("%s: channel %d stats %+v, per-burst %+v", name(step), i, ch.Stats(), ref.Stats())
							}
							if !reflect.DeepEqual(ch.Latency(), ref.Latency()) {
								t.Errorf("%s: channel %d latency histogram diverged from per-burst", name(step), i)
							}
						}
					}
				}
			}
		}
	}
}

func newSystem(t *testing.T, cfg memsys.Config) *memsys.System {
	t.Helper()
	sys, err := memsys.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return sys
}
