package core

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/units"
)

// coreDrivers runs every frame-run driver on one point; frame-slot drivers
// run two slots.
var coreDrivers = []struct {
	name string
	run  func(Workload, MemoryConfig) (any, error)
}{
	{"Simulate", func(w Workload, mc MemoryConfig) (any, error) { return Simulate(w, mc) }},
	{"SimulateSustained", func(w Workload, mc MemoryConfig) (any, error) { return SimulateSustained(w, mc, 2) }},
	{"SimulateDegraded", func(w Workload, mc MemoryConfig) (any, error) { return SimulateDegraded(w, mc, 2) }},
	{"SimulateStages", func(w Workload, mc MemoryConfig) (any, error) { return SimulateStages(w, mc) }},
}

// TestDriversApplyDevice: every driver simulates the selected device. On
// lpddr4 at 800 MHz — outside the paper device's clock range — each runs,
// with the protocol checker silent, and at a clock both devices accept
// each answers differently from the paper device.
func TestDriversApplyDevice(t *testing.T) {
	w, err := WorkloadFor("1080p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mem := func(device string, mhz float64) MemoryConfig {
		mc := PaperMemory(2, units.Frequency(mhz)*units.MHz)
		mc.Device = device
		return mc
	}
	for _, d := range coreDrivers {
		t.Run(d.name, func(t *testing.T) {
			mc := mem("lpddr4", 800)
			if d.name == "SimulateDegraded" {
				mc.Faults = &fault.Plan{Seed: 1, DropChannel: 1, DropAtCycle: MidFirstSlot(w, mc.Freq)}
			}
			set, err := AttachChecker(&mc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := d.run(w, mc); err != nil {
				t.Fatalf("lpddr4 @ 800 MHz: %v", err)
			}
			if err := set.Err(); err != nil {
				t.Errorf("checked lpddr4 @ 800 MHz run: %v", err)
			}

			paper, err := d.run(w, mem("paper", 400))
			if err != nil {
				t.Fatal(err)
			}
			lpddr4, err := d.run(w, mem("lpddr4", 400))
			if err != nil {
				t.Fatal(err)
			}
			if reflect.DeepEqual(paper, lpddr4) {
				t.Errorf("lpddr4 @ 400 MHz answered exactly as the paper device: %+v", lpddr4)
			}
		})
	}
}

// TestDriversValidate: every driver rejects a configuration or workload
// only the shared validation catches, with that validation's message.
func TestDriversValidate(t *testing.T) {
	good, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	good.SampleFraction = 0.02
	unaligned := good
	unaligned.Load.ImageRun = 100
	badGranularity := PaperMemory(2, PaperFrequency)
	badGranularity.InterleaveGranularity = 24
	unknownDevice := PaperMemory(2, PaperFrequency)
	unknownDevice.Device = "bogus"
	cases := []struct {
		name    string
		w       Workload
		mc      MemoryConfig
		wantErr string
	}{
		{"unaligned load run", unaligned, PaperMemory(2, PaperFrequency), "multiple of the 16-byte"},
		{"unaligned interleave", good, badGranularity, "interleave granularity"},
		{"unknown device", good, unknownDevice, "bogus"},
	}
	for _, d := range coreDrivers {
		for _, tc := range cases {
			_, err := d.run(tc.w, tc.mc)
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s, %s: error %v, want substring %q", d.name, tc.name, err, tc.wantErr)
			}
		}
	}
}
