package core

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/units"
)

func TestMemoryConfigValidate(t *testing.T) {
	good := PaperMemory(4, PaperFrequency)
	if err := good.Validate(); err != nil {
		t.Fatalf("paper config invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*MemoryConfig)
		wantErr string
	}{
		{"zero channels", func(m *MemoryConfig) { m.Channels = 0 }, "channel count"},
		{"negative channels", func(m *MemoryConfig) { m.Channels = -2 }, "channel count"},
		{"zero frequency", func(m *MemoryConfig) { m.Freq = 0 }, "clock"},
		{"negative write buffer", func(m *MemoryConfig) { m.WriteBufferDepth = -1 }, "write buffer"},
		{"negative queue", func(m *MemoryConfig) { m.QueueDepth = -4 }, "queue depth"},
		{"negative postpone", func(m *MemoryConfig) { m.RefreshPostpone = -1 }, "postpone"},
		{"granularity not burst multiple", func(m *MemoryConfig) { m.InterleaveGranularity = 24 }, "multiple"},
		{"negative granularity", func(m *MemoryConfig) { m.InterleaveGranularity = -16 }, "granularity"},
		{"bad fault plan", func(m *MemoryConfig) {
			m.Faults = &fault.Plan{DropChannel: 9, DropAtCycle: 1}
		}, "dropout channel"},
	}
	for _, tc := range cases {
		mc := PaperMemory(4, PaperFrequency)
		tc.mutate(&mc)
		err := mc.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestWorkloadValidate(t *testing.T) {
	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	if err := w.Validate(); err != nil {
		t.Fatalf("paper workload invalid: %v", err)
	}
	cases := []struct {
		name    string
		mutate  func(*Workload)
		wantErr string
	}{
		{"empty profile", func(w *Workload) { *w = Workload{} }, "profile"},
		{"negative fraction", func(w *Workload) { w.SampleFraction = -0.5 }, "fraction"},
		{"fraction above one", func(w *Workload) { w.SampleFraction = 1.5 }, "fraction"},
		{"bad stabilization", func(w *Workload) { w.Params.StabilizationBorder = 0.5 }, "stabilization"},
		{"unaligned run", func(w *Workload) { w.Load.ImageRun = 100 }, "multiple"},
		{"negative base address", func(w *Workload) { w.Load.BaseAddress = -1 }, "base address"},
	}
	for _, tc := range cases {
		w2, _ := WorkloadFor("720p30")
		tc.mutate(&w2)
		err := w2.Validate()
		if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
			t.Errorf("%s: error %v, want substring %q", tc.name, err, tc.wantErr)
		}
	}
	// CLI-visible entry points must reject before simulating.
	bad := PaperMemory(0, 400*units.MHz)
	if _, err := Simulate(w, bad); err == nil {
		t.Error("Simulate accepted invalid config")
	}
	if _, err := SimulateSustained(w, bad, 2); err == nil {
		t.Error("SimulateSustained accepted invalid config")
	}
	if _, err := SimulateDegraded(w, bad, 2); err == nil {
		t.Error("SimulateDegraded accepted invalid config")
	}
	if _, err := SimulateStages(w, bad); err == nil {
		t.Error("SimulateStages accepted invalid config")
	}
}
