package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/cli/clitest"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/units"
)

func TestDumpSummaryReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "frame.trace")

	// Redirect stdout to capture the dump.
	old := os.Stdout
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = f
	dumpErr := dumpTrace("720p30", 2, 0.001, false)
	os.Stdout = old
	f.Close()
	if dumpErr != nil {
		t.Fatal(dumpErr)
	}

	if err := summarize(path); err != nil {
		t.Fatal(err)
	}
	if err := replay(path, core.PaperMemory(2, 400*units.MHz), &cli.Observed{Window: 100000, Check: true}); err != nil {
		t.Fatal(err)
	}
	// Error paths.
	if err := summarize(filepath.Join(dir, "missing")); err == nil {
		t.Error("expected error for missing file")
	}
	if err := replay(path, core.PaperMemory(0, 400*units.MHz), &cli.Observed{Window: 100000}); err == nil {
		t.Error("expected error for zero channels")
	}
	if err := dumpTrace("nope", 2, 0.001, false); err == nil {
		t.Error("expected error for unknown format")
	}

	// Binary dump round-trips through the auto-detecting loader.
	binPath := filepath.Join(dir, "frame.bin")
	fb, err := os.Create(binPath)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = fb
	dumpErr = dumpTrace("720p30", 2, 0.001, true)
	os.Stdout = old
	fb.Close()
	if dumpErr != nil {
		t.Fatal(dumpErr)
	}
	binReqs, err := loadTrace(binPath)
	if err != nil {
		t.Fatal(err)
	}
	txtReqs, err := loadTrace(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(binReqs) != len(txtReqs) {
		t.Errorf("binary trace has %d requests, text %d", len(binReqs), len(txtReqs))
	}

	// A checked, observed replay on a reordering policy and a modern
	// datasheet writes a Chrome trace, a metrics file and a manifest next
	// to them, and passes the checker only if the checker resolved the
	// device's own timing rather than the paper's.
	traceOut := filepath.Join(dir, "replay.trace.json")
	metricsOut := filepath.Join(dir, "replay.metrics.csv")
	mc := core.PaperMemory(2, 400*units.MHz)
	mc.Policy, mc.Device = controller.FRFCFS, "lpddr4"
	observed := &cli.Observed{Window: 10000, TraceOut: traceOut, MetricsOut: metricsOut, Check: true}
	if err := replay(path, mc, observed); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("replay trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("replay trace has no traceEvents")
	}
	csv, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "channel,epoch") {
		t.Error("replay metrics file lacks the CSV header")
	}
	if _, err := os.Stat(metricsOut + ".manifest.json"); err != nil {
		t.Errorf("replay manifest missing: %v", err)
	}
}

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagValidationExits: malformed flags exit 2 with the offending flag
// named on stderr, before any trace is read or written.
func TestFlagValidationExits(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-run", "x.trace", "-policy", "bogus"}, "-policy"},
		{"unknown device", []string{"-run", "x.trace", "-device", "bogus"}, "-device"},
		{"fraction above 1", []string{"-dump", "-fraction", "5"}, "-fraction"},
		{"fraction zero", []string{"-dump", "-fraction", "0"}, "-fraction"},
		{"unknown format", []string{"-dump", "-format", "bogus"}, "-format"},
		{"probe-window zero", []string{"-run", "x.trace", "-probe-window", "0"}, "-probe-window"},
		{"no mode", nil, "Usage"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.UsageExit(t, tc.want, tc.args...) })
	}
}
