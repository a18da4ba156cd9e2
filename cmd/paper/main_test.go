package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli"
	"repro/internal/core"
)

var fastOpt = core.RunOptions{SampleFraction: 0.02}

func TestTableIArtifact(t *testing.T) {
	tb, err := tableI(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	// Five level columns plus the row-name column.
	if len(tb.Headers) != 6 {
		t.Errorf("headers = %d, want 6", len(tb.Headers))
	}
	for _, want := range []string{"L3.1 720p30", "L5.2 2160p30", "Video encoder", "Data Mem. load [MB/s]", "1890"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table I missing %q", want)
		}
	}
}

func TestFig3Artifact(t *testing.T) {
	tb, err := fig3(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 20 {
		t.Errorf("Fig. 3 rows = %d, want 20", tb.Rows())
	}
	out := tb.String()
	if !strings.Contains(out, "MARGINAL") {
		t.Error("Fig. 3 missing the 333 MHz MARGINAL point")
	}
	if !strings.Contains(out, "infeasible") {
		t.Error("Fig. 3 missing infeasible points")
	}
}

func TestFig4And5Artifacts(t *testing.T) {
	f4, err := fig4(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if f4.Rows() != 24 {
		t.Errorf("Fig. 4 rows = %d, want 24", f4.Rows())
	}
	f5, err := fig5(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if f5.Rows() != 24 {
		t.Errorf("Fig. 5 rows = %d, want 24", f5.Rows())
	}
	out := f5.String()
	// Infeasible bars render as zero.
	if !strings.Contains(out, "infeasible") {
		t.Error("Fig. 5 missing zero bars")
	}
	if !strings.Contains(out, "MARGINAL") {
		t.Error("Fig. 5 missing MARGINAL notes")
	}
}

func TestXDRArtifact(t *testing.T) {
	tb, err := xdrTable(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	out := tb.String()
	for _, want := range []string{"Cell BE XDR", "25.6", "range"} {
		if !strings.Contains(out, want) {
			t.Errorf("XDR table missing %q", want)
		}
	}
}

func TestAblationsArtifact(t *testing.T) {
	tb, err := ablations(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 4 {
		t.Errorf("ablations rows = %d, want 4", tb.Rows())
	}
	out := tb.String()
	for _, want := range []string{"RBC vs BRC", "power-down", "open vs closed", "write buffer"} {
		if !strings.Contains(out, want) {
			t.Errorf("ablations missing %q", want)
		}
	}
}

func TestGeometryArtifact(t *testing.T) {
	tb, err := geometry(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 10 { // 9 points + spread row
		t.Errorf("geometry rows = %d, want 10", tb.Rows())
	}
	if !strings.Contains(tb.String(), "spread") {
		t.Error("geometry table missing spread row")
	}
}

func TestOperatingArtifact(t *testing.T) {
	tb, err := operating(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if tb.Rows() != 24 {
		t.Errorf("operating rows = %d, want 24", tb.Rows())
	}
	out := tb.String()
	if !strings.Contains(out, "none") {
		t.Error("operating table missing infeasible entries")
	}
	if !strings.Contains(out, "400 MHz") {
		t.Error("operating table missing the 720p30/1ch 400 MHz point")
	}
}

func TestCSVRendering(t *testing.T) {
	tb, err := fig3(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := tb.RenderCSV(&b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != 21 { // header + 20 points
		t.Errorf("CSV lines = %d, want 21", len(lines))
	}
	if !strings.HasPrefix(lines[0], "channels,clock") {
		t.Errorf("CSV header = %q", lines[0])
	}
}

// chromeGolden is the minimal shape every Chrome trace-event document
// must satisfy: a traceEvents array whose records carry ph/ts/pid/tid.
type chromeGolden struct {
	TraceEvents []struct {
		Name string `json:"name"`
		Ph   string `json:"ph"`
		Ts   *int64 `json:"ts"`
		Pid  *int   `json:"pid"`
		Tid  *int   `json:"tid"`
	} `json:"traceEvents"`
}

func TestObservabilityArtifacts(t *testing.T) {
	dir := t.TempDir()
	traceOut := filepath.Join(dir, "flagship.trace.json")
	metricsOut := filepath.Join(dir, "flagship.metrics.csv")
	observed := &cli.Observed{Window: 50_000, TraceOut: traceOut, MetricsOut: metricsOut}
	if err := flagship(observed, 0.002); err != nil {
		t.Fatal(err)
	}

	// Golden check: the trace validates against the Chrome trace-event
	// format — a traceEvents array of records with ph/ts/pid/tid.
	raw, err := os.ReadFile(traceOut)
	if err != nil {
		t.Fatal(err)
	}
	var doc chromeGolden
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("trace has no traceEvents")
	}
	phases := map[string]bool{}
	for i, ev := range doc.TraceEvents {
		if ev.Name == "" || ev.Ph == "" || ev.Ts == nil || ev.Pid == nil || ev.Tid == nil {
			t.Fatalf("traceEvents[%d] missing required fields: %+v", i, ev)
		}
		phases[ev.Ph] = true
	}
	for _, ph := range []string{"M", "X", "C"} {
		if !phases[ph] {
			t.Errorf("trace has no %q records", ph)
		}
	}

	// The metrics CSV and the manifest ride along.
	csv, err := os.ReadFile(metricsOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "channel,epoch,start_cycle") {
		t.Error("metrics file lacks the CSV header")
	}
	manRaw, err := os.ReadFile(metricsOut + ".manifest.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Tool      string  `json:"tool"`
		Channels  int     `json:"channels"`
		SimCycles int64   `json:"sim_cycles"`
		FreqMHz   float64 `json:"freq_mhz"`
	}
	if err := json.Unmarshal(manRaw, &man); err != nil {
		t.Fatalf("manifest is not valid JSON: %v", err)
	}
	if man.Tool != "paper" || man.Channels != 4 || man.FreqMHz != 400 || man.SimCycles <= 0 {
		t.Errorf("manifest contents wrong: %+v", man)
	}
}

// TestObservabilityDisabled: with no observed-run flag set the flagship
// run is skipped and prints nothing.
func TestObservabilityDisabled(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stdout")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	os.Stdout = f
	err = flagship(&cli.Observed{Window: 50_000}, 0.002)
	os.Stdout = old
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	if out, _ := os.ReadFile(path); len(out) != 0 {
		t.Errorf("disabled observability printed %q", out)
	}
}

func TestWriteArtifact(t *testing.T) {
	dir := t.TempDir()
	tb, err := tableI(fastOpt)
	if err != nil {
		t.Fatal(err)
	}
	if err := writeArtifact(dir, "table1", tb, false); err != nil {
		t.Fatal(err)
	}
	if err := writeArtifact(dir, "table1", tb, true); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"table1.txt", "table1.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact %s missing: %v", name, err)
		}
	}
}
