package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"
)

// TestMain lets the test binary stand in for the benchmark binary when
// the harness re-executes itself as a workload's child process.
func TestMain(m *testing.M) {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// smokeLimit bounds the smoke run's wall time (0 = unbounded).
var smokeLimit = 10 * time.Second

// Every workload runs at a tiny size, untraced and traced, and prints
// every metric BENCHMARK.json names, with its unit.
func TestSmokeEveryMetricPrinted(t *testing.T) {
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	t.Run("modes", func(t *testing.T) {
		for _, c := range []struct {
			trace   string
			metrics []metricSpec
		}{{"0", spec.EndToEnd}, {"1", spec.PerLayer}} {
			t.Run("trace"+c.trace, func(t *testing.T) {
				t.Parallel()
				smokeRun(t, c.trace, c.metrics)
			})
		}
	})
	if d := time.Since(start); smokeLimit > 0 && d > smokeLimit {
		t.Errorf("smoke run took %v, want under %v", d, smokeLimit)
	}
}

// smokeRun runs every workload at the tiny size in one mode and checks
// the output.
func smokeRun(t *testing.T, trace string, metrics []metricSpec) {
	var stdout, stderr bytes.Buffer
	args := []string{"-workload", "all", "-tiny", "-trace", trace, "-out", t.TempDir()}
	if code := run(args, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d\n%s\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, w := range workloads {
		for _, m := range metrics {
			if !printed(lines, w.name, m) {
				t.Errorf("%s does not print %s in %s", w.name, m.Name, m.Unit)
			}
		}
	}
	var last struct {
		Correct   *bool                      `json:"correct"`
		Attempted *int                       `json:"attempted"`
		Failed    *int                       `json:"failed"`
		Metrics   map[string]json.RawMessage `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil || last.Correct == nil ||
		!*last.Correct || last.Attempted == nil || *last.Attempted < 1 || last.Failed == nil || *last.Failed != 0 {
		t.Errorf("last line %q is not a correct result", lines[len(lines)-1])
	}
	if len(last.Metrics) != len(workloads)*len(metrics) {
		t.Errorf("last line has %d metrics, want %d", len(last.Metrics), len(workloads)*len(metrics))
	}
}

type metricSpec struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

func printed(lines []string, workload string, m metricSpec) bool {
	for _, l := range lines {
		f := strings.Fields(l)
		if len(f) >= 4 && f[0] == workload && f[1] == m.Name && f[3] == m.Unit {
			return true
		}
	}
	return false
}

func TestBenchmarkListsTheHarnessMetrics(t *testing.T) {
	var spec struct {
		EndToEnd []metricSpec `json:"end_to_end"`
		PerLayer []metricSpec `json:"per_layer"`
	}
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(a []metricSpec, b []metricDef) bool {
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i].Name != b[i].name || a[i].Unit != b[i].unit {
				return false
			}
		}
		return true
	}
	if !same(spec.EndToEnd, endToEnd) || !same(spec.PerLayer, perLayer) {
		t.Error("BENCHMARK.json and the harness list different metrics or units")
	}
}
