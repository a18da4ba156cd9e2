package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestStdoutGolden pins a default small-fraction run byte for byte.
func TestStdoutGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "default.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := clitest.Run(t, "-fraction", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from testdata/default.golden:\ngot:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestFlagValidationExits: malformed flags exit 2 with the offending flag
// named on stderr, before any simulation starts.
func TestFlagValidationExits(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "out")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown policy", []string{"-policy", "bogus"}, "-policy"},
		{"unknown page", []string{"-page", "bogus"}, "-page"},
		{"unknown device", []string{"-device", "bogus"}, "-device"},
		{"unknown fidelity", []string{"-fidelity", "bogus"}, "-fidelity"},
		{"fraction above 1", []string{"-fraction", "2"}, "-fraction"},
		{"fraction negative", []string{"-fraction", "-0.5"}, "-fraction"},
		{"debug-addr no port", []string{"-debug-addr", "nonsense"}, "-debug-addr"},
		{"summary-out unwritable", []string{"-summary-out", missing}, "-summary-out"},
		{"trace-out unwritable", []string{"-trace-out", missing}, "-trace-out"},
		{"qos-out unwritable", []string{"-qos-out", missing}, "-qos-out"},
		{"probe-window zero", []string{"-probe-window", "0"}, "-probe-window"},
		{"no-cache vs cache-dir", []string{"-cache-dir", t.TempDir(), "-no-cache"}, "-no-cache conflicts with -cache-dir"},
		{"check vs fast", []string{"-fidelity", "fast", "-check"}, "-check conflicts with -fidelity fast"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.UsageExit(t, tc.want, tc.args...) })
	}
	// A device's own clock range and timing hold on every driver, not
	// only the plain access-time run: 800 MHz is outside the paper
	// device's range, and the protocol checker uses lpddr4 timing.
	lpddr4 := []string{"-format", "1080p30", "-channels", "2", "-fraction", "0.02", "-device", "lpddr4", "-freq", "800", "-check"}
	for _, tc := range []struct {
		name string
		args []string
	}{
		{"lpddr4 800 MHz stages", []string{"-stages"}},
		{"lpddr4 800 MHz fault run", []string{"-fault-drop-channel", "1", "-fault-frames", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, stderr, code := clitest.Run(t, append(lpddr4, tc.args...)...); code != 0 {
				t.Fatalf("exit = %d, want 0:\n%s", code, stderr)
			}
		})
	}
}

// TestFullFrameDropout: with -fraction 0 (the full frame) and no
// -fault-drop-cycle, the dropout still fires mid first frame slot, so the
// run prints the degraded-mode timeline rather than the fault-free report.
func TestFullFrameDropout(t *testing.T) {
	stdout, stderr, code := clitest.Run(t, "-format", "720p30", "-channels", "2", "-fraction", "0",
		"-fault-drop-channel", "1", "-fault-frames", "1")
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, stderr)
	}
	for _, want := range []string{"DropAtCycle:6666667", "frames:\n  frame  0", "channel failure:   channel 1 at dispatch cycle"} {
		if !strings.Contains(stdout, want) {
			t.Errorf("stdout lacks %q:\n%s", want, stdout)
		}
	}
}

// TestDriverStdoutGoldens pins the degraded-mode and stage-attribution
// reports byte for byte: the fault run is ci.sh's determinism scenario,
// the stage run the paper device's flagship point. Both goldens were
// recorded before the drivers shared one set-up and report step.
func TestDriverStdoutGoldens(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   []string
	}{
		{"faults.golden", []string{"-format", "1080p30", "-channels", "2", "-fraction", "0.02",
			"-fault-seed", "1", "-fault-drop-channel", "1", "-fault-read-error-rate", "0.005",
			"-fault-stall-rate", "0.002", "-fault-frames", "10"}},
		{"stages.golden", []string{"-format", "1080p30", "-channels", "4", "-fraction", "0.02", "-stages"}},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			stdout, stderr, code := clitest.Run(t, tc.args...)
			if code != 0 {
				t.Fatalf("exit = %d:\n%s", code, stderr)
			}
			if stdout != string(want) {
				t.Errorf("stdout differs from testdata/%s:\ngot:\n%s\nwant:\n%s", tc.golden, stdout, want)
			}
		})
	}
}

// TestObservedRunGoldens pins what a probed run writes, for every policy:
// stdout (with its -check line), the -metrics-out timeseries CSV and a
// SHA-256 of the -trace-out document without its wall-clock phase spans,
// the one part of it that is not a function of the simulated schedule.
func TestObservedRunGoldens(t *testing.T) {
	for _, policy := range []string{"open-page", "closed-page", "frfcfs", "bank-partition"} {
		t.Run(policy, func(t *testing.T) {
			dir := t.TempDir()
			metrics, trace := filepath.Join(dir, "metrics.csv"), filepath.Join(dir, "trace.json")
			stdout, stderr, code := clitest.Run(t, "-format", "720p30", "-channels", "2", "-fraction", "0.01",
				"-policy", policy, "-probe-window", "5000", "-metrics-out", metrics, "-trace-out", trace, "-check")
			if code != 0 {
				t.Fatalf("exit = %d:\n%s", code, stderr)
			}
			var got strings.Builder
			for _, line := range strings.SplitAfter(stdout, "\n") {
				if !strings.HasPrefix(line, "observability: wrote ") { // names the temporary files
					got.WriteString(line)
				}
			}
			fmt.Fprintf(&got, "trace sha256: %s\n", scheduleDigest(t, trace))
			csv, err := os.ReadFile(metrics)
			if err != nil {
				t.Fatal(err)
			}
			got.Write(csv)
			golden := "observed-" + policy + ".golden"
			want, err := os.ReadFile(filepath.Join("testdata", golden))
			if err != nil {
				t.Fatal(err)
			}
			if got.String() != string(want) {
				t.Errorf("observed run differs from testdata/%s:\ngot:\n%s\nwant:\n%s", golden, got.String(), want)
			}
		})
	}
}

// scheduleDigest hashes a Chrome trace document with the events on its
// wall-clock phase-span process left out.
func scheduleDigest(t *testing.T, path string) string {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	var other struct {
		PhasePID *int `json:"phase_span_pid"`
	}
	var events []json.RawMessage
	if err := json.Unmarshal(doc["otherData"], &other); err != nil || other.PhasePID == nil {
		t.Fatalf("otherData lacks phase_span_pid: %s (%v)", doc["otherData"], err)
	}
	if err := json.Unmarshal(doc["traceEvents"], &events); err != nil {
		t.Fatal(err)
	}
	keys := make([]string, 0, len(doc))
	for k := range doc {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		if k != "traceEvents" {
			fmt.Fprintf(h, "%s=%s\n", k, doc[k])
		}
	}
	for _, ev := range events {
		var e struct {
			PID int `json:"pid"`
		}
		if err := json.Unmarshal(ev, &e); err != nil {
			t.Fatal(err)
		}
		if e.PID != *other.PhasePID {
			h.Write(ev)
			h.Write([]byte{'\n'})
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
