package main

import (
	"os"
	"path/filepath"
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
