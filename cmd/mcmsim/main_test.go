package main

import (
	"os"
	"path/filepath"
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
}
