package main

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/probe"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// runSweep runs the sweep command in a child process, so the tests below
// exercise the real main(): flag parsing, validation exits and the
// stdout/stderr split.
var runSweep = clitest.Run

// TestStdoutByteIdentical pins the observability contract: a run with
// -progress, -debug-addr and -summary-out produces byte-identical stdout
// to a plain run, with every added surface on stderr or in files.
func TestStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec simulation in -short mode")
	}
	grid := []string{"-formats", "720p30", "-channels", "1,2", "-freqs", "200,266", "-fraction", "0.02"}
	plain, plainErr, code := runSweep(t, grid...)
	if code != 0 {
		t.Fatalf("plain run exited %d:\n%s", code, plainErr)
	}

	sum := filepath.Join(t.TempDir(), "summary.json")
	instr, instrErr, code := runSweep(t, append(grid,
		"-progress", "-debug-addr", "127.0.0.1:0", "-summary-out", sum)...)
	if code != 0 {
		t.Fatalf("instrumented run exited %d:\n%s", code, instrErr)
	}

	if plain != instr {
		t.Errorf("stdout differs with observability enabled:\nplain:\n%s\ninstrumented:\n%s", plain, instr)
	}
	for _, want := range []string{"sweep: debug: listening on", "sweep: summary: wrote", "done in"} {
		if !strings.Contains(instrErr, want) {
			t.Errorf("instrumented stderr missing %q:\n%s", want, instrErr)
		}
	}

	s, err := probe.ReadSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.Tool != "sweep" {
		t.Errorf("summary tool = %q, want sweep", s.Run.Tool)
	}
	e, ok := s.Metrics.Find("runindexed_points_completed_total")
	if !ok || int64(e.Value) != 4 {
		t.Errorf("summary completed points = %+v ok=%v, want 4", e, ok)
	}
}

// TestFlagValidationExits pins the usage-error contract: malformed flags
// exit 2 (the flag package's usage status) with the offending flag named
// on stderr, before any simulation starts.
func TestFlagValidationExits(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "summary.json")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"debug-addr no port", []string{"-debug-addr", "nonsense"}, "-debug-addr"},
		{"debug-addr bad port", []string{"-debug-addr", ":70000"}, "-debug-addr"},
		{"summary-out unwritable", []string{"-summary-out", missing}, "-summary-out"},
		{"progress vs serial", []string{"-progress", "-serial"}, "-progress conflicts with -serial"},
		{"negative jobs", []string{"-jobs", "-1"}, "-jobs"},
		{"unknown policy", []string{"-policy", "bogus"}, "-policy"},
		{"unknown device", []string{"-device", "bogus"}, "-device"},
		{"unknown fidelity", []string{"-fidelity", "bogus"}, "-fidelity"},
		{"fraction above 1", []string{"-fraction", "2"}, "-fraction"},
		{"fraction zero", []string{"-fraction", "0"}, "-fraction"},
		{"unknown format", []string{"-formats", "720p30,bogus"}, "-formats"},
		{"bad channel list", []string{"-channels", "1,x"}, "-channels"},
		{"no-cache vs cache-dir", []string{"-cache-dir", t.TempDir(), "-no-cache"}, "-no-cache conflicts with -cache-dir"},
		{"cache-dir vs no-cache", []string{"-no-cache", "-cache-dir", t.TempDir()}, "-no-cache conflicts with -cache-dir"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.UsageExit(t, tc.want, tc.args...) })
	}
}
