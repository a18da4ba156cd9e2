package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cli/clitest"
	"repro/internal/probe"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// runPaper runs the paper command in a child process.
var runPaper = clitest.Run

// TestPaperStdoutByteIdentical: one artifact rendered with the full
// observability surface on matches the plain rendering byte for byte.
func TestPaperStdoutByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("re-exec simulation in -short mode")
	}
	base := []string{"-only", "fig3", "-fraction", "0.02"}
	plain, plainErr, code := runPaper(t, base...)
	if code != 0 {
		t.Fatalf("plain run exited %d:\n%s", code, plainErr)
	}

	sum := filepath.Join(t.TempDir(), "summary.json")
	instr, instrErr, code := runPaper(t, append(base,
		"-progress", "-debug-addr", "127.0.0.1:0", "-summary-out", sum)...)
	if code != 0 {
		t.Fatalf("instrumented run exited %d:\n%s", code, instrErr)
	}

	if plain != instr {
		t.Errorf("stdout differs with observability enabled:\nplain:\n%s\ninstrumented:\n%s", plain, instr)
	}
	for _, want := range []string{"paper: debug: listening on", "paper: summary: wrote"} {
		if !strings.Contains(instrErr, want) {
			t.Errorf("instrumented stderr missing %q:\n%s", want, instrErr)
		}
	}

	s, err := probe.ReadSummary(sum)
	if err != nil {
		t.Fatal(err)
	}
	if s.Run.Tool != "paper" {
		t.Errorf("summary tool = %q, want paper", s.Run.Tool)
	}
	if e, ok := s.Metrics.Find("sim_points_completed_total"); !ok || e.Value <= 0 {
		t.Errorf("summary has no completed points: %+v ok=%v", e, ok)
	}
}

// TestFaultsArtifactGolden pins `paper -only faults` byte for byte
// (testdata/faults.golden, recorded before the degradation engine shared
// the drivers' set-up and report step).
func TestFaultsArtifactGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "faults.golden"))
	if err != nil {
		t.Fatal(err)
	}
	stdout, stderr, code := runPaper(t, "-only", "faults", "-fraction", "0.02")
	if code != 0 {
		t.Fatalf("exit = %d:\n%s", code, stderr)
	}
	if stdout != string(want) {
		t.Errorf("stdout differs from testdata/faults.golden:\ngot:\n%s\nwant:\n%s", stdout, want)
	}
}

// TestPaperFlagValidationExits: malformed flags exit 2 with the
// offending flag named on stderr, before any artifact renders.
func TestPaperFlagValidationExits(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no-such-dir", "summary.json")
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"debug-addr no port", []string{"-debug-addr", "localhost"}, "-debug-addr"},
		{"debug-addr bad port", []string{"-debug-addr", ":-1"}, "-debug-addr"},
		{"summary-out unwritable", []string{"-summary-out", missing}, "-summary-out"},
		{"unknown policy", []string{"-policy", "bogus"}, "-policy"},
		{"unknown device", []string{"-device", "bogus"}, "-device"},
		{"fraction above 1", []string{"-fraction", "2"}, "-fraction"},
		{"fraction zero", []string{"-fraction", "0"}, "-fraction"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.UsageExit(t, tc.want, tc.args...) })
	}
}
