package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagValidationExits: malformed flags exit 2 with the offending flag
// named on stderr, before the daemon listens.
func TestFlagValidationExits(t *testing.T) {
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"unknown fidelity", []string{"-fidelity", "bogus"}, "-fidelity"},
		{"debug-addr no port", []string{"-debug-addr", "nonsense"}, "-debug-addr"},
		{"addr no port", []string{"-addr", "nonsense"}, "-addr"},
		{"drain zero", []string{"-drain", "0s"}, "-drain"},
		{"negative workers", []string{"-workers", "-1"}, "-workers"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.UsageExit(t, tc.want, tc.args...) })
	}
}
