package main

import (
	"testing"

	"repro/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagValidationExits: malformed flags exit 2 with the offending flag
// named on stderr, before the router listens.
func TestFlagValidationExits(t *testing.T) {
	shard := []string{"-shard", "s1=http://127.0.0.1:1"}
	for _, tc := range []struct {
		name string
		args []string
		want string
	}{
		{"debug-addr no port", append([]string{"-debug-addr", "nonsense"}, shard...), "-debug-addr"},
		{"addr no port", append([]string{"-addr", "nonsense"}, shard...), "-addr"},
		{"drain zero", append([]string{"-drain", "0s"}, shard...), "-drain"},
		{"no shard", nil, "-shard"},
	} {
		t.Run(tc.name, func(t *testing.T) { clitest.UsageExit(t, tc.want, tc.args...) })
	}
}
