// Package clitest runs a command's real main in a child process, so tests
// see its exit status and its stdout/stderr split. The test binary
// re-executes itself: TestMain hands control to Main, and Run starts the
// child with an environment variable that makes Main call main.
package clitest

import (
	"os"
	"os/exec"
	"strings"
	"testing"
)

const env = "CLITEST_RUN_MAIN"

// Main runs main in a child that Run started and the tests otherwise; call
// it from TestMain.
func Main(m *testing.M, main func()) {
	if os.Getenv(env) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// Run runs the command with args and returns its streams and exit status.
func Run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), env+"=1")
	var out, errb strings.Builder
	cmd.Stdout, cmd.Stderr = &out, &errb
	err := cmd.Run()
	if ee, ok := err.(*exec.ExitError); ok {
		code = ee.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errb.String(), code
}

// UsageExit runs the command with args and requires the usage status 2
// before any output: want on stderr, nothing on stdout.
func UsageExit(t *testing.T, want string, args ...string) {
	t.Helper()
	stdout, stderr, code := Run(t, args...)
	if code != 2 {
		t.Fatalf("exit = %d, want 2 (stderr: %s)", code, stderr)
	}
	if !strings.Contains(stderr, want) {
		t.Errorf("stderr missing %q:\n%s", want, stderr)
	}
	if stdout != "" {
		t.Errorf("usage error wrote to stdout: %q", stdout)
	}
}
