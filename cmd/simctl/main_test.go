package main

import (
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/cli/clitest"
)

func TestMain(m *testing.M) { clitest.Main(m, main) }

// TestFlagValidationExits: malformed flags exit 2 with the offending flag
// named on stderr, and no request reaches the server.
func TestFlagValidationExits(t *testing.T) {
	var requests atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) { requests.Add(1) }))
	defer srv.Close()
	type tc struct {
		name string
		args []string
		want string
	}
	cases := []tc{
		{"soak fraction above 1", []string{"soak", "-fraction", "2"}, "-fraction"},
		{"soak zero clients", []string{"soak", "-clients", "0"}, "-clients"},
	}
	for _, sub := range []string{"simulate", "sweep", "warm"} {
		cases = append(cases,
			tc{sub + " unknown policy", []string{sub, "-policy", "bogus"}, "-policy"},
			tc{sub + " unknown device", []string{sub, "-device", "bogus"}, "-device"},
			tc{sub + " unknown fidelity", []string{sub, "-fidelity", "bogus"}, "-fidelity"},
			tc{sub + " fraction above 1", []string{sub, "-fraction", "2"}, "-fraction"},
		)
	}
	cases = append(cases, tc{"simulate fractional MHz", []string{"simulate", "-freq", "400.5"}, "-freq"})
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			clitest.UsageExit(t, c.want, append(c.args, "-server", srv.URL)...)
		})
	}
	if n := requests.Load(); n != 0 {
		t.Errorf("usage errors sent %d requests to the server", n)
	}
}
