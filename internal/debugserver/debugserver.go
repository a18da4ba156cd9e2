// Package debugserver is the shared -debug-addr HTTP surface of the CLI
// binaries: a small mux serving the run's metrics registry as Prometheus
// text (/metrics) and JSON (/metrics.json), the standard expvar dump
// (/debug/vars), and net/http/pprof (/debug/pprof/). The server binds
// eagerly — so ":0" callers can learn the chosen port and bad addresses
// fail at flag-validation time — and serves in the background until the
// process exits or Shutdown drains it (the long-running daemons shut it
// down gracefully on SIGINT/SIGTERM so in-flight scrapes finish).
package debugserver

import (
	"context"
	"expvar"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"strconv"

	"repro/internal/metrics"
)

// Server is a running debug HTTP server.
type Server struct {
	ln  net.Listener
	srv *http.Server
}

// ValidateAddr reports whether addr parses as a host:port bind address
// with a numeric port, without binding it. Used for exit-2 flag
// validation before any simulation work starts.
func ValidateAddr(addr string) error {
	if addr == "" {
		return fmt.Errorf("empty address")
	}
	_, port, err := net.SplitHostPort(addr)
	if err != nil {
		return err
	}
	n, err := strconv.Atoi(port)
	if err != nil {
		return fmt.Errorf("port %q is not numeric", port)
	}
	if n < 0 || n > 65535 {
		return fmt.Errorf("port %d out of range", n)
	}
	return nil
}

// Start binds addr and serves the debug mux in the background. The
// registry may be nil (the metrics endpoints then serve an empty set).
func Start(addr string, reg *metrics.Registry) (*Server, error) {
	if err := ValidateAddr(addr); err != nil {
		return nil, fmt.Errorf("debugserver: %w", err)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("debugserver: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg.Snapshot().WritePrometheus(w)
	})
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		reg.Snapshot().WriteJSON(w)
	})
	mux.Handle("/debug/vars", expvar.Handler())
	// net/http/pprof self-registers on http.DefaultServeMux; mount its
	// handlers explicitly so this private mux works no matter what the
	// default mux holds.
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintf(w, "debug server\n\n/metrics\n/metrics.json\n/debug/vars\n/debug/pprof/\n")
	})
	s := &Server{ln: ln, srv: &http.Server{Handler: mux}}
	go s.srv.Serve(ln)
	return s, nil
}

// Addr returns the bound address (resolved port for ":0" binds).
func (s *Server) Addr() string {
	if s == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Shutdown stops the server gracefully: the listener closes immediately
// (a mid-drain scrape attempt is refused rather than hung) while requests
// already in flight — including long pprof captures — get until ctx to
// finish. Returns ctx's error when they do not. Nil-safe.
func (s *Server) Shutdown(ctx context.Context) error {
	if s == nil {
		return nil
	}
	return s.srv.Shutdown(ctx)
}
