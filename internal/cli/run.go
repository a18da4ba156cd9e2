package cli

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"syscall"
	"time"

	"repro/internal/check"
	"repro/internal/core"
	"repro/internal/debugserver"
	"repro/internal/metrics"
	"repro/internal/probe"
)

// OutputFlag registers a flag naming a file the run writes; a path that
// cannot be created is a usage error.
func OutputFlag(fs *flag.FlagSet, p *string, name, usage string) {
	define(fs, p, name, "", usage, func(s string) (string, error) { return s, probe.CheckWritable(s) })
}

// DebugAddrFlag registers -debug-addr.
func DebugAddrFlag(fs *flag.FlagSet, p *string) {
	define(fs, p, "debug-addr", "", "serve /metrics, /metrics.json, expvar and pprof on this host:port (e.g. 127.0.0.1:0)", func(s string) (string, error) {
		if s == "" {
			return s, nil
		}
		return s, debugserver.ValidateAddr(s)
	})
}

// startDebug serves the debug surface on addr, when set, and announces
// the bound address on stderr so tooling can find it.
func startDebug(addr string, reg *metrics.Registry) *debugserver.Server {
	if addr == "" {
		return nil
	}
	srv, err := debugserver.Start(addr, reg)
	if err != nil {
		Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: debug: listening on %s\n", Name, srv.Addr())
	return srv
}

// Run is the run-observability group of the batch tools: -debug-addr,
// -summary-out and, where a run reports progress, -progress. None of them
// changes stdout.
type Run struct {
	DebugAddr  string
	SummaryOut string
	Progress   bool

	reg   *metrics.Registry
	start time.Time
}

// RunFlags registers -debug-addr and -summary-out.
func RunFlags(fs *flag.FlagSet) *Run {
	r := &Run{}
	DebugAddrFlag(fs, &r.DebugAddr)
	OutputFlag(fs, &r.SummaryOut, "summary-out", "write a schema-versioned end-of-run summary JSON (manifest + metrics snapshot) to this file")
	return r
}

// ProgressFlag registers -progress.
func (r *Run) ProgressFlag(fs *flag.FlagSet) {
	fs.BoolVar(&r.Progress, "progress", false, "print periodic progress lines (points done, cache-hit rate, ETA) to stderr; stdout is unchanged")
}

// Start enables the metrics registry, but only when a flag consumes it:
// otherwise the instrumented layers keep their nil-check fast paths. It
// then serves the debug surface when asked. stop shuts the debug server
// down gracefully, so an in-flight scrape of the final metrics finishes.
// Call Start before building the result cache, so its counters register.
func (r *Run) Start() (stop func()) {
	if r.DebugAddr != "" || r.SummaryOut != "" || r.Progress {
		r.reg = metrics.NewRegistry()
		core.EnableMetrics(r.reg)
	}
	srv := startDebug(r.DebugAddr, r.reg)
	r.start = time.Now()
	return func() {
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
		core.EnableMetrics(nil)
	}
}

// StartProgress starts the periodic stderr progress lines when -progress
// asks for them; Stop on the nil result is a no-op.
func (r *Run) StartProgress() *core.Progress {
	if !r.Progress {
		return nil
	}
	return core.StartProgress(os.Stderr, time.Second)
}

// WriteSummary writes the end-of-run summary, man plus the metrics
// snapshot, when -summary-out asks for one; cycles is the simulated
// makespan. The confirmation goes to stderr.
func (r *Run) WriteSummary(man probe.Manifest, cycles int64) {
	if r.SummaryOut == "" {
		return
	}
	man.Finish(cycles, time.Since(r.start))
	man.AddOutput("summary", r.SummaryOut)
	if err := probe.NewSummary(man, r.reg.Snapshot()).Write(r.SummaryOut); err != nil {
		Fatal(fmt.Errorf("writing summary: %w", err))
	}
	fmt.Fprintf(os.Stderr, "%s: summary: wrote %s\n", Name, r.SummaryOut)
}

// Observed is the observed-run group: -probe-window, -trace-out and
// -metrics-out attach event probes to a run, and -check attaches the
// protocol invariant checker.
type Observed struct {
	Window     int64
	TraceOut   string
	MetricsOut string
	Check      bool

	spans *probe.Spans
	obs   *probe.Observer
	set   *check.Set
}

// ObservedFlags registers the observed-run flags.
func ObservedFlags(fs *flag.FlagSet) *Observed {
	o := &Observed{}
	define(fs, &o.Window, "probe-window", "100000", "time-series epoch length in DRAM cycles (for -metrics-out)", func(s string) (int64, error) {
		n, err := strconv.ParseInt(s, 10, 64)
		if err == nil && n <= 0 {
			err = fmt.Errorf("must be positive")
		}
		return n, err
	})
	OutputFlag(fs, &o.TraceOut, "trace-out", "write a Chrome/Perfetto trace-event JSON of the observed run to this file")
	OutputFlag(fs, &o.MetricsOut, "metrics-out", "write the observed run's windowed time-series metrics to this file (.json = JSON, else CSV)")
	o.CheckFlag(fs)
	return o
}

// CheckFlag registers -check alone, for a binary that checks many runs
// (see Violations).
func (o *Observed) CheckFlag(fs *flag.FlagSet) {
	fs.BoolVar(&o.Check, "check", false, "verify every DRAM command against the device timing constraints (slower; violations are fatal)")
}

// Enabled reports whether the run writes probe outputs.
func (o *Observed) Enabled() bool { return o.TraceOut != "" || o.MetricsOut != "" }

// StartSpans records the run's phase spans from here on when -trace-out
// asks for a trace; they ride along in it on their own wall-clock track.
func (o *Observed) StartSpans() (stop func()) {
	if o.TraceOut == "" {
		return func() {}
	}
	o.spans = probe.NewSpans()
	core.EnableSpans(o.spans)
	return func() { core.EnableSpans(nil) }
}

// Attach installs on mc the event probes the output flags ask for and,
// with -check, the protocol checker, which resolves mc's device timing
// first.
func (o *Observed) Attach(mc *core.MemoryConfig) error {
	if o.Enabled() {
		obs, err := probe.NewObserver(mc.Channels, o.Window, o.TraceOut, o.MetricsOut)
		if err != nil {
			return err
		}
		obs.SetSpans(o.spans)
		o.obs, mc.NewProbe = obs, obs.Channel
	}
	if o.Check {
		set, err := core.AttachChecker(mc)
		if err != nil {
			return err
		}
		o.set = set
	}
	return nil
}

// Write writes the probe outputs with man as their manifest, finished at
// the run's simulated cycles and wall time, and names them on stdout.
func (o *Observed) Write(man probe.Manifest, cycles int64, wall time.Duration) error {
	if o.obs == nil {
		return nil
	}
	man.Config["probe_window"] = o.Window
	man.Finish(cycles, wall)
	if err := o.obs.WriteOutputs(&man); err != nil {
		return err
	}
	fmt.Printf("observability: wrote %v\n", man.Outputs)
	return nil
}

// Verify reports the attached checker's verdict: violations go to stderr
// and fail the run; a clean run prints ok on stdout.
func (o *Observed) Verify(ok string) error {
	if o.set == nil {
		return nil
	}
	if err := Violations(o.set, ""); err != nil {
		return err
	}
	fmt.Println(ok)
	return nil
}

// Violations prints every violation set recorded to stderr, each
// prefixed with where when set, and returns the checker's error, nil for a
// clean run.
func Violations(set *check.Set, where string) error {
	err := set.Err()
	if err == nil {
		return nil
	}
	if where != "" {
		where += ": "
		err = fmt.Errorf("%s%w", where, err)
	}
	for _, v := range set.Violations() {
		fmt.Fprintf(os.Stderr, "%s: check: %s%s\n", Name, where, v)
	}
	if n := set.Dropped(); n > 0 {
		fmt.Fprintf(os.Stderr, "%s: check: %d further violations dropped\n", Name, n)
	}
	return err
}

// Daemon is the service lifecycle group: -addr, -drain and -debug-addr.
type Daemon struct {
	Addr      string
	Drain     time.Duration
	DebugAddr string

	dbg *debugserver.Server
}

// DaemonFlags registers the lifecycle flags with the binary's default
// listen address.
func DaemonFlags(fs *flag.FlagSet, addr string) *Daemon {
	d := &Daemon{}
	define(fs, &d.Addr, "addr", addr, "host:port to serve the API on (\":0\" picks a free port, announced on stderr)",
		func(s string) (string, error) { return s, debugserver.ValidateAddr(s) })
	define(fs, &d.Drain, "drain", "10s", "graceful-drain deadline on SIGINT/SIGTERM: in-flight requests get this long before being canceled",
		func(s string) (time.Duration, error) {
			t, err := time.ParseDuration(s)
			if err == nil && t <= 0 {
				err = fmt.Errorf("must be positive")
			}
			return t, err
		})
	DebugAddrFlag(fs, &d.DebugAddr)
	return d
}

// Debug serves the debug surface over reg when -debug-addr asks for it.
func (d *Daemon) Debug(reg *metrics.Registry) { d.dbg = startDebug(d.DebugAddr, reg) }

// Wait blocks until SIGINT or SIGTERM, then drains the service and the
// debug surface on the -drain deadline. A drain that does not finish in
// time is fatal.
func (d *Daemon) Wait(drain func(context.Context) error) {
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	got := <-sig
	fmt.Fprintf(os.Stderr, "%s: received %s, draining (deadline %s)\n", Name, got, d.Drain)

	ctx, cancel := context.WithTimeout(context.Background(), d.Drain)
	defer cancel()
	err := drain(ctx)
	// The debug surface drains on the same deadline so an in-flight
	// metrics scrape finishes; it has no long-running work of its own.
	if derr := d.dbg.Shutdown(ctx); err == nil {
		err = derr
	}
	if err != nil {
		Fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s: drained cleanly\n", Name)
}
