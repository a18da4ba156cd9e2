// Command bench is the repository's benchmark. It runs four workloads of
// the multi-channel memory simulator end to end, checks every answer, and
// prints each metric as "workload metric value unit", then one JSON line.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bench -workload all -seed 1               # end-to-end metrics
//	bench -workload grid-open -seed 1 -trace 1 # per-layer metrics and a span file
//	bench -workload all -seed 1 -sets 2        # repeatability check against BENCHMARK.json
//
// Each workload runs in a child process of its own, which sets the
// workload up several times (setup_s is the median), warms up and measures.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

// childEnv carries a child process's run configuration; a process started
// with it set runs that workload instead of parsing flags.
const childEnv = "BENCH_CHILD"

const (
	// setupRuns is how many times a run sets its workload up; setup_s is
	// the median. Set-up takes tens of milliseconds, so one sample would
	// follow every hiccup of the host.
	setupRuns = 7
	// runsPerSet is how many seeds each workload runs in a set of -sets.
	runsPerSet = 5
	// runTimeout bounds one workload run, its child included.
	runTimeout = 170 * time.Second
)

type metricDef struct{ name, unit string }

// endToEnd are the metrics of the untraced run; perLayer those of the
// traced run. BENCHMARK.json lists the same names and units.
var (
	endToEnd = []metricDef{
		{"setup_s", "s"},
		{"ops_per_s", "ops/s"},
		{"op_p50_ms", "ms"},
		{"op_p95_ms", "ms"},
		{"rss_mb", "MiB"},
	}
	perLayer = []metricDef{
		{"load.ms_per_point", "ms"},
		{"load.requests_per_point", "count"},
		{"mapping.ns_per_burst", "ns"},
		{"mapping.bursts_per_point", "count"},
		{"memsys.ms_per_point", "ms"},
		{"memsys.ms_per_point.open-page", "ms"},
		{"memsys.ms_per_point.closed-page", "ms"},
		{"memsys.ms_per_point.frfcfs", "ms"},
		{"memsys.ms_per_point.bank-partition", "ms"},
		{"memsys.sim_cycles_per_s", "1/s"},
		{"power.us_per_point", "us"},
		{"core.overhead_us_per_point", "us"},
		{"simcache.key_us", "us"},
		{"simcache.hit_us", "us"},
		{"simcache.hit_ratio", "ratio"},
		{"simcache.dedup_joins", "count"},
		{"analytic.us_per_point", "us"},
		{"analytic.served_ratio", "ratio"},
		{"server.decode_us", "us"},
		{"server.hit_us", "us"},
		{"shard.owner_ns", "ns"},
		{"loadgen.late_p99_ms", "ms"},
		{"cpu.busy_ratio", "ratio"},
		{"trace.overhead_pct", "%"},
	}
)

// childResult is the child's last line of output.
type childResult struct {
	Correct   bool               `json:"correct"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Samples   int                `json:"samples"`
	Metrics   map[string]float64 `json:"metrics"`
	Problems  []string           `json:"problems,omitempty"`
}

// value is one printed metric.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the outcome of one workload run.
type report struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Samples   int              `json:"samples"`
	Metrics   map[string]value `json:"metrics"`
	Problems  []string         `json:"problems,omitempty"`
}

func main() {
	if spec := os.Getenv(childEnv); spec != "" {
		os.Exit(childMain(spec, os.Stdout, os.Stderr))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "all", "workload to run, or all: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed that orders the generated inputs")
	seconds := fs.Float64("seconds", 20, "length of the timed phase, in seconds (BENCHMARK.json's run_seconds)")
	trace := fs.Int("trace", 0, "1 = traced run: print the per-layer metrics and write a span file")
	sets := fs.Int("sets", 0, fmt.Sprintf("repeatability mode: run this many sets of %d seeds per workload and check the spread against BENCHMARK.json", runsPerSet))
	tiny := fs.Bool("tiny", false, "smoke-test sizes: one pass at fraction 0.002, one set-up and 50 service requests; implies -seconds 0")
	out := fs.String("out", filepath.Join(".bench_build", "results"), "directory for result and span files")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || *trace < 0 || *trace > 1 || *seconds < 0 || *sets < 0 {
		fmt.Fprintln(stderr, "bench: bad arguments")
		fs.Usage()
		return 2
	}
	names := workloadNames()
	if *name != "all" {
		if _, ok := findWorkload(*name); !ok {
			fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
			return 2
		}
		names = []string{*name}
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, Tiny: *tiny, Out: *out}
	if cfg.Tiny {
		cfg.Seconds = 0
	}
	if *sets > 0 {
		return repeatability(cfg, names, *sets, stdout, stderr)
	}
	var reps []report
	for _, n := range names {
		cfg.Workload = n
		rep, err := runWorkload(cfg, stderr)
		if err != nil {
			fmt.Fprintf(stderr, "bench: %s: %v\n", n, err)
			return 1
		}
		printReport(stdout, rep, cfg.Trace)
		if err := writeJSON(filepath.Join(*out, resultName(cfg)), rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		reps = append(reps, rep)
	}
	line, ok := summaryLine(reps)
	fmt.Fprintln(stdout, line)
	if !ok {
		return 1
	}
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

func resultName(cfg runConfig) string {
	suffix := ""
	if cfg.Trace {
		suffix = "-trace"
	}
	return fmt.Sprintf("%s-seed%d%s.json", cfg.Workload, cfg.Seed, suffix)
}

// runWorkload measures one workload in a child process.
func runWorkload(cfg runConfig, stderr io.Writer) (report, error) {
	ctx, cancel := context.WithTimeout(context.Background(), runTimeout)
	defer cancel()
	rep := report{Workload: cfg.Workload, Seed: cfg.Seed, Metrics: map[string]value{}}
	res, err := runChild(ctx, cfg, stderr)
	if err != nil {
		return rep, err
	}
	rep.Correct, rep.Attempted, rep.Failed = res.Correct, res.Attempted, res.Failed
	rep.Samples, rep.Problems = res.Samples, res.Problems
	if !res.Correct && len(res.Metrics) == 0 {
		return rep, fmt.Errorf("stopped before measuring: %s", strings.Join(res.Problems, "; "))
	}
	defs := perLayer
	if !cfg.Trace {
		defs = endToEnd
	}
	for _, d := range defs {
		v, ok := res.Metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return rep, fmt.Errorf("metric %s was not measured", d.name)
		}
		rep.Metrics[d.name] = value{v, d.unit}
	}
	return rep, nil
}

// runChild runs the workload in a child process and returns its result.
func runChild(ctx context.Context, cfg runConfig, stderr io.Writer) (childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return childResult{}, err
	}
	spec, err := json.Marshal(cfg)
	if err != nil {
		return childResult{}, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Env = append(os.Environ(), childEnv+"="+string(spec))
	cmd.Stderr = stderr
	out, err := cmd.Output()
	var res childResult
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &res); jerr != nil {
		if err == nil {
			err = jerr
		}
		return res, fmt.Errorf("run child: %w", err)
	}
	// A child that found wrong answers exits non-zero after reporting them.
	var exit *exec.ExitError
	if err != nil && !(errors.As(err, &exit) && !res.Correct) {
		return res, fmt.Errorf("run child: %w", err)
	}
	return res, nil
}

func printReport(w io.Writer, rep report, traced bool) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	for _, d := range defs {
		v := rep.Metrics[d.name]
		note := ""
		switch d.name {
		case "op_p50_ms", "op_p95_ms":
			q := 0.5
			if d.name == "op_p95_ms" {
				q = 0.95
			}
			note = fmt.Sprintf("  # n=%d, %d beyond", rep.Samples, beyond(rep.Samples, q))
			if !reportable(rep.Samples, q) {
				note += fmt.Sprintf(", fewer than %d", minTail)
			}
		}
		fmt.Fprintf(w, "%s %s %.6g %s%s\n", rep.Workload, d.name, v.Value, v.Unit, note)
	}
	fmt.Fprintf(w, "%s attempted %d, failed %d, correct %v\n", rep.Workload, rep.Attempted, rep.Failed, rep.Correct)
	for _, p := range rep.Problems {
		fmt.Fprintf(w, "%s problem: %s\n", rep.Workload, p)
	}
}

// summaryLine is the last line of output: one JSON object. With several
// workloads each metric name is prefixed by its workload.
func summaryLine(reps []report) (string, bool) {
	type line struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}
	l := line{Correct: true, Metrics: map[string]value{}}
	for _, r := range reps {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		for k, v := range r.Metrics {
			if len(reps) > 1 {
				k = r.Workload + "." + k
			}
			l.Metrics[k] = v
		}
	}
	b, err := json.Marshal(l)
	if err != nil {
		return fmt.Sprintf(`{"correct": false, "error": %q}`, err.Error()), false
	}
	return string(b), l.Correct
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// childMain runs one workload in a child process: it sets the workload up
// setupRuns times, keeping the last set-up, then warms up and measures.
func childMain(spec string, stdout, stderr io.Writer) int {
	var cfg runConfig
	if err := json.Unmarshal([]byte(spec), &cfg); err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 2
	}
	wl, ok := findWorkload(cfg.Workload)
	if !ok {
		fmt.Fprintf(stderr, "bench child: unknown workload %q\n", cfg.Workload)
		return 2
	}
	ctx := context.Background()
	n := setupRuns
	if cfg.Tiny {
		n = 1
	}
	var (
		e      env
		setups []float64
	)
	for i := 0; i < n; i++ {
		if e != nil {
			e.close()
		}
		start := time.Now()
		var err error
		if e, err = wl.setup(ctx, cfg); err != nil {
			fmt.Fprintf(stderr, "bench child: %s setup: %v\n", cfg.Workload, err)
			return 1
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer e.close()
	res := measureChild(ctx, e, cfg)
	if !cfg.Trace && len(res.Metrics) > 0 {
		res.Metrics["setup_s"] = median(setups)
	}
	b, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "bench child:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !res.Correct {
		return 1
	}
	return 0
}

// measureChild warms up, runs the timed phase and, when tracing, the layer
// replay.
func measureChild(ctx context.Context, e env, cfg runConfig) childResult {
	res := childResult{Metrics: map[string]float64{}}
	fail := func(err error) childResult {
		res.Problems = append(res.Problems, err.Error())
		return res
	}
	if err := e.warmUp(ctx); err != nil {
		return fail(err)
	}
	if !cfg.Trace {
		mem := startMemSampler(100 * time.Millisecond)
		p, err := e.measure(ctx, cfg.Seconds, nil)
		res.Metrics["rss_mb"] = mem.finish()
		if err != nil {
			return fail(err)
		}
		res.add(p)
		res.Metrics["ops_per_s"] = float64(p.points) / p.wall
		res.Metrics["op_p50_ms"] = percentile(p.lat, 0.50) * 1e3
		res.Metrics["op_p95_ms"] = percentile(p.lat, 0.95) * 1e3
		res.Samples = len(p.lat)
		res.Correct = len(res.Problems) == 0
		return res
	}
	// The traced run measures half its time without spans and half with,
	// so the tracing overhead is measured in the same process.
	plain, err := e.measure(ctx, cfg.Seconds/2, nil)
	if err != nil {
		return fail(err)
	}
	tr := newTracer()
	p, err := e.measure(ctx, cfg.Seconds/2, tr)
	if err != nil {
		return fail(err)
	}
	res.add(plain)
	res.add(p)
	lp, err := newLayerProbe()
	if err != nil {
		return fail(err)
	}
	pts := e.sample()
	if cfg.Tiny {
		pts = pts[:min(2, len(pts))]
	}
	if err := lp.run(ctx, tr, pts); err != nil {
		return fail(err)
	}
	res.Problems = append(res.Problems, lp.problems...)
	for k, v := range lp.metrics(tr.snapshot()) {
		res.Metrics[k] = v
	}
	m := res.Metrics
	m["simcache.hit_ratio"] = ratio(float64(p.hits), float64(p.lookups))
	m["simcache.dedup_joins"] = float64(p.joins)
	m["analytic.served_ratio"] = ratio(float64(p.estimated), float64(p.served))
	m["loadgen.late_p99_ms"] = percentile(p.late, 0.99) * 1e3
	m["cpu.busy_ratio"] = p.cpu / (float64(runtime.NumCPU()) * p.wall)
	plainRate, tracedRate := float64(plain.points)/plain.wall, float64(p.points)/p.wall
	m["trace.overhead_pct"] = (plainRate - tracedRate) / plainRate * 100
	res.Samples = len(p.lat)
	if err := tr.write(filepath.Join(cfg.Out, strings.TrimSuffix(resultName(cfg), ".json")+"-spans.json")); err != nil {
		return fail(err)
	}
	res.Correct = len(res.Problems) == 0
	return res
}

func (r *childResult) add(p phase) {
	r.Attempted += p.attempted
	r.Failed += p.failed
	r.Problems = append(r.Problems, p.problems...)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// cpuSeconds is the user plus system CPU time this process has used.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}
