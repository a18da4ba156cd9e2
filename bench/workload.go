package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"runtime"

	"repro/internal/core"
	"repro/internal/server"
)

// runConfig is what one workload run is given. Seed orders the generated
// inputs; Tiny shrinks every workload to a smoke-test size.
type runConfig struct {
	Workload string  `json:"workload"`
	Seed     int64   `json:"seed"`
	Seconds  float64 `json:"seconds"`
	Trace    bool    `json:"trace"`
	Tiny     bool    `json:"tiny"`
	Out      string  `json:"out"`
}

func (c runConfig) rng() *rand.Rand { return rand.New(rand.NewSource(c.Seed)) }

// fraction returns the sampled frame fraction a workload simulates at
// full size, or the smoke-test fraction when Tiny.
func (c runConfig) fraction(full float64) float64 {
	if c.Tiny {
		return 0.002
	}
	return full
}

// jobs is the batch workloads' concurrency: one worker per CPU.
func jobs() int { return runtime.NumCPU() }

// workload is one set of inputs the benchmark runs; BENCHMARK.json and
// README.md say why each exists.
type workload struct {
	name string
	// setup builds the inputs and the program state the workload needs and
	// answers the anchor point; it is what setup_s measures.
	setup func(ctx context.Context, cfg runConfig) (env, error)
}

// env is a workload that has been set up.
type env interface {
	// warmUp runs untimed work first: one pass for the batch workloads,
	// which also records the reference answers the timed phase is checked
	// against, or a stretch of the request mix for the service.
	warmUp(ctx context.Context) error
	// measure runs operations for about the given number of seconds
	// (whole passes for the batch workloads) and checks every answer.
	measure(ctx context.Context, seconds float64, tr *tracer) (phase, error)
	// sample lists the distinct points the traced run replays through the
	// public layer functions.
	sample() []server.SimulateRequest
	close()
}

// phase is the outcome of one timed phase.
type phase struct {
	lat  []float64 // per-operation latency, seconds
	late []float64 // per-operation generator lateness, seconds
	// points, wall and cpu cover the whole phase of a batch workload and
	// the closed loop of the service.
	points    int     // points answered, the numerator of ops_per_s
	wall      float64 // seconds from the first start to the last completion
	cpu       float64 // process CPU seconds spent
	attempted int
	failed    int
	problems  []string // wrong answers and failed requests, for the report
	// Layer counts that only the run itself can observe.
	lookups, hits, joins int64 // result-cache lookups, hits and single-flight joins
	served, estimated    int   // auto-tier points answered and how many analytically
}

// fail counts one failed operation and keeps its description.
func (p *phase) fail(format string, args ...any) {
	p.failed++
	if len(p.problems) < 20 {
		p.problems = append(p.problems, fmt.Sprintf(format, args...))
	}
}

var workloads = []workload{
	{name: "grid-open", setup: setupGridOpen},
	{name: "grid-policies", setup: setupGridPolicies},
	{name: "paper-artifacts", setup: setupPaper},
	{name: "service-mixed", setup: setupService},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// Anchor is the abstract's headline point: 1080p30 on 4 channels at
// 400 MHz reads about 345 mW and 14.6 ms with verdict ok.
var anchor = server.SimulateRequest{Format: "1080p30", Channels: 4, FreqMHz: 400, Fraction: 0.1}

// checkAnchor verifies the anchor's power, access time and verdict within
// 1 %.
func checkAnchor(powerMW, accessMS float64, verdict string) error {
	near := func(got, want float64) bool { return math.Abs(got-want) <= 0.01*want }
	if !near(powerMW, 345) || !near(accessMS, 14.6) || verdict != "ok" {
		return fmt.Errorf("anchor 1080p30/4ch/400MHz reads %.1f mW, %.2f ms, %q; want about 345 mW, 14.6 ms, \"ok\"",
			powerMW, accessMS, verdict)
	}
	return nil
}

// simulateAnchor answers the anchor through core and checks it.
func simulateAnchor(ctx context.Context) error {
	w, mc, err := anchor.Point()
	if err != nil {
		return err
	}
	res, err := core.SimulateContext(ctx, w, mc)
	if err != nil {
		return fmt.Errorf("anchor: %w", err)
	}
	return checkAnchor(res.TotalPower.Milliwatts(), res.AccessTime.Milliseconds(), res.Verdict.String())
}
