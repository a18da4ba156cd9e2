// Command sweep runs the simulator over a cross product of frame formats,
// channel counts and clock frequencies and emits one CSV row per point —
// the raw data behind the paper's figures, ready for external plotting.
//
// Points are independent, so the cross product runs on a worker pool
// (-jobs, default one per CPU) with the output order identical to the
// serial sweep.
//
// Usage:
//
//	sweep                              # full paper cross product
//	sweep -formats 1080p30,1080p60 -channels 2,4 -freqs 400,533
//	sweep -jobs 1                      # serial (e.g. when profiling)
//	sweep -fidelity auto               # calibrated analytic fast path,
//	                                   # verdict-identical to exact
//	sweep -calibrate > envelope.json   # measure the analytic error bounds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/internal/analytic"
	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/probe"
	"repro/internal/units"
)

func init() { cli.Name = "sweep" }

func main() {
	fs := flag.CommandLine
	grid := cli.GridFlags(fs)
	model := cli.ModelFlags(fs, "0.1", false)
	cli.FidelityFlag(fs, &model.Fidelity, "exact")
	var (
		jobs      int
		observed  cli.Observed
		cache     cli.Cache
		serial    = flag.Bool("serial", false, "run the sweep serially (same output; shorthand for -jobs 1)")
		calibrate = flag.Bool("calibrate", false, "run analytic-vs-exact calibration over the grid and write the error-envelope JSON to stdout instead of sweeping")
		envelope  = flag.String("envelope", "", "calibration envelope JSON for -fidelity auto (default: the envelope embedded at build time)")
	)
	cli.JobsFlag(fs, &jobs)
	observed.CheckFlag(fs)
	prof := cli.ProfileFlags(fs)
	cache.DirFlag(fs)
	cache.OffFlag(fs)
	run := cli.RunFlags(fs)
	run.ProgressFlag(fs)
	flag.Parse()

	tier, policy := model.Tier(), model.PagePolicy()
	switch {
	case *serial && jobs > 1:
		cli.Usage(fs, "-serial conflicts with -jobs %d: a serial sweep runs one point at a time", jobs)
	case run.Progress && *serial:
		cli.Usage(fs, "-progress conflicts with -serial: the serial path is the profiling/CI determinism mode and stays free of background reporting")
	case tier != core.FidelityExact && observed.Check:
		cli.Usage(fs, "-check conflicts with -fidelity %s: the protocol checker needs the cycle-accurate command stream", tier)
	}
	if *calibrate {
		switch {
		case tier != core.FidelityExact:
			cli.Usage(fs, "-calibrate conflicts with -fidelity %s: calibration measures the analytic model against exact simulation", tier)
		case observed.Check:
			cli.Usage(fs, "-calibrate conflicts with -check")
		case *envelope != "":
			cli.Usage(fs, "-calibrate conflicts with -envelope: calibration produces an envelope, it does not consume one")
		case run.SummaryOut != "":
			cli.Usage(fs, "-calibrate conflicts with -summary-out: stdout carries the envelope JSON, not sweep rows")
		case policy != controller.OpenPage || model.Device != "":
			cli.Usage(fs, "-calibrate conflicts with -policy/-device: calibration measures the paper baseline the auto tier serves")
		}
	}
	if *envelope != "" && tier != core.FidelityAuto {
		cli.Usage(fs, "-envelope only applies to -fidelity auto (got %s)", tier)
	}
	if *envelope != "" {
		data, err := os.ReadFile(*envelope)
		if err != nil {
			cli.Fatal(err)
		}
		env, err := analytic.DecodeEnvelope(data)
		if err != nil {
			cli.Fatal(err)
		}
		core.EnableEnvelope(env)
		defer core.EnableEnvelope(nil)
	}
	if tier == core.FidelityAuto && core.EnabledEnvelope() == nil {
		fmt.Fprintln(os.Stderr, "sweep: warning: no calibration envelope available; -fidelity auto will simulate every point")
	}

	defer run.Start()()
	// SIGINT/SIGTERM cancels the sweep between points: workers stop
	// claiming new indices, the run exits promptly with a clear message,
	// and the deferred cleanups (profiles, debug server) still run.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()
	// Content-addressed result cache: in-process dedup always (duplicate
	// grid points simulate once), plus the optional on-disk store that
	// persists points across invocations. Checked points bypass it
	// automatically.
	defer cache.Enable(true)()
	defer prof.Start()()

	type point struct {
		w  core.Workload
		ch int
		f  int
	}
	var points []point
	for _, format := range grid.Formats {
		w, err := core.WorkloadFor(format)
		if err != nil {
			cli.Fatal(err)
		}
		w.SampleFraction = model.Fraction
		for _, ch := range grid.Channels {
			for _, f := range grid.FreqsMHz {
				points = append(points, point{w, ch, f})
			}
		}
	}
	njobs := jobs
	if njobs == 0 {
		njobs = core.DefaultJobs()
	}
	if *serial {
		njobs = 1
	}
	prog := run.StartProgress()
	if *calibrate {
		env, err := core.Calibrate(ctx, core.CalibrateOptions{
			Formats:        grid.Formats,
			Channels:       grid.Channels,
			FreqsMHz:       grid.FreqsMHz,
			SampleFraction: model.Fraction,
			Jobs:           njobs,
		})
		prog.Stop()
		if err != nil {
			if errors.Is(err, context.Canceled) {
				cli.Fatal(fmt.Errorf("interrupted before completion; no envelope written"))
			}
			cli.Fatal(err)
		}
		buf, err := env.Encode()
		if err != nil {
			cli.Fatal(err)
		}
		os.Stdout.Write(buf)
		fmt.Fprintf(os.Stderr, "sweep: calibrate: %d points, worst |err| %.4f%% of access time, fraction %v\n",
			env.Points, env.WorstAbsErr*100, model.Fraction)
		return
	}
	results, err := core.RunIndexedContext(ctx, njobs, len(points), func(i int) (core.Result, error) {
		p := points[i]
		mc := core.PaperMemory(p.ch, units.Frequency(p.f)*units.MHz)
		mc.Policy = policy
		mc.Device = model.Device
		var set *check.Set
		if observed.Check {
			var err error
			if set, err = core.AttachChecker(&mc); err != nil {
				return core.Result{}, err
			}
		}
		res, err := core.SimulateAuto(p.w, mc, tier)
		if err != nil {
			return core.Result{}, err
		}
		if set != nil {
			if err := cli.Violations(set, fmt.Sprintf("%s/%dch/%dMHz", res.Format.Name, p.ch, p.f)); err != nil {
				return core.Result{}, err
			}
		}
		return res, nil
	})
	prog.Stop()
	if err != nil {
		if errors.Is(err, context.Canceled) {
			cli.Fatal(fmt.Errorf("interrupted before completion; no output written"))
		}
		cli.Fatal(err)
	}
	if observed.Check {
		fmt.Fprintf(os.Stderr, "sweep: check: all %d points verified against the device timing constraints\n", len(points))
	}

	fmt.Println("format,channels,freq_mhz,frame_bytes,required_gbps,access_ms,budget_ms,verdict,efficiency,power_mw,interface_mw,estimated")
	var totalCycles int64
	for i, res := range results {
		fmt.Printf("%s,%d,%d,%d,%.3f,%.3f,%.3f,%s,%.3f,%.1f,%.2f,%t\n",
			res.Format.Name, points[i].ch, points[i].f,
			res.FrameBytes,
			res.RequiredBandwidth.GBps(),
			res.AccessTime.Milliseconds(),
			res.FramePeriod.Milliseconds(),
			res.Verdict,
			res.Efficiency,
			res.TotalPower.Milliwatts(),
			res.InterfacePower.Milliwatts(),
			res.Estimated)
		totalCycles += res.SimulatedCycles
	}
	man := probe.NewManifest(cli.Name)
	man.SampleFraction = model.Fraction
	man.Config = map[string]any{
		"formats": grid.Formats, "channels": grid.Channels, "freqs": grid.FreqsMHz,
		"policy": policy.String(), "device": model.Device,
		"points": len(points), "jobs": njobs,
	}
	run.WriteSummary(man, totalCycles)
}
