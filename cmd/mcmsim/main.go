// Command mcmsim simulates one frame of the video-recording use case on a
// multi-channel memory configuration and reports access time, real-time
// verdict, bandwidth and power, reproducing a single data point of the
// paper's figures.
//
// Usage:
//
//	mcmsim -format 1080p30 -channels 4 -freq 400
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/check"
	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mapping"
	"repro/internal/probe"
	"repro/internal/units"
)

func init() { cli.Name = "mcmsim" }

func main() {
	fs := flag.CommandLine
	pt := cli.PointFlags(fs, "720p30", "1")
	model := cli.ModelFlags(fs, "1", true)
	cli.FidelityFlag(fs, &model.Fidelity, "exact")
	// -page is the historical name of -policy: the same flag under both.
	fs.Var(fs.Lookup("policy").Value, "page", "alias of -policy")
	observed := cli.ObservedFlags(fs)
	run := cli.RunFlags(fs)
	var cache cli.Cache
	cache.DirFlag(fs)
	cache.OffFlag(fs)
	prof := cli.ProfileFlags(fs)
	var (
		mux     = flag.String("mux", "rbc", "address multiplexing: rbc or brc")
		noPD    = flag.Bool("no-powerdown", false, "disable aggressive power-down")
		perChan = flag.Bool("per-channel", false, "print per-channel power breakdown")
		stages  = flag.Bool("stages", false, "attribute access time and energy per pipeline stage")
		latency = flag.Bool("latency", false, "print the per-burst latency histogram")
		wbuf    = flag.Int("write-buffer", 0, "posted-write buffer depth (0 = paper baseline)")
		queue   = flag.Int("queue", 0, "FR-FCFS reorder window depth (0 = in-order baseline)")
		refPost = flag.Int("refresh-postpone", 0, "max postponed refreshes (0 = immediate)")
		preIdle = flag.Bool("precharge-idle", false, "precharge all banks before power-down")

		faultSeed    = flag.Uint64("fault-seed", 1, "fault plan PRNG seed (same seed = byte-identical QoS report)")
		faultDrop    = flag.Int("fault-drop-channel", -1, "channel to fail permanently (-1 = no dropout)")
		faultDropAt  = flag.Int64("fault-drop-cycle", 0, "dispatch cycle of the dropout (0 = mid first frame slot)")
		faultDerate  = flag.Int64("fault-derate-cycle", 0, "cycle of the thermal derate doubling refresh rate (0 = off)")
		faultReadErr = flag.Float64("fault-read-error-rate", 0, "per-read probability of a transient ECC error (0 = off)")
		faultStall   = flag.Float64("fault-stall-rate", 0, "per-request probability of a controller stall (0 = off)")
		faultStallMx = flag.Int64("fault-stall-max", 0, "max stall length in cycles (0 = default)")
		faultFrames  = flag.Int("fault-frames", 8, "frame slots to run in degraded mode (with any -fault-* active)")
		qosOut       string
	)
	cli.OutputFlag(fs, &qosOut, "qos-out", "write the deterministic QoS report to this file")
	flag.Parse()

	tier := model.Tier()
	if tier != core.FidelityExact {
		// The analytic tiers produce no command stream, no per-burst
		// events and no per-frame payloads; every surface that consumes
		// those needs the cycle-accurate simulator.
		switch {
		case observed.Check:
			cli.Usage(fs, "-check conflicts with -fidelity %s: the protocol checker needs the cycle-accurate command stream", tier)
		case *latency:
			cli.Usage(fs, "-latency conflicts with -fidelity %s: the estimate has no per-burst latencies", tier)
		case *stages:
			cli.Usage(fs, "-stages conflicts with -fidelity %s: stage attribution re-runs the simulator", tier)
		case *perChan:
			cli.Usage(fs, "-per-channel conflicts with -fidelity %s: the estimate has no per-channel breakdown", tier)
		case observed.Enabled():
			cli.Usage(fs, "-trace-out/-metrics-out conflict with -fidelity %s: estimates emit no event stream", tier)
		case *faultDrop >= 0 || *faultDerate != 0 || *faultReadErr != 0 || *faultStall != 0:
			cli.Usage(fs, "fault injection conflicts with -fidelity %s: degraded-mode runs are always cycle-accurate", tier)
		}
	}
	mc := core.PaperMemory(pt.Channels, units.Frequency(pt.FreqMHz)*units.MHz)
	switch *mux {
	case "rbc":
		mc.Mux = mapping.RBC
	case "brc":
		mc.Mux = mapping.BRC
	default:
		cli.Usage(fs, "unknown multiplexing %q (want rbc or brc)", *mux)
	}

	defer run.Start()()
	// Observed runs (-latency, -trace-out, -metrics-out, -check, -fault-*)
	// bypass the cache on their own; only the plain access-time/power run
	// is served content-addressed.
	defer cache.Enable(false)()
	defer prof.Start()()
	defer observed.StartSpans()()

	w, err := core.WorkloadFor(pt.Format)
	if err != nil {
		cli.Fatal(err)
	}
	w.SampleFraction = model.Fraction
	w.RecordLatency = *latency
	mc.Policy = model.PagePolicy()
	mc.Device = model.Device
	mc.DisablePowerDown = *noPD
	mc.WriteBufferDepth = *wbuf
	mc.QueueDepth = *queue
	mc.RefreshPostpone = *refPost
	mc.PrechargeOnIdle = *preIdle
	plain := mc // the stage pass runs on a system of its own, unprobed
	if err := observed.Attach(&mc); err != nil {
		cli.Fatal(err)
	}

	plan := fault.Plan{
		Seed:           *faultSeed,
		DerateAtCycle:  *faultDerate,
		ReadErrorRate:  *faultReadErr,
		StallRate:      *faultStall,
		StallMaxCycles: *faultStallMx,
	}
	if *faultDrop >= 0 {
		plan.DropChannel = *faultDrop
		plan.DropAtCycle = *faultDropAt
		if plan.DropAtCycle == 0 {
			plan.DropAtCycle = core.MidFirstSlot(w, mc.Freq)
		}
	}
	var cycles int64
	if plan.Enabled() {
		mc.Faults = &plan
		cycles = runDegraded(w, mc, observed, *faultFrames, model.Fraction, qosOut)
	} else {
		cycles = runPoint(w, mc, observed, tier, model.Fraction, *perChan, *latency)
		if *stages {
			runStages(w, plain, observed.Check)
		}
	}
	if err := observed.Verify("check:      every DRAM command satisfied the device timing constraints"); err != nil {
		cli.Fatal(err)
	}
	man := probe.NewManifest(cli.Name)
	man.Channels = pt.Channels
	man.FreqMHz = pt.FreqMHz
	man.SampleFraction = model.Fraction
	run.WriteSummary(man, cycles)
}

// runPoint simulates one frame and prints its report. It returns the
// simulated cycle count for the run summary.
func runPoint(w core.Workload, mc core.MemoryConfig, observed *cli.Observed, tier core.Fidelity, fraction float64, perChan, latency bool) int64 {
	start := time.Now()
	res, err := core.SimulateAuto(w, mc, tier)
	if err != nil {
		cli.Fatal(err)
	}
	man := manifest(mc, fraction, res)
	man.Config["write_buffer"] = mc.WriteBufferDepth
	man.Config["queue_depth"] = mc.QueueDepth
	man.Config["refresh_postpone"] = mc.RefreshPostpone
	man.Config["precharge_on_idle"] = mc.PrechargeOnIdle
	if err := observed.Write(man, res.SimulatedCycles, time.Since(start)); err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("workload:   %s (H.264 level %s), %d B/frame (%.2f GB/s required)\n",
		res.Format, res.Level.Number, res.FrameBytes, res.RequiredBandwidth.GBps())
	fmt.Printf("memory:     %d channel(s) @ %v, %s, %s, %s, power-down %v\n",
		res.Channels, res.Freq, mc.Mux, mc.Policy, deviceName(mc.Device), !mc.DisablePowerDown)
	fmt.Printf("access:     %v per frame (budget %v)  ->  %s\n",
		res.AccessTime, res.FramePeriod, res.Verdict)
	if res.Estimated {
		fmt.Printf("fidelity:   analytic estimate (%s tier; error-bounded closed form, not simulated)\n", tier)
	}
	fmt.Printf("bandwidth:  %.2f GB/s achieved of %.2f GB/s peak (efficiency %.3f)\n",
		res.AchievedBandwidth.GBps(), res.PeakBandwidth.GBps(), res.Efficiency)
	if res.Estimated {
		fmt.Printf("power:      %.1f mW total (interface split not computed)\n",
			res.TotalPower.Milliwatts())
	} else {
		fmt.Printf("power:      %.1f mW total (interface %.1f mW)\n",
			res.TotalPower.Milliwatts(), res.InterfacePower.Milliwatts())
		fmt.Printf("activity:   %s\n", res.Totals)
	}
	if perChan {
		for i, b := range res.PerChannel {
			fmt.Printf("  channel %d: %.2f mW (bg %.3f mJ, act %.3f mJ, rw %.3f mJ, ref %.3f mJ, io %.3f mJ)\n",
				i, b.AveragePower().Milliwatts(),
				b.Background.Millijoules(), b.Activate.Millijoules(),
				b.ReadWrite.Millijoules(), b.Refresh.Millijoules(), b.Interface.Millijoules())
		}
	}
	if latency && res.Latency != nil {
		fmt.Printf("latency:    %s cycles (p50<=%d p99<=%d)\n",
			res.Latency, res.Latency.Quantile(0.5), res.Latency.Quantile(0.99))
	}
	return res.SimulatedCycles
}

// runStages re-runs the frame stage by stage on a fresh system and prints
// each stage's share. When checked, that system gets a protocol checker
// of its own: its clock restarts at zero, so the point run's checker
// cannot follow it.
func runStages(w core.Workload, mc core.MemoryConfig, checked bool) {
	var set *check.Set
	if checked {
		var err error
		if set, err = core.AttachChecker(&mc); err != nil {
			cli.Fatal(err)
		}
	}
	sres, err := core.SimulateStages(w, mc)
	if err != nil {
		cli.Fatal(err)
	}
	if set != nil {
		if err := cli.Violations(set, "stages"); err != nil {
			cli.Fatal(err)
		}
	}
	fmt.Println("per-stage attribution:")
	for _, s := range sres {
		fmt.Printf("  %-22s %10d B  %10.3f ms  %8.3f mJ  eff %.2f\n",
			s.Name, s.Bytes, s.Time.Milliseconds(), s.Energy.Millijoules(), s.Efficiency)
	}
}

// manifest starts the observed run's manifest with the fields both run
// kinds record.
func manifest(mc core.MemoryConfig, fraction float64, res core.Result) probe.Manifest {
	man := probe.NewManifest(cli.Name)
	man.Channels = res.Channels
	man.FreqMHz = float64(res.Freq) / float64(units.MHz)
	man.SampleFraction = fraction
	man.Config = map[string]any{
		"mux": mc.Mux.String(), "page_policy": mc.Policy.String(),
		"device": deviceName(mc.Device), "powerdown": !mc.DisablePowerDown,
	}
	man.Workload = map[string]any{
		"format": res.Format.Name, "level": res.Level.Number,
		"frame_bytes": res.FrameBytes,
	}
	return man
}

// deviceName spells the -device selection for reports; the empty string
// is the paper baseline.
func deviceName(device string) string {
	d, _ := dram.Device(device) // validated while parsing
	return d.Name
}

// runDegraded executes the fault-injected degraded-mode run and prints its
// QoS report plus the per-frame timeline. It returns the simulated cycle
// count for the run summary.
func runDegraded(w core.Workload, mc core.MemoryConfig, observed *cli.Observed, frames int, fraction float64, qosOut string) int64 {
	start := time.Now()
	res, err := core.SimulateDegraded(w, mc, frames)
	if err != nil {
		cli.Fatal(err)
	}
	man := manifest(mc, fraction, res.Result)
	man.Config["fault_plan"] = fmt.Sprintf("%+v", *mc.Faults)
	man.Workload["frames"] = frames
	if err := observed.Write(man, res.SimulatedCycles, time.Since(start)); err != nil {
		cli.Fatal(err)
	}

	fmt.Printf("workload:   %s (H.264 level %s), %d B/frame, %d frame slot(s)\n",
		res.Format, res.Level.Number, res.FrameBytes, frames)
	fmt.Printf("memory:     %d channel(s) @ %v, fault plan %+v\n", res.Channels, res.Freq, *mc.Faults)
	fmt.Printf("verdict:    %s (final level %d, final format %s)\n", res.Verdict, res.FinalLevel, res.FinalFormat.Name)
	fmt.Printf("power:      %.1f mW total (interface %.1f mW)\n",
		res.TotalPower.Milliwatts(), res.InterfacePower.Milliwatts())
	fmt.Println("frames:")
	for _, fr := range res.PerFrame {
		status := "ok"
		switch {
		case fr.Dropped:
			status = "dropped"
		case fr.Missed:
			status = "MISS"
		case fr.Late:
			status = "late"
		}
		completed := "-"
		if !fr.Dropped {
			completed = fmt.Sprintf("%d", fr.Completed)
		}
		fmt.Printf("  frame %2d  level %d  deadline %10d  completed %10s  %s\n",
			fr.Frame, fr.Level, fr.Deadline, completed, status)
	}
	report := res.QoS.Report()
	fmt.Print(report)
	if qosOut != "" {
		if err := os.WriteFile(qosOut, []byte(report), 0o644); err != nil {
			cli.Fatal(err)
		}
		fmt.Printf("qos report: wrote %s\n", qosOut)
	}
	return res.SimulatedCycles
}
