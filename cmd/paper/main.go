// Command paper regenerates every table and figure of the reproduced paper
// ("A case for multi-channel memories in video recording", DATE 2009):
// Table I (per-stage memory bandwidth), Fig. 3 (access time vs clock),
// Fig. 4 (access time vs frame format), Fig. 5 (power vs frame format with
// the interface share), the XDR comparison, and the design-choice ablations.
//
// Usage:
//
//	paper                 # everything
//	paper -only table1    # one artifact: table1, fig3, fig4, fig5, xdr, ablations
//	paper -csv            # machine-readable output
//	paper -fraction 1.0   # full-frame simulation (slower, default 0.2)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/probe"
	"repro/internal/report"
	"repro/internal/units"
	"repro/internal/usecase"
)

func init() { cli.Name = "paper" }

// artifacts are the paper's tables and figures, in rendering order.
var artifacts = []struct {
	name string
	run  func(core.RunOptions) (*report.Table, error)
}{
	{"table1", tableI},
	{"fig3", fig3},
	{"fig4", fig4},
	{"fig5", fig5},
	{"xdr", xdrTable},
	{"ablations", ablations},
	{"geometry", geometry},
	{"operating", operating},
	{"interleave", interleave},
	{"faults", faults},
}

func main() {
	fs := flag.CommandLine
	var (
		only = flag.String("only", "", "render one artifact: table1, fig3, fig4, fig5, xdr, ablations, geometry, operating, interleave, faults")
		csv  = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		dir  = flag.String("dir", "", "also write each artifact to <dir>/<name>.txt (or .csv)")
		jobs int
	)
	model := cli.ModelFlags(fs, "0.2", false)
	cli.JobsFlag(fs, &jobs)
	observed := cli.ObservedFlags(fs)
	run := cli.RunFlags(fs)
	run.ProgressFlag(fs)
	var cache cli.Cache
	cache.OffFlag(fs)
	flag.Parse()
	opt := core.RunOptions{SampleFraction: model.Fraction, Jobs: jobs, Policy: model.PagePolicy(), Device: model.Device}

	// Run-level observability: the registry exists only when a flag
	// consumes it (stdout stays byte-identical either way), and the phase
	// span recorder rides along with -trace-out so the Perfetto document
	// shows where the host time of the whole run went.
	defer run.Start()()
	defer observed.StartSpans()()

	// The artifacts overlap heavily (the format matrix alone backs both
	// Fig. 4 and Fig. 5, and the XDR rows reuse its 8-channel points), so a
	// process-wide content-addressed cache simulates each distinct point
	// once. Observed runs (-check, -trace-out, -metrics-out, faults) bypass
	// it automatically.
	defer cache.Enable(true)()
	prog := run.StartProgress()
	ran := false
	for _, a := range artifacts {
		if *only != "" && *only != a.name {
			continue
		}
		ran = true
		t, err := a.run(opt)
		if err != nil {
			cli.Fatal(err)
		}
		if err := render(os.Stdout, t, *csv); err != nil {
			cli.Fatal(err)
		}
		fmt.Println()
		if *dir != "" {
			if err := writeArtifact(*dir, a.name, t, *csv); err != nil {
				cli.Fatal(err)
			}
		}
	}
	prog.Stop()
	if !ran {
		cli.Fatal(fmt.Errorf("unknown artifact %q", *only))
	}
	if err := flagship(observed, model.Fraction); err != nil {
		cli.Fatal(err)
	}
	man := probe.NewManifest(cli.Name)
	man.SampleFraction = model.Fraction
	man.Config = map[string]any{
		"only": *only, "csv": *csv, "jobs": jobs,
		"policy": opt.Policy.String(), "device": model.Device,
	}
	run.WriteSummary(man, 0)
}

// flagship runs the paper's flagship configuration (1080p30 on 4 channels
// at 400 MHz, the abstract's headline data point) observed as
// -trace-out, -metrics-out and -check ask, writing the outputs with their
// manifest and reporting the checker's verdict. With none of them set it
// does nothing.
func flagship(observed *cli.Observed, fraction float64) error {
	if !observed.Enabled() && !observed.Check {
		return nil
	}
	w, err := core.WorkloadFor("1080p30")
	if err != nil {
		return err
	}
	w.SampleFraction = fraction
	mc := core.PaperMemory(4, 400*units.MHz)
	if err := observed.Attach(&mc); err != nil {
		return err
	}
	start := time.Now()
	res, err := core.Simulate(w, mc)
	if err != nil {
		return err
	}
	man := probe.NewManifest(cli.Name)
	man.Channels = res.Channels
	man.FreqMHz = float64(res.Freq) / float64(units.MHz)
	man.SampleFraction = fraction
	man.Config["flagship"] = true
	man.Workload = map[string]any{
		"format": res.Format.Name, "level": res.Level.Number,
		"frame_bytes": res.FrameBytes,
	}
	if err := observed.Write(man, res.SimulatedCycles, time.Since(start)); err != nil {
		return err
	}
	return observed.Verify("check: flagship run verified against the device timing constraints")
}

// writeArtifact saves one rendered artifact under dir.
func writeArtifact(dir, name string, t *report.Table, csv bool) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	ext := ".txt"
	if csv {
		ext = ".csv"
	}
	f, err := os.Create(filepath.Join(dir, name+ext))
	if err != nil {
		return err
	}
	defer f.Close()
	return render(f, t, csv)
}

// render writes t as CSV or as an aligned table.
func render(w io.Writer, t *report.Table, csv bool) error {
	if csv {
		return t.RenderCSV(w)
	}
	return t.Render(w)
}

// tableI renders Table I: memory bandwidth requirement for the stages of
// the video recording use case (M = 10^6, values in Mbit per frame).
func tableI(core.RunOptions) (*report.Table, error) {
	cols, err := core.RunTableI(usecase.Params{})
	if err != nil {
		return nil, err
	}
	t := report.NewTable("TABLE I. Memory bandwidth requirement for the video recording use case (Mb per frame unless noted)")
	headers := []string{"row"}
	for _, c := range cols {
		headers = append(headers, fmt.Sprintf("L%s %s", c.Level.Number, c.Format.Name))
	}
	t.Headers = headers

	addStat := func(name string, f func(core.TableIColumn) string) {
		row := []string{name}
		for _, c := range cols {
			row = append(row, f(c))
		}
		t.AddRow(row...)
	}
	addStat("Width [pel]", func(c core.TableIColumn) string { return fmt.Sprint(c.Format.Width) })
	addStat("Height [pel]", func(c core.TableIColumn) string { return fmt.Sprint(c.Format.Height) })
	addStat("Limits [fps]", func(c core.TableIColumn) string { return fmt.Sprint(c.Format.FPS) })
	addStat("Max bitrate [Mb/s]", func(c core.TableIColumn) string {
		return fmt.Sprintf("%.0f", c.Level.MaxBitrate.Megabits())
	})
	addStat("Nb of reference frames", func(c core.TableIColumn) string { return fmt.Sprint(c.ReferenceFrames) })
	for id := 0; id < usecase.NumStages; id++ {
		sid := usecase.StageID(id)
		addStat(sid.String()+" [Mb]", func(c core.TableIColumn) string {
			return fmt.Sprintf("%.1f", c.Stages[sid].TotalBits().Megabits())
		})
	}
	addStat("Image proc. total (1 frame) [Mb]", func(c core.TableIColumn) string {
		return fmt.Sprintf("%.1f", c.ImageTotal.Megabits())
	})
	addStat("Video coding total (1 frame) [Mb]", func(c core.TableIColumn) string {
		return fmt.Sprintf("%.1f", c.CodingTotal.Megabits())
	})
	addStat("Data Mem. load (1 frame) [Mb]", func(c core.TableIColumn) string {
		return fmt.Sprintf("%.1f", c.FrameTotal.Megabits())
	})
	addStat("Data Mem. load (1 s) [Mb]", func(c core.TableIColumn) string {
		return fmt.Sprintf("%.0f", c.PerSecond.Megabits())
	})
	addStat("Data Mem. load [MB/s]", func(c core.TableIColumn) string {
		return fmt.Sprintf("%.0f", c.Bandwidth.MBps())
	})
	return t, nil
}

// fig3 renders Fig. 3: effect of memory clock frequency on access time, one
// 720p30 frame, with the 30 fps real-time line.
func fig3(opt core.RunOptions) (*report.Table, error) {
	points, err := core.RunFig3(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 3. Access time vs clock frequency (one 720p30 frame encoded; real-time req. 33.3 ms)",
		"channels", "clock", "access time [ms]", "verdict", "")
	for _, p := range points {
		t.AddRow(
			fmt.Sprint(p.Channels),
			p.Freq.String(),
			fmt.Sprintf("%.2f", p.Result.AccessTime.Milliseconds()),
			p.Result.Verdict.String(),
			report.Bar(p.Result.AccessTime.Milliseconds(), 50, 40),
		)
	}
	return t, nil
}

// fig4 renders Fig. 4: effect of encoding format on access time at 400 MHz.
func fig4(opt core.RunOptions) (*report.Table, error) {
	points, err := core.RunFormatMatrix(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 4. Access time vs frame format (400 MHz; real-time req. 33.3 ms @30fps, 16.7 ms @60fps)",
		"format", "channels", "access time [ms]", "budget [ms]", "verdict", "")
	for _, p := range points {
		t.AddRow(
			p.Format,
			fmt.Sprint(p.Channels),
			fmt.Sprintf("%.2f", p.Result.AccessTime.Milliseconds()),
			fmt.Sprintf("%.1f", p.Result.FramePeriod.Milliseconds()),
			p.Result.Verdict.String(),
			report.Bar(p.Result.AccessTime.Milliseconds(), 120, 40),
		)
	}
	return t, nil
}

// fig5 renders Fig. 5: effect of encoding format on power at 400 MHz, with
// the interface power share; infeasible configurations show zero bars.
func fig5(opt core.RunOptions) (*report.Table, error) {
	points, err := core.RunFormatMatrix(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Fig. 5. Memory power vs frame format (400 MHz; zero = cannot meet real time; interface power in parentheses)",
		"format", "channels", "power [mW]", "interface [mW]", "note", "")
	for _, p := range points {
		if p.Result.Verdict == core.Infeasible {
			t.AddRow(p.Format, fmt.Sprint(p.Channels), "0", "0", "infeasible", "")
			continue
		}
		note := ""
		if p.Result.Verdict == core.Marginal {
			note = "MARGINAL"
		}
		t.AddRow(
			p.Format,
			fmt.Sprint(p.Channels),
			fmt.Sprintf("%.0f", p.Result.TotalPower.Milliwatts()),
			fmt.Sprintf("%.1f", p.Result.InterfacePower.Milliwatts()),
			note,
			report.Bar(p.Result.TotalPower.Milliwatts(), 1400, 40),
		)
	}
	return t, nil
}

// xdrTable renders the closing comparison against the Cell BE XDR memory.
func xdrTable(opt core.RunOptions) (*report.Table, error) {
	cmp, err := core.RunXDRComparison(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable(fmt.Sprintf(
		"XDR comparison: 8-channel 400 MHz mobile memory (%.1f GB/s peak) vs %s (%.1f GB/s, %v)",
		cmp.Mobile.GBps(), cmp.XDR.Name, cmp.XDR.PeakBandwidth().GBps(), cmp.XDR.TypicalPower),
		"format", "memory power [mW]", "of XDR power", "verdict")
	for _, r := range cmp.Rows {
		t.AddRow(
			r.Format,
			fmt.Sprintf("%.0f", r.MemoryPower.Milliwatts()),
			fmt.Sprintf("%.1f%%", r.Ratio*100),
			r.Verdict.String(),
		)
	}
	t.AddRow("", "", fmt.Sprintf("range %.0f%%..%.0f%%", cmp.MinRatio*100, cmp.MaxRatio*100), "")
	return t, nil
}

// ablations renders the design-choice ablations (section IV).
func ablations(opt core.RunOptions) (*report.Table, error) {
	rows, err := core.RunAblations(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Design-choice ablations (baseline = RBC, open page, power-down)",
		"ablation", "workload", "baseline", "variant", "delta")
	for _, r := range rows {
		switch r.Name {
		case "power-down vs always-standby":
			t.AddRow(r.Name, r.Workload,
				fmt.Sprintf("%.0f mW", r.Baseline.TotalPower.Milliwatts()),
				fmt.Sprintf("%.0f mW", r.Variant.TotalPower.Milliwatts()),
				pctDelta(float64(r.Variant.TotalPower), float64(r.Baseline.TotalPower)))
		default:
			t.AddRow(r.Name, r.Workload,
				fmt.Sprintf("%.2f ms", r.Baseline.AccessTime.Milliseconds()),
				fmt.Sprintf("%.2f ms", r.Variant.AccessTime.Milliseconds()),
				pctDelta(r.Variant.AccessTime.Seconds(), r.Baseline.AccessTime.Seconds()))
		}
	}
	return t, nil
}

// pctDelta formats the relative change of variant against baseline; a
// zero-duration (or zero-power) baseline — a degenerate sampled run —
// renders as "n/a" instead of dividing by zero into ±Inf/NaN.
func pctDelta(variant, baseline float64) string {
	if baseline == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.0f%%", (variant/baseline-1)*100)
}

// geometry renders the device-organization sensitivity sweep.
func geometry(opt core.RunOptions) (*report.Table, error) {
	points, err := core.RunGeometrySweep(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Device-organization sensitivity (1080p30, 4 channels @ 400 MHz; paper device: 4 banks x 2 KB rows)",
		"banks", "row size", "access time [ms]", "verdict")
	for _, p := range points {
		t.AddRow(
			fmt.Sprint(p.Banks),
			fmt.Sprintf("%d B", p.RowBytes),
			fmt.Sprintf("%.2f", p.Result.AccessTime.Milliseconds()),
			p.Result.Verdict.String(),
		)
	}
	t.AddRow("", "", fmt.Sprintf("spread %.0f%%", core.GeometrySpread(points)*100), "")
	return t, nil
}

// operating renders the DVFS operating-point table: the lowest feasible
// clock per configuration and its saving against 533 MHz.
func operating(opt core.RunOptions) (*report.Table, error) {
	points, err := core.RunOperatingPoints(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Energy-optimal operating points (lowest clock meeting real time with 15% margin)",
		"format", "channels", "min clock", "power @min", "power @533MHz", "saving")
	for _, p := range points {
		if p.MinFreq == 0 {
			t.AddRow(p.Format, fmt.Sprint(p.Channels), "none", "-", "-", "-")
			continue
		}
		t.AddRow(p.Format, fmt.Sprint(p.Channels), p.MinFreq.String(),
			fmt.Sprintf("%.0f mW", p.PowerAtMin.Milliwatts()),
			fmt.Sprintf("%.0f mW", p.PowerAtMax.Milliwatts()),
			fmt.Sprintf("%.0f%%", p.Saving*100))
	}
	return t, nil
}

// faults renders the fault-tolerance experiment (R1): 1080p30 recordings
// with a channel failing halfway through the first frame slot, showing how
// the degradation engine keeps the recorder running on the survivors.
func faults(opt core.RunOptions) (*report.Table, error) {
	const frames = 10
	t := report.NewTable("Fault tolerance: channel dropout mid-frame, degraded-mode QoS (1080p30 @ 400 MHz, 10 frame slots, seed 1)",
		"scenario", "dropped", "late", "misses", "degradation", "recovery", "final format", "power [mW]")
	scenarios := []struct {
		name     string
		channels int
		dropCh   int
	}{
		{"4 ch, 1 failed", 4, 1},
		{"2 ch, 1 failed", 2, 1},
	}
	for _, sc := range scenarios {
		w, err := core.WorkloadFor("1080p30")
		if err != nil {
			return nil, err
		}
		w.SampleFraction = opt.SampleFraction
		mc := core.PaperMemory(sc.channels, core.PaperFrequency)
		mc.Faults = &fault.Plan{
			Seed:        1,
			DropChannel: sc.dropCh,
			DropAtCycle: core.MidFirstSlot(w, core.PaperFrequency),
		}
		res, err := core.SimulateDegraded(w, mc, frames)
		if err != nil {
			return nil, err
		}
		q := res.QoS
		degradation := "none"
		if len(q.Steps) > 0 {
			degradation = fmt.Sprintf("%d step(s) to level %d", len(q.Steps), res.FinalLevel)
		}
		recovery := "never degraded"
		switch {
		case q.FirstMissFrame >= 0 && q.RecoveredFrame >= 0:
			recovery = fmt.Sprintf("frame %d (+%d)", q.RecoveredFrame, q.TimeToRecoverFrames())
		case q.FirstMissFrame >= 0:
			recovery = "not recovered"
		}
		t.AddRow(
			sc.name,
			fmt.Sprint(q.DroppedFrames),
			fmt.Sprint(q.LateFrames),
			fmt.Sprint(q.DeadlineMisses),
			degradation,
			recovery,
			res.FinalFormat.Name,
			fmt.Sprintf("%.0f", res.TotalPower.Milliwatts()),
		)
	}
	return t, nil
}

// interleave renders the Table II granularity trade-off.
func interleave(opt core.RunOptions) (*report.Table, error) {
	points, err := core.RunInterleaveSweep(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Channel-interleave granularity (Table II; paper uses the 16 B minimum burst). 1080p30, 4 ch @ 400 MHz",
		"granularity", "frame access time", "isolated 256B transaction", "verdict")
	for _, p := range points {
		t.AddRow(
			fmt.Sprintf("%d B", p.Granularity),
			fmt.Sprintf("%.2f ms", p.Result.AccessTime.Milliseconds()),
			p.IsolatedLatency.String(),
			p.Result.Verdict.String(),
		)
	}
	return t, nil
}
