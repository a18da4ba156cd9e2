// Package repro's benchmarks regenerate every table and figure of the
// reproduced paper and report the paper's headline quantities as custom
// benchmark metrics (ms/frame access times, mW powers, channel efficiency),
// so `go test -bench=. -benchmem` doubles as the full evaluation harness.
//
// Mapping to the paper's artifacts (see DESIGN.md section 4):
//
//	BenchmarkTableI          -> Table I
//	BenchmarkFig3            -> Fig. 3
//	BenchmarkFig4Matrix      -> Fig. 4 (and the data behind Fig. 5)
//	BenchmarkFig5Power       -> Fig. 5 anchors
//	BenchmarkXDR             -> the XDR comparison
//	BenchmarkAddressMapping  -> ablation A1 (RBC vs BRC)
//	BenchmarkPowerDown       -> ablation A2
//	BenchmarkPagePolicy      -> ablation A3
//	BenchmarkChannelScaling  -> the "close to 2x" scaling claim
//	BenchmarkRawChannel      -> simulator throughput (engineering metric)
//	BenchmarkPolicyRun       -> memsys.Run cost per scheduling policy
//	BenchmarkFrameDispatch   -> frame source + memsys.Run cost per channel count
//	BenchmarkSimulate        -> end-to-end point cost, uncached vs cached
//	BenchmarkFullFormatMatrix-> whole-artifact cost, uncached vs cached
//	BenchmarkGeometrySweep   -> extension G1 (device organization)
//	BenchmarkSustained       -> extension S1 (paced multi-frame recording)
//	BenchmarkWriteBuffer     -> extension A4 (posted-write buffer)
//	BenchmarkOperatingPoints -> extension D1 (DVFS operating points)
//	BenchmarkInterleave      -> extension T2 (Table II granularity)
package repro_test

import (
	"fmt"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/load"
	"repro/internal/mapping"
	"repro/internal/memsys"
	"repro/internal/metrics"
	"repro/internal/probe"
	"repro/internal/units"
	"repro/internal/usecase"
)

// benchFraction keeps bench iterations affordable; results extrapolate
// linearly (the load is homogeneous — see core.Workload.SampleFraction).
const benchFraction = 0.05

func simulate(b *testing.B, format string, channels int, freq units.Frequency, mutate func(*core.MemoryConfig)) core.Result {
	b.Helper()
	w, err := core.WorkloadFor(format)
	if err != nil {
		b.Fatal(err)
	}
	w.SampleFraction = benchFraction
	mc := core.PaperMemory(channels, freq)
	if mutate != nil {
		mutate(&mc)
	}
	res, err := core.Simulate(w, mc)
	if err != nil {
		b.Fatal(err)
	}
	return res
}

// BenchmarkTableI regenerates Table I and reports the three prose bandwidth
// anchors as metrics.
func BenchmarkTableI(b *testing.B) {
	var cols []core.TableIColumn
	for i := 0; i < b.N; i++ {
		var err error
		cols, err = core.RunTableI(usecase.Params{})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cols[0].Bandwidth.GBps(), "720p30_GB/s")
	b.ReportMetric(cols[2].Bandwidth.GBps(), "1080p30_GB/s")
	b.ReportMetric(cols[3].Bandwidth.GBps(), "1080p60_GB/s")
}

// BenchmarkFig3 regenerates Fig. 3 (access time vs clock, 720p30) and
// reports the single-channel end points.
func BenchmarkFig3(b *testing.B) {
	var points []core.FigPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = core.RunFig3(core.RunOptions{SampleFraction: benchFraction})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Channels == 1 && p.Freq == 200*units.MHz {
			b.ReportMetric(p.Result.AccessTime.Milliseconds(), "1ch200MHz_ms")
		}
		if p.Channels == 1 && p.Freq == 400*units.MHz {
			b.ReportMetric(p.Result.AccessTime.Milliseconds(), "1ch400MHz_ms")
		}
	}
}

// BenchmarkFig4Matrix regenerates the format-vs-channels matrix of figures 4
// and 5 and reports the 1080p30 access times.
func BenchmarkFig4Matrix(b *testing.B) {
	var points []core.FigPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = core.RunFormatMatrix(core.RunOptions{SampleFraction: benchFraction})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Format == "1080p30" && (p.Channels == 2 || p.Channels == 4) {
			b.ReportMetric(p.Result.AccessTime.Milliseconds(),
				map[int]string{2: "1080p30_2ch_ms", 4: "1080p30_4ch_ms"}[p.Channels])
		}
	}
}

// BenchmarkFig5Power reports the paper's four power anchors.
func BenchmarkFig5Power(b *testing.B) {
	anchors := []struct {
		format   string
		channels int
		metric   string
	}{
		{"720p30", 1, "720p30_1ch_mW"},
		{"720p30", 8, "720p30_8ch_mW"},
		{"1080p30", 4, "1080p30_4ch_mW"},
		{"2160p30", 8, "2160p30_8ch_mW"},
	}
	for i := 0; i < b.N; i++ {
		for _, a := range anchors {
			res := simulate(b, a.format, a.channels, 400*units.MHz, nil)
			if i == b.N-1 {
				b.ReportMetric(res.TotalPower.Milliwatts(), a.metric)
			}
		}
	}
}

// BenchmarkXDR regenerates the XDR comparison and reports the power-ratio
// range (paper: 4 % to 25 %).
func BenchmarkXDR(b *testing.B) {
	var cmp core.XDRComparison
	for i := 0; i < b.N; i++ {
		var err error
		cmp, err = core.RunXDRComparison(core.RunOptions{SampleFraction: benchFraction})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(cmp.MinRatio*100, "min_%of_XDR")
	b.ReportMetric(cmp.MaxRatio*100, "max_%of_XDR")
}

// BenchmarkAddressMapping is ablation A1: RBC vs BRC on 1080p30/4ch.
func BenchmarkAddressMapping(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rbc := simulate(b, "1080p30", 4, 400*units.MHz, nil)
		brc := simulate(b, "1080p30", 4, 400*units.MHz, func(mc *core.MemoryConfig) {
			mc.Mux = mapping.BRC
		})
		if i == b.N-1 {
			b.ReportMetric(rbc.AccessTime.Milliseconds(), "RBC_ms")
			b.ReportMetric(brc.AccessTime.Milliseconds(), "BRC_ms")
		}
	}
}

// BenchmarkPowerDown is ablation A2: power-down vs always-standby.
func BenchmarkPowerDown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		on := simulate(b, "720p30", 8, 400*units.MHz, nil)
		off := simulate(b, "720p30", 8, 400*units.MHz, func(mc *core.MemoryConfig) {
			mc.DisablePowerDown = true
		})
		if i == b.N-1 {
			b.ReportMetric(on.TotalPower.Milliwatts(), "powerdown_mW")
			b.ReportMetric(off.TotalPower.Milliwatts(), "standby_mW")
		}
	}
}

// BenchmarkPagePolicy is ablation A3: open vs closed page.
func BenchmarkPagePolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		open := simulate(b, "720p30", 1, 400*units.MHz, nil)
		closed := simulate(b, "720p30", 1, 400*units.MHz, func(mc *core.MemoryConfig) {
			mc.Policy = controller.ClosedPage
		})
		if i == b.N-1 {
			b.ReportMetric(open.AccessTime.Milliseconds(), "open_ms")
			b.ReportMetric(closed.AccessTime.Milliseconds(), "closed_ms")
		}
	}
}

// BenchmarkChannelScaling measures the speedup of channel doubling
// (paper: "close to 2x").
func BenchmarkChannelScaling(b *testing.B) {
	var t1, t8 float64
	for i := 0; i < b.N; i++ {
		t1 = simulate(b, "720p30", 1, 400*units.MHz, nil).AccessTime.Milliseconds()
		t8 = simulate(b, "720p30", 8, 400*units.MHz, nil).AccessTime.Milliseconds()
	}
	b.ReportMetric(t1/t8, "1ch_vs_8ch_speedup")
}

// BenchmarkSimulate measures one end-to-end core.Simulate call — workload
// synthesis through the memory subsystem to the assembled Result — with
// the result cache off. In steady state the subsystem and generator come
// from the per-configuration pools (revived via Reset), so allocs/op is
// dominated by result assembly; ci.sh gates it against the "# allocs"
// entry in results/BENCH_FLOOR.
func BenchmarkSimulate(b *testing.B) {
	core.DisableCache()
	w, err := core.WorkloadFor("720p30")
	if err != nil {
		b.Fatal(err)
	}
	w.SampleFraction = benchFraction
	mc := core.PaperMemory(2, 400*units.MHz)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(w, mc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulateCached serves the same point from a warm in-process
// result cache: every iteration is a content-addressed key computation
// plus a memoization-table hit. The ratio to BenchmarkSimulate is the
// cache's speedup on a repeated point (the PR targets >= 10x).
func BenchmarkSimulateCached(b *testing.B) {
	cache := core.NewSimCache()
	core.EnableCache(cache)
	defer core.DisableCache()
	w, err := core.WorkloadFor("720p30")
	if err != nil {
		b.Fatal(err)
	}
	w.SampleFraction = benchFraction
	mc := core.PaperMemory(2, 400*units.MHz)
	if _, err := core.Simulate(w, mc); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.Simulate(w, mc); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if st := cache.Stats(); st.MemHits == 0 || st.Simulated != 1 {
		b.Fatalf("cache stats %+v: the timed loop must be all hits", st)
	}
}

// BenchmarkFullFormatMatrix times the complete Fig. 4/5 experiment (every
// format at every channel count) with the cache off — the uncached
// end-to-end baseline for a whole paper artifact.
func BenchmarkFullFormatMatrix(b *testing.B) {
	core.DisableCache()
	opt := core.RunOptions{SampleFraction: benchFraction}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFormatMatrix(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFullFormatMatrixCached is the same experiment against a warm
// cache — the steady-state cost of regenerating an artifact once its
// points are resident (what `paper -all` pays for each artifact that
// shares the format matrix).
func BenchmarkFullFormatMatrixCached(b *testing.B) {
	core.EnableCache(core.NewSimCache())
	defer core.DisableCache()
	opt := core.RunOptions{SampleFraction: benchFraction}
	if _, err := core.RunFormatMatrix(opt); err != nil { // warm the cache
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RunFormatMatrix(opt); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAnalyticResult measures the closed-form estimator alone — the
// cost of answering one point at fast fidelity, which is also the unit
// cost of an auto-tier sweep that never falls back. ci.sh gates its
// allocations against results/BENCH_FLOOR.
func BenchmarkAnalyticResult(b *testing.B) {
	core.DisableCache()
	w, err := core.WorkloadFor("720p30")
	if err != nil {
		b.Fatal(err)
	}
	w.SampleFraction = benchFraction
	mc := core.PaperMemory(2, 400*units.MHz)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.AnalyticResult(w, mc); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAutoSweep answers the full paper grid (every format x channel
// count x frequency) at auto fidelity with the cache off — the cache-cold
// cost of the calibrated fast path. On the calibrated grid every point is
// served analytically, so the ratio to BenchmarkFullFormatMatrix is the
// sweep-level speedup the PR claims; fallbacks/op reports how many points
// had to fall back to the cycle-accurate simulator (0 on the shipped
// envelope).
func BenchmarkAutoSweep(b *testing.B) {
	core.DisableCache()
	formats := core.PaperFormats()
	// The embedded envelope is calibrated at fraction 0.1; auto serves
	// analytically only when the fractions match.
	const fraction = 0.1
	var fallbacks int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fallbacks = 0
		for _, f := range formats {
			w, err := core.WorkloadFor(f)
			if err != nil {
				b.Fatal(err)
			}
			w.SampleFraction = fraction
			for _, ch := range core.PaperChannels {
				for _, mhz := range core.PaperFreqsMHz {
					mc := core.PaperMemory(ch, units.Frequency(mhz)*units.MHz)
					res, err := core.SimulateAuto(w, mc, core.FidelityAuto)
					if err != nil {
						b.Fatal(err)
					}
					if !res.Estimated {
						fallbacks++
					}
				}
			}
		}
	}
	b.ReportMetric(float64(fallbacks), "fallbacks/op")
}

// rawRun drives the saturated 4 MiB sequential read stream through a
// 4-channel system built from the (possibly mutated) paper configuration —
// the shared core of the simulator-throughput benchmarks below.
func rawRun(b *testing.B, mutate func(*memsys.Config)) {
	b.Helper()
	cfg := memsys.PaperConfig(4, 400*units.MHz)
	if mutate != nil {
		mutate(&cfg)
	}
	sys, err := memsys.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const bytes = 4 << 20
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
		if _, err := sys.Run(memsys.NewSliceSource([]memsys.Request{{Addr: 0, Bytes: bytes}})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRawChannel measures the simulator's own throughput: bursts
// simulated per second on a saturated sequential read stream, on the
// default (serial, burst-coalesced) dispatch path. ci.sh gates this
// number against the floor in results/BENCH_FLOOR.
func BenchmarkRawChannel(b *testing.B) {
	rawRun(b, nil)
}

// BenchmarkPerBurstRun is the same stream with coalescing disabled — the
// pre-optimization per-burst dispatch loop, kept measurable so the gain
// (and the cost of the probe/fault fallback path) stays visible.
func BenchmarkPerBurstRun(b *testing.B) {
	rawRun(b, func(cfg *memsys.Config) { cfg.NoCoalesce = true })
}

// BenchmarkCoalescedRun pins the burst-coalesced fast path explicitly
// (independent of the config default), for before/after comparison with
// BenchmarkPerBurstRun.
func BenchmarkCoalescedRun(b *testing.B) {
	rawRun(b, func(cfg *memsys.Config) { cfg.NoCoalesce = false })
}

// BenchmarkPolicyRun measures memsys.Run on real recording traffic under
// every scheduling policy, the open-page baseline first: one 1080p30 frame
// sampled at fraction 0.02 from the load generator, on 2 channels at
// 400 MHz, with the subsystem revived by Reset between iterations. Throughput is payload
// bytes per second; ci.sh gates its allocations against the "# allocs"
// entries in results/BENCH_FLOOR.
func BenchmarkPolicyRun(b *testing.B) {
	w, err := core.WorkloadFor("1080p30")
	if err != nil {
		b.Fatal(err)
	}
	uc, err := usecase.New(w.Profile, usecase.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	gen, err := load.New(uc, 2, dram.DefaultGeometry(), w.Load)
	if err != nil {
		b.Fatal(err)
	}
	src, err := gen.Frame(0.02)
	if err != nil {
		b.Fatal(err)
	}
	var reqs []memsys.Request
	var bytes int64
	for r, ok := src.Next(); ok; r, ok = src.Next() {
		reqs = append(reqs, r)
		bytes += r.Bytes
	}
	for _, pol := range controller.Policies() {
		b.Run(pol.String(), func(b *testing.B) {
			cfg := memsys.PaperConfig(2, 400*units.MHz)
			cfg.Policy = pol
			sys, err := memsys.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			b.SetBytes(bytes)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				sys.Reset()
				if _, err := sys.Run(memsys.NewSliceSource(reqs)); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFrameDispatch measures the dispatch front end together with the
// load model feeding it: memsys.Run on one 1080p30 frame sampled at
// fraction 0.02, open page at 400 MHz, on 1, 2, 4 and 8 channels, drawing
// a fresh gen.Frame source on every iteration so the frame source's pacing
// and address arithmetic are timed too (BenchmarkPolicyRun replays a
// SliceSource on 2 channels and sees neither the source nor the channel
// count). Throughput is payload bytes per second; ci.sh gates its
// allocations against the "# allocs" entries in results/BENCH_FLOOR.
func BenchmarkFrameDispatch(b *testing.B) {
	w, err := core.WorkloadFor("1080p30")
	if err != nil {
		b.Fatal(err)
	}
	uc, err := usecase.New(w.Profile, usecase.DefaultParams())
	if err != nil {
		b.Fatal(err)
	}
	for _, channels := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("%dch", channels), func(b *testing.B) {
			gen, err := load.New(uc, channels, dram.DefaultGeometry(), w.Load)
			if err != nil {
				b.Fatal(err)
			}
			sys, err := memsys.New(memsys.PaperConfig(channels, 400*units.MHz))
			if err != nil {
				b.Fatal(err)
			}
			run := func() memsys.Result {
				sys.Reset()
				src, err := gen.Frame(0.02)
				if err != nil {
					b.Fatal(err)
				}
				res, err := sys.Run(src)
				if err != nil {
					b.Fatal(err)
				}
				return res
			}
			res := run()
			b.SetBytes(res.BytesRead + res.BytesWritten)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				run()
			}
		})
	}
}

// probeBenchRun drives one saturated 4 MiB stream through a 4-channel
// system with the given per-channel sink factory and returns bursts/sec
// via the benchmark's byte counter.
func probeBenchRun(b *testing.B, newProbe func(ch int) probe.Sink) {
	b.Helper()
	cfg := memsys.PaperConfig(4, 400*units.MHz)
	cfg.NewProbe = newProbe
	sys, err := memsys.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	const bytes = 4 << 20
	b.SetBytes(bytes)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Reset()
		if _, err := sys.Run(memsys.NewSliceSource([]memsys.Request{{Addr: 0, Bytes: bytes}})); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHostCalibration is a simulator-independent CPU baseline: a
// fixed xorshift-and-sum pass over a 4 MiB buffer. ci.sh compares its
// MB/s against the reference recorded in results/BENCH_FLOOR ("# calib"
// line) to tell a slow host apart from a simulator regression — when the
// host itself is detectably slower than the machine that recorded the
// floor, the absolute BenchmarkRawChannel gate downgrades to a warning.
func BenchmarkHostCalibration(b *testing.B) {
	buf := make([]uint64, 512<<10) // 4 MiB
	for i := range buf {
		buf[i] = uint64(i)*0x9e3779b97f4a7c15 + 1
	}
	b.SetBytes(int64(len(buf) * 8))
	var sink uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := sink
		for _, v := range buf {
			s ^= v
			s = s*6364136223846793005 + 1442695040888963407
		}
		sink = s
	}
	if sink == 42 {
		b.Log(sink) // keep the loop observable
	}
}

// BenchmarkProbeDisabledOverhead measures the observability layer's cost
// when no sink is attached — the nil-check fast path every simulation
// pays. Compare its MB/s against BenchmarkRawChannel (identical workload,
// probe field never set): the two must stay within the run-to-run noise
// (the PR keeps this under 2% of the seed throughput; ci.sh prints both).
func BenchmarkProbeDisabledOverhead(b *testing.B) {
	probeBenchRun(b, nil)
}

// BenchmarkProbeCountingSink is the enabled floor: the cheapest real sink
// (one array increment per event) quantifies the cost of the event stream
// itself, as opposed to any particular collector.
func BenchmarkProbeCountingSink(b *testing.B) {
	counts := make([]*probe.Count, 4)
	probeBenchRun(b, func(ch int) probe.Sink {
		counts[ch] = &probe.Count{}
		return counts[ch]
	})
	var total int64
	for _, c := range counts {
		if c != nil {
			total += c.Total()
		}
	}
	b.ReportMetric(float64(total)/float64(b.N), "events/op")
}

// BenchmarkMetricsDisabledOverhead measures the run-level metrics layer's
// cost when no registry is enabled — the nil-check fast path on the same
// saturated stream as BenchmarkRawChannel (identical workload; the meter
// pointer is loaded once per Run and once per coalesced batch). ci.sh
// compares the two MB/s numbers at the same 2% limit as the probe layer.
func BenchmarkMetricsDisabledOverhead(b *testing.B) {
	core.EnableMetrics(nil)
	rawRun(b, nil)
}

// BenchmarkMetricsEnabledRaw is the enabled counterpart: a live registry
// attached while the same stream runs, so the delta to
// BenchmarkMetricsDisabledOverhead is the whole cost of counting (two
// atomic ops per coalesced batch plus one counter per Run).
func BenchmarkMetricsEnabledRaw(b *testing.B) {
	core.EnableMetrics(metrics.NewRegistry())
	defer core.EnableMetrics(nil)
	rawRun(b, nil)
}

// BenchmarkGeometrySweep runs the device-organization sensitivity sweep and
// reports the spread.
func BenchmarkGeometrySweep(b *testing.B) {
	var points []core.GeometryPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = core.RunGeometrySweep(core.RunOptions{SampleFraction: benchFraction})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(core.GeometrySpread(points)*100, "spread_%")
}

// BenchmarkSustained runs the paced multi-frame simulation and reports the
// realistic sustained power against the frame-burst estimate.
func BenchmarkSustained(b *testing.B) {
	w, err := core.WorkloadFor("720p30")
	if err != nil {
		b.Fatal(err)
	}
	w.SampleFraction = benchFraction
	var res core.SustainedResult
	for i := 0; i < b.N; i++ {
		res, err = core.SimulateSustained(w, core.PaperMemory(4, 400*units.MHz), 2)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(res.TotalPower.Milliwatts(), "sustained_mW")
	b.ReportMetric(res.PowerDownResidency*100, "pd_residency_%")
}

// BenchmarkWriteBuffer reports the posted-write-buffer extension's gain.
func BenchmarkWriteBuffer(b *testing.B) {
	var base, buf core.Result
	for i := 0; i < b.N; i++ {
		base = simulate(b, "720p30", 1, 400*units.MHz, nil)
		buf = simulate(b, "720p30", 1, 400*units.MHz, func(mc *core.MemoryConfig) {
			mc.WriteBufferDepth = 32
		})
	}
	b.ReportMetric(base.AccessTime.Milliseconds(), "baseline_ms")
	b.ReportMetric(buf.AccessTime.Milliseconds(), "buffered_ms")
}

// BenchmarkOperatingPoints runs the DVFS operating-point sweep and reports
// the 8-channel 720p30 saving.
func BenchmarkOperatingPoints(b *testing.B) {
	var points []core.OperatingPoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = core.RunOperatingPoints(core.RunOptions{SampleFraction: 0.02})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, p := range points {
		if p.Format == "720p30" && p.Channels == 8 {
			b.ReportMetric(p.Saving*100, "720p30_8ch_saving_%")
		}
	}
}

// BenchmarkInterleave runs the Table II granularity sweep and reports the
// isolated-transaction latency ratio between the coarsest and the paper's
// 16-byte interleave.
func BenchmarkInterleave(b *testing.B) {
	var points []core.InterleavePoint
	for i := 0; i < b.N; i++ {
		var err error
		points, err = core.RunInterleaveSweep(core.RunOptions{SampleFraction: benchFraction})
		if err != nil {
			b.Fatal(err)
		}
	}
	first, last := points[0], points[len(points)-1]
	b.ReportMetric(last.IsolatedLatency.Seconds()/first.IsolatedLatency.Seconds(), "latency_ratio_256B_vs_16B")
}
