package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"time"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/load"
	"repro/internal/mapping"
	"repro/internal/memsys"
	"repro/internal/power"
	"repro/internal/server"
	"repro/internal/shard"
	"repro/internal/stats"
	"repro/internal/usecase"
)

// Inner repetitions of the layer calls too short to time one by one.
const (
	keyReps      = 100
	hitReps      = 100
	decodeReps   = 100
	serverReps   = 20
	analyticReps = 10
	ownerReps    = 1000
)

// sink keeps the compiler from discarding loops whose results go unused.
var sink int

// replayed is one point answered through the public layer functions
// instead of core.Simulate.
type replayed struct {
	res      core.Result // AccessTime, TotalPower, InterfacePower, PerChannel, Totals, SimulatedCycles
	reqs     []memsys.Request
	decodes  int
	run      memsys.Result
	msc      memsys.Config
	sys      *memsys.System
	gen      *load.Generator
	fraction float64
	workload core.Workload
	memory   core.MemoryConfig
}

// replay answers one point layer by layer, recording a span per layer under
// parent: usecase.New and load.New ("load.build"), Generator.Frame drained
// into a slice ("load"), AddressMap.Decode of every burst ("mapping"),
// memsys.New ("memsys.build"), Reset and Run on a SliceSource ("memsys"),
// and the power model plus the report assembly core.Simulate does
// ("power"). It covers the paper device, which is all the workloads use.
func replay(tr *tracer, parent int64, req server.SimulateRequest) (replayed, error) {
	w, mc, err := req.Point()
	if err != nil {
		return replayed{}, err
	}
	dev, err := dram.Device(mc.Device)
	if err != nil {
		return replayed{}, err
	}
	if dev.Name != dram.PaperDevice {
		return replayed{}, fmt.Errorf("replay covers the paper device only, not %q", dev.Name)
	}
	fraction := w.SampleFraction
	if fraction == 0 {
		fraction = 1
	}
	out := replayed{workload: w, memory: mc, fraction: fraction, msc: memsys.Config{
		Channels:              mc.Channels,
		Freq:                  mc.Freq,
		Geometry:              dev.Geometry,
		Timing:                dev.Timing,
		Mux:                   mc.Mux,
		Policy:                mc.Policy,
		PowerDown:             !mc.DisablePowerDown,
		WriteBufferDepth:      mc.WriteBufferDepth,
		QueueDepth:            mc.QueueDepth,
		RefreshPostpone:       mc.RefreshPostpone,
		PrechargeOnIdle:       mc.PrechargeOnIdle,
		InterleaveGranularity: mc.InterleaveGranularity,
		Parallel:              mc.Channels > 1,
	}}
	if err := tr.timed("memsys.build", parent, parent, func() (err error) {
		out.sys, err = memsys.New(out.msc)
		return err
	}); err != nil {
		return out, err
	}
	speed := out.sys.Speed()
	if err := tr.timed("load.build", parent, parent, func() error {
		uc, err := usecase.New(w.Profile, usecase.DefaultParams())
		if err != nil {
			return err
		}
		out.gen, err = load.New(uc, mc.Channels, speed.Geometry, w.Load)
		return err
	}); err != nil {
		return out, err
	}
	if err := tr.timed("load", parent, parent, func() error {
		src, err := out.gen.Frame(fraction)
		if err != nil {
			return err
		}
		for r, ok := src.Next(); ok; r, ok = src.Next() {
			out.reqs = append(out.reqs, r)
		}
		return nil
	}); err != nil {
		return out, err
	}
	if err := tr.timed("mapping", parent, parent, func() error {
		am, err := mapping.NewAddressMap(mc.Channels, speed.Geometry, mc.Mux)
		if err != nil {
			return err
		}
		bb := speed.Geometry.BurstBytes()
		for _, r := range out.reqs {
			for a := r.Addr - r.Addr%bb; a < r.Addr+r.Bytes; a += bb {
				ch, loc := am.Decode(a)
				sink += ch + loc.Row
				out.decodes++
			}
		}
		return nil
	}); err != nil {
		return out, err
	}
	if err := tr.timed("memsys", parent, parent, func() (err error) {
		out.sys.Reset()
		out.run, err = out.sys.Run(memsys.NewSliceSource(out.reqs))
		return err
	}); err != nil {
		return out, err
	}
	err = tr.timed("power", parent, parent, func() (err error) {
		out.res, err = assemble(w, mc, speed, fraction, out.run)
		return err
	})
	return out, err
}

// assemble turns a run into the reported quantities the way core.Simulate
// does: extrapolate by the sampled fraction, then charge each channel's
// energy over the frame period (or the makespan when the frame does not
// fit).
func assemble(w core.Workload, mc core.MemoryConfig, speed dram.Speed, fraction float64, run memsys.Result) (core.Result, error) {
	scale := 1 / fraction
	cycles := int64(float64(run.Cycles) * scale)
	res := core.Result{AccessTime: speed.CycleDuration(cycles), SimulatedCycles: run.Cycles}
	window := w.Profile.Format.FramePeriod().Cycles(speed.Freq)
	window = max(window, cycles)
	pm, err := power.NewModel(power.DefaultDatasheet(), power.DefaultInterface(), speed)
	if err != nil {
		return res, err
	}
	for _, st := range run.PerChannel {
		scaled := scaleCounters(st, scale)
		scaled.BusyCycles = min(scaled.BusyCycles, window)
		b, err := pm.ChannelEnergy(scaled, window, !mc.DisablePowerDown)
		if err != nil {
			return res, err
		}
		res.PerChannel = append(res.PerChannel, b)
		res.TotalPower += b.AveragePower()
		res.InterfacePower += b.InterfacePower()
		res.Totals.Add(scaled)
	}
	return res, nil
}

// scaleCounters multiplies every counter by k, truncating like core.
func scaleCounters(st stats.Channel, k float64) stats.Channel {
	v := reflect.ValueOf(&st).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		f.SetInt(int64(float64(f.Int()) * k))
	}
	return st
}

// sameAnswer reports the first quantity where a replay differs from
// core.Simulate's answer.
func sameAnswer(got, want core.Result) error {
	switch {
	case got.AccessTime != want.AccessTime:
		return fmt.Errorf("access time %v, core %v", got.AccessTime, want.AccessTime)
	case got.TotalPower != want.TotalPower:
		return fmt.Errorf("total power %v, core %v", got.TotalPower, want.TotalPower)
	case got.Totals != want.Totals:
		return fmt.Errorf("totals %+v, core %+v", got.Totals, want.Totals)
	case got.SimulatedCycles != want.SimulatedCycles:
		return fmt.Errorf("simulated cycles %d, core %d", got.SimulatedCycles, want.SimulatedCycles)
	}
	return nil
}

// layerProbe replays a sample of a workload's points through every layer
// and times the layers a workload may bypass on that same sample: result
// cache keying and hits, the analytic tier, the service's request decoder
// and cache-hit path, and the shard ring.
type layerProbe struct {
	cache *core.SimCache
	srv   http.Handler
	ring  *shard.Ring
	// Totals over the traced round.
	points, requests int
	bursts, decodes  int64
	cycles           int64
	problems         []string
}

func newLayerProbe() (*layerProbe, error) {
	ring, err := shard.NewRing(0, "s1", "s2")
	if err != nil {
		return nil, err
	}
	c := core.NewSimCache()
	return &layerProbe{cache: c, srv: server.New(server.Config{Workers: 1, Cache: c}).Handler(), ring: ring}, nil
}

// run replays every point twice: an untimed round that builds pools and
// fills the probe's cache, then a round recorded in tr.
func (lp *layerProbe) run(ctx context.Context, tr *tracer, pts []server.SimulateRequest) error {
	for round, t := range []*tracer{nil, tr} {
		for _, p := range pts {
			if err := lp.point(ctx, t, p, round == 1); err != nil {
				return fmt.Errorf("replay %s: %w", pointKey(p), err)
			}
		}
	}
	return nil
}

func (lp *layerProbe) point(ctx context.Context, tr *tracer, p server.SimulateRequest, traced bool) error {
	root := tr.reserve()
	start := time.Now()
	defer func() { tr.finish(root, "replay", 0, root, start, time.Now()) }()
	rp, err := replay(tr, root, p)
	if err != nil {
		return err
	}
	w, mc := rp.workload, rp.memory
	var ref core.Result
	if err := tr.timed("core", root, root, func() (err error) {
		ref, err = core.SimulateContext(ctx, w, mc)
		return err
	}); err != nil {
		return err
	}
	if err := sameAnswer(rp.res, ref); err != nil {
		lp.problems = append(lp.problems, fmt.Sprintf("replay of %s: %v", pointKey(p), err))
	}
	// core.Simulate does not drain the generator first: Run pulls from it.
	// Timing that fused step too lets the core overhead exclude it.
	if err := tr.timed("load+memsys", root, root, func() error {
		src, err := rp.gen.Frame(rp.fraction)
		if err != nil {
			return err
		}
		rp.sys.Reset()
		_, err = rp.sys.Run(src)
		return err
	}); err != nil {
		return err
	}
	if traced {
		lp.points++
		lp.requests += len(rp.reqs)
		lp.bursts += rp.run.Bursts
		lp.decodes += int64(rp.decodes)
		lp.cycles += rp.run.Cycles
		for _, pol := range controller.Policies() {
			msc := rp.msc
			msc.Policy = pol
			var sys *memsys.System
			if err := tr.timed("memsys.build", root, root, func() (err error) {
				sys, err = memsys.New(msc)
				return err
			}); err != nil {
				return err
			}
			if err := tr.timed("memsys."+pol.String(), root, root, func() error {
				sys.Reset()
				_, err := sys.Run(memsys.NewSliceSource(rp.reqs))
				return err
			}); err != nil {
				return err
			}
		}
	}
	key, _ := core.CacheKey(w, mc)
	if _, _, err := lp.cache.SimulateContext(ctx, w, mc); err != nil {
		return err
	}
	body := mustJSON(p)
	for _, c := range []struct {
		name string
		reps int
		fn   func() error
	}{
		{"simcache.key", keyReps, func() error {
			key, _ = core.CacheKey(w, mc)
			return nil
		}},
		{"simcache.hit", hitReps, func() error {
			_, _, err := lp.cache.SimulateContext(ctx, w, mc)
			return err
		}},
		{"analytic", analyticReps, func() error {
			_, err := core.AnalyticResult(w, mc)
			return err
		}},
		{"server.decode", decodeReps, func() error {
			var r server.SimulateRequest
			return server.DecodeJSON(bytes.NewReader(body), &r)
		}},
		{"server.hit", serverReps, func() error {
			rec := httptest.NewRecorder()
			lp.srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body)))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("server answered HTTP %d: %s", rec.Code, rec.Body)
			}
			return nil
		}},
		{"shard.owner", ownerReps, func() error {
			sink += len(lp.ring.Owner(key))
			return nil
		}},
	} {
		if err := tr.timed(c.name, root, root, func() error {
			for i := 0; i < c.reps; i++ {
				if err := c.fn(); err != nil {
					return err
				}
			}
			return nil
		}); err != nil {
			return err
		}
	}
	return nil
}

// metrics turns the traced round's self times into per-layer numbers.
func (lp *layerProbe) metrics(spans []span) map[string]float64 {
	self := selfByName(spans)
	n := float64(lp.points)
	us := func(name string, reps int) float64 { return self[name] / n / float64(reps) }
	m := map[string]float64{
		"load.ms_per_point":          us("load", 1) / 1e3,
		"load.requests_per_point":    float64(lp.requests) / n,
		"mapping.ns_per_burst":       self["mapping"] * 1e3 / float64(lp.decodes),
		"mapping.bursts_per_point":   float64(lp.bursts) / n,
		"memsys.ms_per_point":        us("memsys", 1) / 1e3,
		"memsys.sim_cycles_per_s":    float64(lp.cycles) / (self["memsys"] / 1e6),
		"power.us_per_point":         us("power", 1),
		"core.overhead_us_per_point": (self["core"] - self["load+memsys"] - self["power"]) / n,
		"simcache.key_us":            us("simcache.key", keyReps),
		"simcache.hit_us":            us("simcache.hit", hitReps),
		"analytic.us_per_point":      us("analytic", analyticReps),
		"server.decode_us":           us("server.decode", decodeReps),
		"server.hit_us":              us("server.hit", serverReps),
		"shard.owner_ns":             us("shard.owner", ownerReps) * 1e3,
	}
	for _, pol := range controller.Policies() {
		m["memsys.ms_per_point."+pol.String()] = us("memsys."+pol.String(), 1) / 1e3
	}
	return m
}
