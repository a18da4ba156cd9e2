package memsys

import (
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/probe"
	"repro/internal/units"
)

// TestDispatchEquivalence is the bit-identical guarantee for the dispatch
// path, in the style of controller.TestResetEquivalence: across randomized
// configurations (channels, interleave granularity, queue depth, write
// buffer, page policy, probes, faults) and randomized request streams, the
// per-burst reference and the coalesced path must produce identical
// Results, per-channel stats, latency histograms and probe event streams.
func TestDispatchEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(0xc0a1e5ce))

	// Walk the full scheduling-policy x datasheet matrix twice (the trial
	// index enumerates it deterministically), with the rest of the
	// configuration and the request stream randomized per trial. Every
	// combination must agree across both dispatch variants — in
	// particular, every policy's per-channel row walk and its jumps must
	// reproduce the per-burst reference schedule.
	policies := controller.Policies()
	devices := dram.Devices()
	trials := 2 * len(policies) * len(devices)
	for trial := 0; trial < trials; trial++ {
		policy := policies[trial%len(policies)]
		device := devices[(trial/len(policies))%len(devices)]
		channels := []int{1, 2, 3, 4, 8}[rng.Intn(5)]
		// Interleave granularities must be multiples of the device's burst
		// (16 bytes for the paper part, 64 for the modern x16 BL16 parts).
		burst := int64(device.Geometry.WordBits/8) * int64(device.Geometry.BurstLength)
		cfg := Config{
			Channels:              channels,
			Freq:                  device.Frequencies[rng.Intn(len(device.Frequencies))],
			Geometry:              device.Geometry,
			Timing:                device.Timing,
			Policy:                policy,
			PowerDown:             rng.Intn(2) == 0,
			RecordLatency:         rng.Intn(2) == 0,
			WriteBufferDepth:      []int{0, 0, 8, 32}[rng.Intn(4)],
			QueueDepth:            []int{0, 0, 4, 16}[rng.Intn(4)],
			RefreshPostpone:       rng.Intn(4),
			PrechargeOnIdle:       rng.Intn(2) == 0,
			InterleaveGranularity: []int64{0, burst, 2 * burst, 4 * burst, 16 * burst}[rng.Intn(5)],
		}
		if rng.Intn(4) == 0 {
			cfg.Mux = 1 // BRC
		}
		var plan *fault.Plan
		if rng.Intn(3) == 0 {
			plan = &fault.Plan{
				Seed:          rng.Uint64(),
				ReadErrorRate: float64(rng.Intn(3)) * 0.02,
				StallRate:     float64(rng.Intn(3)) * 0.01,
			}
			if channels > 1 && rng.Intn(2) == 0 {
				plan.DropChannel = rng.Intn(channels)
				plan.DropAtCycle = 1 + rng.Int63n(20000)
			}
			if !plan.Enabled() {
				plan = nil
			}
		}
		withProbe := rng.Intn(3) == 0
		checkDispatchEquivalent(t, trial, cfg, plan, withProbe, randomRequests(rng, 4))
	}

	// Trials that make the coalesced variant reach each non-open policy's
	// per-channel row walk: bank partitioning with more streams than bank
	// groups, FR-FCFS at shallow and deep windows, closed page behind an
	// explicit window. Probed runs synthesize coalesced events, so the
	// row walk's event stream is diffed too.
	extra := []struct {
		policy  controller.PagePolicy
		depth   int
		streams int
	}{
		{controller.BankPartition, 0, 8},
		{controller.FRFCFS, 1, 4},
		{controller.FRFCFS, 2, 4},
		{controller.FRFCFS, 16, 4},
		{controller.ClosedPage, 4, 4},
	}
	rng = rand.New(rand.NewSource(0x5eed0e9))
	for i, x := range extra {
		for _, withProbe := range []bool{false, true} {
			device := devices[rng.Intn(len(devices))]
			cfg := Config{
				Channels:      []int{1, 2, 3, 4}[rng.Intn(4)],
				Freq:          device.Frequencies[rng.Intn(len(device.Frequencies))],
				Geometry:      device.Geometry,
				Timing:        device.Timing,
				Policy:        x.policy,
				PowerDown:     true,
				RecordLatency: true,
				QueueDepth:    x.depth,
			}
			checkDispatchEquivalent(t, trials+i, cfg, nil, withProbe, randomRequests(rng, x.streams))
		}
	}
}

// randomRequests draws a request stream mixing large sequential runs (the
// coalescing target), small unaligned transactions, reads and writes, and
// occasional long arrival gaps (power-down and self-refresh), spread over
// the given number of client streams.
func randomRequests(rng *rand.Rand, streams int) []Request {
	var reqs []Request
	arrival := int64(0)
	for i := 0; i < 60; i++ {
		switch rng.Intn(10) {
		case 0:
			arrival += 40000 + rng.Int63n(200000)
		case 1, 2, 3:
			arrival += rng.Int63n(500)
		}
		var bytes int64
		switch rng.Intn(3) {
		case 0:
			bytes = 1 + rng.Int63n(64) // sub-burst and unaligned
		case 1:
			bytes = 1 + rng.Int63n(4096)
		default:
			bytes = 1 + rng.Int63n(1<<18) // large sequential runs
		}
		reqs = append(reqs, Request{
			Write:   rng.Intn(3) == 0,
			Addr:    rng.Int63n(1 << 26),
			Bytes:   bytes,
			Arrival: arrival,
			Stream:  rng.Intn(streams), // clients for the bank-partition map
		})
	}
	return reqs
}

// checkDispatchEquivalent runs reqs per-burst and coalesced on cfg (with the
// fault plan and probes when given) and fails the test unless the Results,
// latency histograms and probe event streams agree.
func checkDispatchEquivalent(t *testing.T, trial int, cfg Config, plan *fault.Plan, withProbe bool, reqs []Request) {
	t.Helper()
	channels := cfg.Channels
	type variant struct {
		name       string
		noCoalesce bool
	}
	variants := []variant{
		{"per-burst", true},
		{"coalesced", false},
	}

	type outcome struct {
		res     Result
		recs    []*probe.Recorder
		lats    []interface{}
		latOK   bool
		failure error
	}
	runVariant := func(v variant) outcome {
		c := cfg
		c.NoCoalesce = v.noCoalesce
		if plan != nil {
			p := *plan
			c.Faults = &p
		}
		var recs []*probe.Recorder
		if withProbe {
			recs = make([]*probe.Recorder, channels)
			c.NewProbe = func(ch int) probe.Sink {
				recs[ch] = &probe.Recorder{}
				return recs[ch]
			}
		}
		sys, err := New(c)
		if err != nil {
			return outcome{failure: err}
		}
		res, err := sys.Run(NewSliceSource(reqs))
		if err != nil {
			return outcome{failure: err}
		}
		o := outcome{res: res, recs: recs, latOK: cfg.RecordLatency}
		if cfg.RecordLatency {
			for _, ch := range sys.Channels() {
				o.lats = append(o.lats, *ch.Latency())
			}
		}
		return o
	}

	ref := runVariant(variants[0])
	if ref.failure != nil {
		t.Fatalf("trial %d (cfg %+v): reference run: %v", trial, cfg, ref.failure)
	}
	for _, v := range variants[1:] {
		got := runVariant(v)
		if got.failure != nil {
			t.Fatalf("trial %d (cfg %+v): %s run: %v", trial, cfg, v.name, got.failure)
		}
		if !reflect.DeepEqual(got.res, ref.res) {
			t.Errorf("trial %d (cfg %+v, faults %v, probe %v): %s Result diverged from per-burst:\ngot:  %+v\nwant: %+v",
				trial, cfg, plan != nil, withProbe, v.name, got.res, ref.res)
		}
		if ref.latOK && !reflect.DeepEqual(got.lats, ref.lats) {
			t.Errorf("trial %d (cfg %+v): %s latency histograms diverged", trial, cfg, v.name)
		}
		if withProbe {
			for ch := range ref.recs {
				if !reflect.DeepEqual(got.recs[ch].Events, ref.recs[ch].Events) {
					t.Errorf("trial %d (cfg %+v): %s channel %d probe stream diverged (%d vs %d events)",
						trial, cfg, v.name, ch, len(got.recs[ch].Events), len(ref.recs[ch].Events))
				}
			}
		}
	}
	if t.Failed() {
		t.Fatalf("trial %d: stopping after first divergence", trial)
	}
}

// TestCoalescedMatchesPerBurstAcrossGranularities pins the coalesced
// dispatch math itself: for every (channels, granularity) pair and a
// deliberately awkward set of address ranges (unaligned heads and tails,
// sub-chunk and multi-stripe spans), the run decomposition must cover
// exactly the bursts the per-burst router visits, in the same per-channel
// order.
func TestCoalescedMatchesPerBurstAcrossGranularities(t *testing.T) {
	for _, channels := range []int{1, 2, 3, 4, 8} {
		for _, gran := range []int64{16, 32, 48, 128, 1024} {
			cfg := PaperConfig(channels, 400*units.MHz)
			cfg.InterleaveGranularity = gran
			reqs := []Request{
				{Addr: 0, Bytes: 16},
				{Addr: 7, Bytes: 3},
				{Addr: 15, Bytes: 2},
				{Addr: gran - 1, Bytes: gran + 2},
				{Addr: gran * int64(channels), Bytes: gran * int64(channels) * 3},
				{Addr: 12345, Bytes: 54321, Write: true},
				{Addr: 1 << 20, Bytes: 1 << 16},
			}
			run := func(noCoalesce bool) Result {
				c := cfg
				c.NoCoalesce = noCoalesce
				sys, err := New(c)
				if err != nil {
					t.Fatal(err)
				}
				res, err := sys.Run(NewSliceSource(reqs))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			want := run(true)
			got := run(false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%d ch, gran %d: coalesced diverged:\ngot:  %+v\nwant: %+v",
					channels, gran, got, want)
			}
		}
	}
}
