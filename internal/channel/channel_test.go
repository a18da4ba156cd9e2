package channel

import (
	"math/rand"
	"reflect"
	"testing"
	"time"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/interconnect"
	"repro/internal/mapping"
	"repro/internal/probe"
	"repro/internal/units"
)

func testConfig(t *testing.T) Config {
	t.Helper()
	s, err := dram.Resolve(dram.DefaultGeometry(), dram.DefaultTiming(), 400*units.MHz)
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Controller: controller.Config{Speed: s, Mux: mapping.RBC, Policy: controller.OpenPage, PowerDown: true},
		DRAMLink:   interconnect.Link{RequestCycles: 1, ResponseCycles: 1},
	}
}

func TestNewValidates(t *testing.T) {
	cfg := testConfig(t)
	cfg.DRAMLink.RequestCycles = -1
	if _, err := New(cfg); err == nil {
		t.Error("expected link validation error")
	}
	cfg = testConfig(t)
	cfg.Controller.Policy = controller.PagePolicy(9)
	if _, err := New(cfg); err == nil {
		t.Error("expected controller validation error")
	}
}

func TestReadIncludesResponseLatency(t *testing.T) {
	cfg := testConfig(t)
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Controller.Speed
	got := ch.Access(false, 0, 0)
	// Request link (1) + ACT+tRCD+CL+burst + response link (1).
	want := 1 + s.RCD + s.CL + s.BurstCycles + 1
	if got != want {
		t.Errorf("cold read completion = %d, want %d", got, want)
	}
}

func TestWriteOmitsResponseLatency(t *testing.T) {
	cfg := testConfig(t)
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s := cfg.Controller.Speed
	got := ch.Access(true, 0, 0)
	want := 1 + s.RCD + s.CWL + s.BurstCycles
	if got != want {
		t.Errorf("cold write completion = %d, want %d", got, want)
	}
}

func TestNegativeArrivalClamps(t *testing.T) {
	ch, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := ch.Access(false, 0, -5), ch.Access(false, 16, 0); got >= want {
		t.Errorf("negative arrival produced later completion %d >= %d", got, want)
	}
}

func TestStatsAndReset(t *testing.T) {
	ch, err := New(testConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	ch.Access(false, 0, 0)
	ch.Access(true, 16, 0)
	st := ch.Stats()
	if st.Reads != 1 || st.Writes != 1 {
		t.Errorf("stats = %+v", st)
	}
	if ch.BusyCycles() <= 0 {
		t.Error("busy cycles should be positive")
	}
	ch.Reset()
	if ch.Stats().Accesses() != 0 || ch.BusyCycles() != 0 {
		t.Error("reset did not clear state")
	}
	if ch.Controller() == nil {
		t.Error("controller accessor returned nil")
	}
	if ch.Latency() == nil {
		t.Error("latency accessor returned nil")
	}
}

func TestQueueDepthValidation(t *testing.T) {
	cfg := testConfig(t)
	cfg.QueueDepth = -1
	if _, err := New(cfg); err == nil {
		t.Error("expected queue depth error")
	}
	cfg.QueueDepth = 8
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Reordered accesses still drain fully through Flush, and Reset
	// restores a working queue.
	for i := 0; i < 20; i++ {
		ch.Access(false, int64(i*16), 0)
	}
	ch.Flush()
	if got := ch.Stats().Reads; got != 20 {
		t.Errorf("drained %d reads, want 20", got)
	}
	ch.Reset()
	for i := 0; i < 4; i++ {
		ch.Access(false, int64(i*16), 0)
	}
	ch.Flush()
	if got := ch.Stats().Reads; got != 4 {
		t.Errorf("post-reset drained %d reads, want 4", got)
	}
}

// perBurstRun is the reference AccessRunStream is measured against: one
// AccessStream per burst in address order, keeping the latest completion.
func perBurstRun(ch *Channel, write bool, local int64, bursts, stream int, arrival int64) int64 {
	bb := ch.Controller().Config().Speed.Geometry.BurstBytes()
	var end int64
	for i := 0; i < bursts; i++ {
		if e := ch.AccessStream(write, local+int64(i)*bb, stream, arrival); e > end {
			end = e
		}
	}
	return end
}

// An unaligned run start whose first burst sits at a row's last column
// leaves less than one burst in the row: the row walk would count zero
// bursts there and never advance, so AccessRunStream must fall back to the
// per-burst loop and match it.
func TestAccessRunUnalignedStart(t *testing.T) {
	for _, pol := range []controller.PagePolicy{controller.ClosedPage, controller.FRFCFS} {
		cfg := testConfig(t)
		cfg.Controller.Policy = pol
		g := cfg.Controller.Speed.Geometry
		rowBytes := int64(g.Columns * g.WordBits / 8)
		starts := []int64{rowBytes - int64(g.WordBits/8), rowBytes + 3, 5}
		run, ref := mustNew(t, cfg), mustNew(t, cfg)
		done := make(chan [2]int64, 1)
		go func() {
			var got, want int64
			for i, local := range starts {
				got += run.AccessRunStream(i%2 == 0, local, 6, 1, int64(i)*10)
				want += perBurstRun(ref, i%2 == 0, local, 6, 1, int64(i)*10)
			}
			done <- [2]int64{got, want}
		}()
		select {
		case r := <-done:
			if r[0] != r[1] {
				t.Errorf("%v: unaligned runs completed at %d, per-burst at %d", pol, r[0], r[1])
			}
		case <-time.After(10 * time.Second):
			t.Fatalf("%v: AccessRunStream with an unaligned start did not terminate", pol)
		}
		if gs, ws := run.Stats(), ref.Stats(); gs != ws {
			t.Errorf("%v: stats diverged:\ngot:  %+v\nwant: %+v", pol, gs, ws)
		}
	}
}

// The row walk (every fault-free run that cannot coalesce) must reproduce
// the per-burst reference exactly — completions, stats, makespan and the
// probe event stream — for every policy, with and without a reorder window,
// across row boundaries and with several client streams.
func TestAccessRunMatchesPerBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, pol := range controller.Policies() {
		for _, depth := range []int{0, 1, 4} {
			cfg := testConfig(t)
			cfg.Controller.Policy = pol
			cfg.QueueDepth = depth
			g := cfg.Controller.Speed.Geometry
			rowBytes := int64(g.Columns * g.WordBits / 8)
			var recs [2]probe.Recorder
			cfgRun, cfgRef := cfg, cfg
			cfgRun.Controller.Probe, cfgRef.Controller.Probe = &recs[0], &recs[1]
			run, ref := mustNew(t, cfgRun), mustNew(t, cfgRef)
			arrival := int64(0)
			for i := 0; i < 200; i++ {
				arrival += rng.Int63n(300)
				local := (rng.Int63n(1<<22) / 16) * 16
				if rng.Intn(3) == 0 {
					local = (local/rowBytes+1)*rowBytes - 16*rng.Int63n(4) // straddle a row end
				}
				bursts, write, stream := 1+rng.Intn(70), rng.Intn(3) == 0, rng.Intn(5)
				got := run.AccessRunStream(write, local, bursts, stream, arrival)
				want := perBurstRun(ref, write, local, bursts, stream, arrival)
				if got != want {
					t.Fatalf("%v depth %d run %d: completion %d, per-burst %d", pol, depth, i, got, want)
				}
			}
			if got, want := run.Flush(), ref.Flush(); got != want {
				t.Errorf("%v depth %d: makespan %d, per-burst %d", pol, depth, got, want)
			}
			if gs, ws := run.Stats(), ref.Stats(); gs != ws {
				t.Errorf("%v depth %d: stats diverged:\ngot:  %+v\nwant: %+v", pol, depth, gs, ws)
			}
			if !reflect.DeepEqual(recs[0].Events, recs[1].Events) {
				t.Errorf("%v depth %d: probe streams diverged (%d vs %d events)",
					pol, depth, len(recs[0].Events), len(recs[1].Events))
			}
		}
	}
}

func mustNew(t *testing.T, cfg Config) *Channel {
	t.Helper()
	ch, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return ch
}
