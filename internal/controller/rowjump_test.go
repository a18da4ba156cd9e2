package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/mapping"
	"repro/internal/probe"
)

// sameState reports whether two controllers hold identical state, probe
// configuration aside (each has its own recorder).
func sameState(a, b *Controller) bool {
	x, y := *a, *b
	x.probe, y.probe, x.cfg.Probe, y.cfg.Probe = nil, nil, nil, nil
	return reflect.DeepEqual(x, y)
}

// rowSegment is one same-row run handed to the in-order row path.
type rowSegment struct {
	write   bool
	loc     mapping.Location
	n       int
	arrival int64
}

// checkRowPath replays segs through the depth-0 row path (AccessRow) and
// through per-burst Access on a twin controller, and requires identical
// completions, controller state (stats, latency histogram, bank windows,
// activate history) and probe event streams. It returns the row-path
// controller.
func checkRowPath(t *testing.T, name string, cfg Config, segs []rowSegment) *Controller {
	t.Helper()
	var recs [2]probe.Recorder
	run, ref := cfg, cfg
	run.Probe, ref.Probe = &recs[0], &recs[1]
	q, r := NewReorderQueue(newCtl(t, run), 0), NewReorderQueue(newCtl(t, ref), 0)
	for i, sg := range segs {
		got := q.AccessRow(sg.write, sg.loc, sg.n, sg.arrival)
		var want int64
		for j := 0; j < sg.n; j++ {
			want = max64(want, r.Access(sg.write, sg.loc, sg.arrival))
		}
		if got != want {
			t.Fatalf("%s: segment %d (%+v): row path ends at %d, per-burst at %d", name, i, sg, got, want)
		}
	}
	if q.Flush() != r.Flush() || !sameState(q.ctl, r.ctl) {
		t.Fatalf("%s: controller state diverged:\ngot:  %+v\nwant: %+v", name, q.ctl.Stats(), r.ctl.Stats())
	}
	if !reflect.DeepEqual(recs[0].Events, recs[1].Events) {
		t.Fatalf("%s: probe streams diverged (%d vs %d events)", name, len(recs[0].Events), len(recs[1].Events))
	}
	return q.ctl
}

// TestClosedPageRowJump compares the closed-page ACT-period jump with
// per-burst Access on every registered datasheet at every listed clock, for
// reads and writes, over runs long enough to cross several refreshes (with
// immediate and postponed refresh, awake and powered down), after
// activates on other banks that leave tFAW history behind. It also pins
// that the jump engages once the row streams and that it refuses an
// unsteady state.
func TestClosedPageRowJump(t *testing.T) {
	for _, dev := range dram.Devices() {
		for _, freq := range dev.Frequencies {
			s, err := dram.Resolve(dev.Geometry, dev.Timing, freq)
			if err != nil {
				t.Fatal(err)
			}
			long := int(3*s.REFI/s.RC) + 7 // at least 3 tREFI at >= tRC apart
			for _, write := range []bool{false, true} {
				for _, postpone := range []int{0, 2} {
					cfg := Config{Speed: s, Mux: mapping.RBC, Policy: ClosedPage, RecordLatency: true,
						PowerDown: postpone == 0, RefreshPostpone: postpone}
					name := fmt.Sprintf("%s %v write=%v postpone=%d", dev.Name, freq, write, postpone)
					segs := []rowSegment{
						{write, mapping.Location{Bank: 1, Row: 2}, 1, 0},
						{!write, mapping.Location{Bank: 2, Row: 5}, 2, 0},
						{write, mapping.Location{Bank: 3, Row: 9}, 1, 0},
						{write, mapping.Location{Bank: 0, Row: 7}, long, 0},
						{write, mapping.Location{Bank: 1, Row: 3}, long / 2, 30 * s.REFI},
					}
					c := checkRowPath(t, name, cfg, segs)
					if st := c.Stats(); st.Refreshes < 3 {
						t.Fatalf("%s: only %d refreshes; the runs must cross refreshes", name, st.Refreshes)
					}

					// The state after the last burst is steady: the jump
					// engages. An activate on another bank breaks it.
					loc := segs[len(segs)-1].loc
					c.cfg.RefreshDisabled = true
					if m, _ := c.jumpRow(write, loc, 0, 100, queueEvents{}); m != 100 {
						t.Errorf("%s: steady row jumped %d of 100 bursts", name, m)
					}
					c.Access(write, mapping.Location{Bank: 2, Row: 1}, 0)
					if m, _ := c.jumpRow(write, loc, 0, 100, queueEvents{}); m != 0 {
						t.Errorf("%s: jump accepted after another bank's ACT (m=%d)", name, m)
					}
				}
			}
		}
	}
}

// TestClosedPageRowJumpFAW pins the jump's four-activate window handling.
// A window wider than four ACT periods binds every fifth activate of a
// same-row run, so the period is not fixed and the jump must refuse. A
// window just inside four periods (and one exactly at it) never binds
// within the run, but after three quick activates on other banks it binds
// the run's first activates, which the jump must leave to the exact path.
// Every variant must match per-burst Access.
func TestClosedPageRowJumpFAW(t *testing.T) {
	s := speed400(t)
	cfg := Config{Speed: s, Mux: mapping.RBC, Policy: ClosedPage, PowerDown: true}
	loc := mapping.Location{Bank: 0, Row: 4}
	// The read period: P = max(tRC, tAP+tRP, tRRD, tRCD+1), tAP the latest
	// of tRAS, tRCD+tRTP and the data end.
	tap := max64(s.RAS, max64(s.RCD+s.RTP, s.RCD+s.CL+s.BurstCycles))
	p := max64(max64(s.RC, tap+s.RP), max64(s.RRD, s.RCD+1))
	if s.FAW > 4*p {
		t.Fatalf("default datasheet: period %d, tFAW %d; want a steady run with tFAW <= 4p", p, s.FAW)
	}
	var warm []rowSegment
	for b := 1; b <= 3; b++ {
		warm = append(warm, rowSegment{false, mapping.Location{Bank: b, Row: 1}, 1, 0})
	}
	for _, faw := range []int64{4*p - 1, 4 * p, 4*p + 1, 6 * s.RC} {
		cfg.Speed.FAW = faw
		name := fmt.Sprintf("tFAW %d, period %d", faw, p)
		c := checkRowPath(t, name, cfg, append(warm, rowSegment{false, loc, 40, 0}))
		m, _ := c.jumpRow(false, loc, 0, 10, queueEvents{})
		if refuse := faw > 4*p; refuse != (m == 0) {
			t.Errorf("%s: jump of %d bursts, want refusal %v", name, m, refuse)
		}
	}
}

// TestRowPathMatchesPerBurst drives random same-row segments through the
// depth-0 row path of every policy on every datasheet and requires the
// per-burst schedule, state and event stream.
func TestRowPathMatchesPerBurst(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, pol := range Policies() {
		for _, dev := range dram.Devices() {
			s, err := dram.Resolve(dev.Geometry, dev.Timing, dev.Frequencies[rng.Intn(len(dev.Frequencies))])
			if err != nil {
				t.Fatal(err)
			}
			cfg := Config{Speed: s, Mux: mapping.RBC, Policy: pol, RecordLatency: true,
				PowerDown: rng.Intn(2) == 0, RefreshPostpone: rng.Intn(3), WriteBufferDepth: []int{0, 4}[rng.Intn(2)]}
			var segs []rowSegment
			arrival := int64(0)
			for i := 0; i < 300; i++ {
				if rng.Intn(8) == 0 {
					arrival += rng.Int63n(3 * s.REFI)
				}
				segs = append(segs, rowSegment{
					write:   rng.Intn(3) == 0,
					loc:     mapping.Location{Bank: rng.Intn(s.Geometry.Banks), Row: rng.Intn(4)},
					n:       1 + rng.Intn(60),
					arrival: arrival,
				})
			}
			checkRowPath(t, fmt.Sprintf("%v on %s", pol, dev.Name), cfg, segs)
		}
	}
}
