package load

import (
	"testing"

	"repro/internal/memsys"
)

func TestPacedFrameValidates(t *testing.T) {
	g := gen(t, "720p30", 2)
	cases := []struct {
		fraction    float64
		start, pace int64
	}{
		{0.1, -1, 900}, // start
		{0.1, 0, 0},    // pace
		{0, 0, 900},    // fraction
		{1.5, 0, 900},  // fraction
		{1e-9, 0, 900}, // fraction empties the frame
	}
	for i, c := range cases {
		if _, err := g.PacedFrame(c.fraction, c.start, c.pace); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

// Consecutive slots, as the core engine paces them: arrivals never go
// backwards and every arrival stays inside its own slot's pace window.
func TestPacedFrameArrivalsMonotoneWithinSlots(t *testing.T) {
	g := gen(t, "720p30", 2)
	const period, pace = 50_000, 42_500 // 1M and 850k cycles scaled by 0.05
	const fraction = 0.05
	var prev int64 = -1
	for f := int64(0); f < 3; f++ {
		src, err := g.PacedFrame(fraction, f*period, pace)
		if err != nil {
			t.Fatal(err)
		}
		reqs := drain(t, src)
		if len(reqs) == 0 {
			t.Fatalf("slot %d carried no traffic", f)
		}
		for _, r := range reqs {
			if r.Arrival < prev {
				t.Fatalf("slot %d: arrival went backwards: %d after %d", f, r.Arrival, prev)
			}
			prev = r.Arrival
			if off := r.Arrival - f*period; off < 0 || off > pace {
				t.Fatalf("slot %d: arrival offset %d outside pace window [0, %d]", f, off, pace)
			}
		}
	}
}

// Pacing only stamps arrivals: the transactions are the frame's own.
func TestPacedFrameEmitsSameTrafficAsFrame(t *testing.T) {
	g := gen(t, "720p30", 2)
	paced, err := g.PacedFrame(0.05, 1_000_000, 900_000)
	if err != nil {
		t.Fatal(err)
	}
	single, err := g.Frame(0.05)
	if err != nil {
		t.Fatal(err)
	}
	got, want := drain(t, paced), drain(t, single)
	if len(got) != len(want) {
		t.Fatalf("paced frame has %d transactions, want %d", len(got), len(want))
	}
	for i := range got {
		r := got[i]
		r.Arrival = want[i].Arrival
		if r != want[i] {
			t.Fatalf("transaction %d = %+v, want %+v (arrival aside)", i, got[i], want[i])
		}
	}
}

// Two paced slots, one Run each on the same system, power down between
// transactions and take as long as the pacing, not the saturated service.
func TestPacedFrameRunsOnMemSys(t *testing.T) {
	g := gen(t, "720p30", 2)
	// One 30 fps frame at 400 MHz is ~13.3M cycles; pace over 85 %.
	const period, pace = 266_666, 226_666 // scaled by fraction 0.02
	const fraction = 0.02
	sys, err := memsys.New(memsys.PaperConfig(2, 400e6))
	if err != nil {
		t.Fatal(err)
	}
	var res memsys.Result
	for f := int64(0); f < 2; f++ {
		src, err := g.PacedFrame(fraction, f*period, pace)
		if err != nil {
			t.Fatal(err)
		}
		if res, err = sys.Run(src); err != nil {
			t.Fatal(err)
		}
	}
	tot := res.Totals()
	if tot.PowerDownExits == 0 || tot.PowerDownCycles == 0 {
		t.Errorf("paced run should power down between transactions: %+v", tot)
	}
	// The makespan tracks the pacing, not the saturated service time.
	if res.Cycles < period {
		t.Errorf("makespan %d shorter than one scaled slot %d", res.Cycles, period)
	}
}
