package dram

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/units"
)

func TestDefaultGeometry(t *testing.T) {
	g := DefaultGeometry()
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// The paper's bank cluster holds 512 Mb in four banks.
	if got := g.CapacityBits(); got != 512*1024*1024 {
		t.Errorf("capacity = %d bits, want 512Mb (2^29)", got)
	}
	// A row is 2 KB; a burst is 16 bytes (the interleaving granularity).
	if got := g.RowBytes(); got != 2048 {
		t.Errorf("row = %d bytes, want 2048", got)
	}
	if got := g.BurstBytes(); got != 16 {
		t.Errorf("burst = %d bytes, want 16", got)
	}
	if got := g.Bytes(); got != 64*1024*1024 {
		t.Errorf("cluster = %d bytes, want 64MiB", got)
	}
	if got := g.BankBytes(); got != 16*1024*1024 {
		t.Errorf("bank = %d bytes, want 16MiB", got)
	}
}

func TestGeometryValidate(t *testing.T) {
	bad := []Geometry{
		{Banks: 0, Rows: 8192, Columns: 512, WordBits: 32, BurstLength: 4},
		{Banks: 4, Rows: 0, Columns: 512, WordBits: 32, BurstLength: 4},
		{Banks: 4, Rows: 8192, Columns: 0, WordBits: 32, BurstLength: 4},
		{Banks: 4, Rows: 8192, Columns: 512, WordBits: 0, BurstLength: 4},
		{Banks: 4, Rows: 8192, Columns: 512, WordBits: 12, BurstLength: 4},
		{Banks: 4, Rows: 8192, Columns: 512, WordBits: 32, BurstLength: 3},
		{Banks: 4, Rows: 8192, Columns: 6, WordBits: 32, BurstLength: 4},
		{Banks: 3, Rows: 8192, Columns: 512, WordBits: 32, BurstLength: 4},
		{Banks: 4, Rows: 1000, Columns: 512, WordBits: 32, BurstLength: 4},
		{Banks: 4, Rows: 8192, Columns: 512, WordBits: 24, BurstLength: 4},
	}
	for i, g := range bad {
		if err := g.Validate(); err == nil {
			t.Errorf("case %d: expected error for %+v", i, g)
		}
	}
}

func TestTimingValidate(t *testing.T) {
	if err := DefaultTiming().Validate(); err != nil {
		t.Fatal(err)
	}
	cases := []func(*Timing){
		func(tm *Timing) { tm.TRCD = 0 },
		func(tm *Timing) { tm.TRP = -1 },
		func(tm *Timing) { tm.TRC = 30 * units.Nanosecond }, // < tRAS+tRP
		func(tm *Timing) { tm.TWTRCycles = -1 },
		func(tm *Timing) { tm.TREFI = 50 * units.Nanosecond }, // < tRFC
	}
	for i, mutate := range cases {
		tm := DefaultTiming()
		mutate(&tm)
		if err := tm.Validate(); err == nil {
			t.Errorf("case %d: expected error", i)
		}
	}
}

func TestResolveAt400MHz(t *testing.T) {
	s, err := Resolve(DefaultGeometry(), DefaultTiming(), 400*units.MHz)
	if err != nil {
		t.Fatal(err)
	}
	// tCK = 2.5 ns; 15 ns parameters become 6 cycles.
	if s.TCK != 2500*units.Picosecond {
		t.Errorf("tCK = %v, want 2.5ns", s.TCK)
	}
	want := map[string][2]int64{
		"CL":  {s.CL, 6},
		"CWL": {s.CWL, 5},
		"RCD": {s.RCD, 6},
		"RP":  {s.RP, 6},
		"RAS": {s.RAS, 16},
		"RC":  {s.RC, 22},
		"WR":  {s.WR, 6},
		"RRD": {s.RRD, 4},
		"RFC": {s.RFC, 29},
		"B":   {s.BurstCycles, 2},
	}
	for name, v := range want {
		if v[0] != v[1] {
			t.Errorf("%s = %d cycles, want %d", name, v[0], v[1])
		}
	}
	// tREFI = 7.8 us = 3120 cycles.
	if s.REFI != 3120 {
		t.Errorf("REFI = %d cycles, want 3120", s.REFI)
	}
}

func TestResolveExtrapolatesCASWithFrequency(t *testing.T) {
	// The paper extrapolates clock-linked parameters: CL grows with the
	// clock so the analog latency stays ~15 ns.
	wantCL := map[units.Frequency]int64{
		200 * units.MHz: 3,
		266 * units.MHz: 4,
		333 * units.MHz: 5,
		400 * units.MHz: 6,
		533 * units.MHz: 8,
	}
	for f, cl := range wantCL {
		s, err := Resolve(DefaultGeometry(), DefaultTiming(), f)
		if err != nil {
			t.Fatal(err)
		}
		if s.CL != cl {
			t.Errorf("CL@%v = %d, want %d", f, s.CL, cl)
		}
	}
}

func TestResolveRejectsOutOfRangeFrequency(t *testing.T) {
	for _, f := range []units.Frequency{100 * units.MHz, 199 * units.MHz, 534 * units.MHz, 800 * units.MHz} {
		if _, err := Resolve(DefaultGeometry(), DefaultTiming(), f); err == nil {
			t.Errorf("expected error at %v", f)
		} else if !strings.Contains(err.Error(), "outside device range") {
			t.Errorf("unexpected error at %v: %v", f, err)
		}
	}
}

func TestResolveRejectsInvalidInputs(t *testing.T) {
	g := DefaultGeometry()
	g.Banks = 3
	if _, err := Resolve(g, DefaultTiming(), 400*units.MHz); err == nil {
		t.Error("expected geometry error")
	}
	tm := DefaultTiming()
	tm.TRCD = 0
	if _, err := Resolve(DefaultGeometry(), tm, 400*units.MHz); err == nil {
		t.Error("expected timing error")
	}
}

func TestPeakBandwidth(t *testing.T) {
	tests := []struct {
		f    units.Frequency
		want float64 // GB/s
	}{
		{200 * units.MHz, 1.6},
		{400 * units.MHz, 3.2},
		{533 * units.MHz, 4.264},
	}
	for _, tt := range tests {
		s, err := Resolve(DefaultGeometry(), DefaultTiming(), tt.f)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.PeakBandwidth().GBps(); math.Abs(got-tt.want) > 1e-9 {
			t.Errorf("peak@%v = %v GB/s, want %v", tt.f, got, tt.want)
		}
	}
}

func TestCycleDuration(t *testing.T) {
	s, err := Resolve(DefaultGeometry(), DefaultTiming(), 400*units.MHz)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.CycleDuration(4000); got != 10*units.Microsecond {
		t.Errorf("4000 cycles = %v, want 10us", got)
	}
}

// Property: resolved cycle counts never undershoot their analog durations,
// and are monotone non-decreasing in frequency.
func TestResolvedCyclesCoverAnalogTiming(t *testing.T) {
	f := func(df uint16) bool {
		freq := MinFrequency + units.Frequency(df%334)*units.MHz
		s, err := Resolve(DefaultGeometry(), DefaultTiming(), freq)
		if err != nil {
			return false
		}
		tm := s.Timing
		checks := []struct {
			cycles int64
			d      units.Duration
		}{
			{s.RCD, tm.TRCD}, {s.RP, tm.TRP}, {s.RAS, tm.TRAS},
			{s.RC, tm.TRC}, {s.WR, tm.TWR}, {s.RRD, tm.TRRD},
			{s.RFC, tm.TRFC}, {s.CL, tm.TCAS},
		}
		for _, c := range checks {
			if units.Duration(c.cycles)*s.TCK < c.d {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestEvaluatedFrequenciesAreInRange(t *testing.T) {
	for _, f := range EvaluatedFrequencies {
		if _, err := Resolve(DefaultGeometry(), DefaultTiming(), f); err != nil {
			t.Errorf("evaluated frequency %v rejected: %v", f, err)
		}
	}
	if len(EvaluatedFrequencies) != 5 {
		t.Errorf("paper evaluates 5 frequencies, have %d", len(EvaluatedFrequencies))
	}
}

func TestResolveFAWAndXSR(t *testing.T) {
	s, err := Resolve(DefaultGeometry(), DefaultTiming(), 400*units.MHz)
	if err != nil {
		t.Fatal(err)
	}
	// 50 ns and 120 ns at 2.5 ns/cycle.
	if s.FAW != 20 {
		t.Errorf("FAW = %d cycles, want 20", s.FAW)
	}
	if s.XSR != 48 {
		t.Errorf("XSR = %d cycles, want 48", s.XSR)
	}
	// tFAW of zero disables the window.
	tm := DefaultTiming()
	tm.TFAW = 0
	s2, err := Resolve(DefaultGeometry(), tm, 400*units.MHz)
	if err != nil {
		t.Fatal(err)
	}
	if s2.FAW != 0 {
		t.Errorf("disabled FAW = %d, want 0", s2.FAW)
	}
	// Negative values are rejected.
	tm.TFAW = -1
	if err := tm.Validate(); err == nil {
		t.Error("expected error for negative tFAW")
	}
	tm = DefaultTiming()
	tm.TXSR = -1
	if err := tm.Validate(); err == nil {
		t.Error("expected error for negative tXSR")
	}
}
