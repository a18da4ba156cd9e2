package memsys

import (
	"reflect"
	"testing"

	"repro/internal/fault"
	"repro/internal/units"
)

// streamReqs returns a sequential read stream of n bursts.
func streamReqs(n int) []Request {
	reqs := make([]Request, n)
	for i := range reqs {
		reqs[i] = Request{Addr: int64(i) * 16, Bytes: 16}
	}
	return reqs
}

func TestChannelDropoutReroutesTraffic(t *testing.T) {
	cfg := PaperConfig(4, 400*units.MHz)
	cfg.Faults = &fault.Plan{Seed: 1, DropChannel: 2, DropAtCycle: 50}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	run, err := s.Run(NewSliceSource(streamReqs(4096)))
	if err != nil {
		t.Fatal(err)
	}
	if run.FailedChannel != 2 {
		t.Fatalf("FailedChannel = %d, want 2", run.FailedChannel)
	}
	if run.DropClock < 50 {
		t.Errorf("DropClock = %d, want >= plan cycle 50", run.DropClock)
	}
	if ch, at := s.FailedChannel(); ch != 2 || at != run.DropClock {
		t.Errorf("System.FailedChannel = (%d,%d), want (2,%d)", ch, at, run.DropClock)
	}
	// The dead channel saw only the pre-dropout slice of the run; the
	// survivors carried everything else.
	dead := run.PerChannel[2]
	if dead.Reads == 0 {
		t.Error("dead channel never saw the pre-dropout traffic")
	}
	for i, st := range run.PerChannel {
		if i == 2 {
			continue
		}
		if st.Reads <= dead.Reads {
			t.Errorf("survivor %d carried %d reads, dead carried %d — no rerouting visible",
				i, st.Reads, dead.Reads)
		}
	}
	var total int64
	for _, st := range run.PerChannel {
		total += st.Reads
	}
	if total != run.Bursts {
		t.Errorf("reads across channels %d, want all %d bursts", total, run.Bursts)
	}
}

func TestDropoutPersistsAcrossRuns(t *testing.T) {
	cfg := PaperConfig(2, 400*units.MHz)
	cfg.Faults = &fault.Plan{DropChannel: 1, DropAtCycle: 10}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(NewSliceSource(streamReqs(1024))); err != nil {
		t.Fatal(err)
	}
	before := s.Channels()[1].Stats()
	run2, err := s.Run(NewSliceSource(streamReqs(1024)))
	if err != nil {
		t.Fatal(err)
	}
	if run2.FailedChannel != 1 {
		t.Errorf("second run FailedChannel = %d, want 1 (dropout must persist)", run2.FailedChannel)
	}
	if after := s.Channels()[1].Stats(); after != before {
		t.Errorf("dead channel accumulated traffic after dropout: %+v -> %+v", before, after)
	}
}

func TestFaultyResetReplaysRun(t *testing.T) {
	cfg := PaperConfig(4, 400*units.MHz)
	cfg.Faults = &fault.Plan{Seed: 7, DropChannel: 3, DropAtCycle: 80, ReadErrorRate: 0.02}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	first, err := s.Run(NewSliceSource(streamReqs(4096)))
	if err != nil {
		t.Fatal(err)
	}
	c1 := s.Injector().Counters()
	s.Reset()
	if ch, _ := s.FailedChannel(); ch != -1 {
		t.Fatalf("channel still failed after Reset")
	}
	second, err := s.Run(NewSliceSource(streamReqs(4096)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, second) {
		t.Errorf("reset system did not replay the faulty run:\nfirst:  %+v\nsecond: %+v", first, second)
	}
	if c2 := s.Injector().Counters(); c1 != c2 {
		t.Errorf("fault counters diverged after reset: %+v vs %+v", c1, c2)
	}
}

func TestFaultFreePathUnchangedByNilPlan(t *testing.T) {
	base := PaperConfig(2, 400*units.MHz)
	withNil := base
	withNil.Faults = &fault.Plan{} // disabled plan must not instantiate an injector
	a, err := New(base)
	if err != nil {
		t.Fatal(err)
	}
	b, err := New(withNil)
	if err != nil {
		t.Fatal(err)
	}
	if b.Injector() != nil {
		t.Fatal("disabled plan instantiated an injector")
	}
	ra, err := a.Run(NewSliceSource(streamReqs(2048)))
	if err != nil {
		t.Fatal(err)
	}
	rb, err := b.Run(NewSliceSource(streamReqs(2048)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(ra, rb) {
		t.Errorf("disabled plan changed results")
	}
}
