package core

import (
	"testing"

	"repro/internal/fault"
	"repro/internal/probe"
)

// dropPlan returns a plan failing channel ch halfway through the first
// (fraction-scaled) frame slot of the format.
func dropPlan(t *testing.T, format string, ch int, fraction float64) *fault.Plan {
	t.Helper()
	w, err := WorkloadFor(format)
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = fraction
	return &fault.Plan{Seed: 1, DropChannel: ch, DropAtCycle: MidFirstSlot(w, PaperFrequency)}
}

func TestDegradedDropoutCompletes(t *testing.T) {
	// Acceptance scenario: 1080p30 on four channels, one channel dropped
	// mid-frame. Three survivors still carry the load, so the run must
	// complete with a clean QoS report rather than an error.
	w, err := WorkloadFor("1080p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mc := PaperMemory(4, PaperFrequency)
	mc.Faults = dropPlan(t, "1080p30", 1, w.SampleFraction)
	res, err := SimulateDegraded(w, mc, 4)
	if err != nil {
		t.Fatal(err)
	}
	if res.QoS == nil {
		t.Fatal("no QoS report")
	}
	if res.QoS.FailedChannel != 1 {
		t.Errorf("FailedChannel = %d, want 1", res.QoS.FailedChannel)
	}
	if res.QoS.DropClock < mc.Faults.DropAtCycle {
		t.Errorf("DropClock = %d before plan cycle %d", res.QoS.DropClock, mc.Faults.DropAtCycle)
	}
	if len(res.PerFrame) != 4 {
		t.Errorf("recorded %d frames, want 4", len(res.PerFrame))
	}
	if res.QoS.DeadlineMisses != 0 || res.Verdict != Feasible {
		t.Errorf("three survivors should keep 1080p30 feasible: %d misses, verdict %v",
			res.QoS.DeadlineMisses, res.Verdict)
	}
	if got := res.QoS.Report(); got == "" {
		t.Error("empty QoS report")
	}
}

func TestDegradationLadderEngagesAndRecovers(t *testing.T) {
	// 1080p30 needs ~4.3 GB/s; one surviving channel peaks at 3.2 GB/s,
	// so after the dropout every executed frame misses until the ladder
	// has shed enough load (half rate, stabilization, resolution).
	w, err := WorkloadFor("1080p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mc := PaperMemory(2, PaperFrequency)
	mc.Faults = dropPlan(t, "1080p30", 1, w.SampleFraction)
	res, err := SimulateDegraded(w, mc, 12)
	if err != nil {
		t.Fatal(err)
	}
	q := res.QoS
	if q.DeadlineMisses == 0 {
		t.Fatal("one survivor carried 1080p30 without missing — scenario lost its point")
	}
	if len(q.Steps) == 0 || res.FinalLevel == levelFull {
		t.Fatalf("ladder never engaged: %+v", q)
	}
	if q.DroppedFrames == 0 {
		t.Error("half-rate level dropped no frames")
	}
	if !q.Recovered() {
		t.Errorf("run never recovered: %s", q.Report())
	}
	if q.TimeToRecoverFrames() <= 0 {
		t.Errorf("TimeToRecoverFrames = %d, want > 0", q.TimeToRecoverFrames())
	}
	// Degradation must be monotonic and recorded per frame.
	level := 0
	for _, fr := range res.PerFrame {
		if fr.Level < level {
			t.Errorf("frame %d: level went back up %d -> %d", fr.Frame, level, fr.Level)
		}
		level = fr.Level
	}
	if res.FinalLevel >= levelStepDown && res.FinalFormat == w.Profile.Format {
		t.Errorf("resolution step announced but format unchanged (%v)", res.FinalFormat)
	}
}

func TestDegradedRunEmitsFaultEvents(t *testing.T) {
	w, err := WorkloadFor("1080p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	mc := PaperMemory(2, PaperFrequency)
	mc.Faults = dropPlan(t, "1080p30", 1, w.SampleFraction)
	recorders := make([]*probe.Recorder, 2)
	mc.NewProbe = func(ch int) probe.Sink {
		recorders[ch] = &probe.Recorder{}
		return recorders[ch]
	}
	res, err := SimulateDegraded(w, mc, 12)
	if err != nil {
		t.Fatal(err)
	}
	if !res.QoS.Recovered() {
		t.Fatalf("scenario did not recover: %s", res.QoS.Report())
	}
	counts := map[probe.Kind]int{}
	for _, r := range recorders {
		for _, ev := range r.Events {
			counts[ev.Kind]++
		}
	}
	// Dropout and the ladder transitions must be visible on every
	// observed channel's track (2 channels each).
	if counts[probe.KindChannelFail] != 2 {
		t.Errorf("channel-fail events = %d, want 2", counts[probe.KindChannelFail])
	}
	if counts[probe.KindDegrade] < 2 {
		t.Errorf("degrade events = %d, want >= 2", counts[probe.KindDegrade])
	}
	if counts[probe.KindRecover] != 2 {
		t.Errorf("recover events = %d, want 2", counts[probe.KindRecover])
	}
}

func TestSimulateReportsQoSCounters(t *testing.T) {
	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.05
	mc := PaperMemory(2, PaperFrequency)
	mc.Faults = &fault.Plan{Seed: 3, DerateAtCycle: 100, ReadErrorRate: 0.01, StallRate: 0.01}
	res, err := Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	if res.QoS == nil {
		t.Fatal("no QoS on faulty Simulate")
	}
	c := res.QoS.Counters
	if c.Derates != 2 {
		t.Errorf("derates = %d, want one per channel", c.Derates)
	}
	if c.ReadErrors == 0 || c.Retries == 0 {
		t.Errorf("no read-error traffic injected: %+v", c)
	}
	if c.Stalls == 0 || c.StallCycles == 0 {
		t.Errorf("no stalls injected: %+v", c)
	}
	// A fault-free config must not attach a QoS report.
	clean, err := Simulate(w, PaperMemory(2, PaperFrequency))
	if err != nil {
		t.Fatal(err)
	}
	if clean.QoS != nil {
		t.Error("fault-free run attached a QoS report")
	}
}
