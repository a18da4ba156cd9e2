// The differential oracle replays one request stream through the
// simulator's two dispatch strategies — per-burst (the reference) and
// coalesced — and diffs the full per-channel command streams, not just the
// end statistics. The coalesced arm runs with SynthCoalescedEvents so
// whole per-channel runs take the row walk and its arithmetic jumps (the
// open-row recurrence, the closed-page ACT period and the reorder window's
// run continuation) while still emitting their reconstruction of the
// per-burst events; any divergence in an event field, an event count or a
// result field is a bug in one of the paths.
package check

import (
	"fmt"
	"reflect"

	"repro/internal/memsys"
	"repro/internal/probe"
)

// Variant names one dispatch strategy of the oracle.
type Variant struct {
	Name      string
	Coalesced bool
}

// Variants is the oracle's strategy pair: the per-burst reference and the
// coalesced path that must reproduce it exactly.
var Variants = []Variant{
	{Name: "per-burst", Coalesced: false},
	{Name: "coalesced", Coalesced: true},
}

// arm is one executed oracle strategy: its event streams and result.
type arm struct {
	recs []*probe.Recorder
	res  memsys.Result
}

// Differential runs reqs through every Variant of cfg and returns an error
// describing the first divergence from the per-burst reference — the first
// differing event (with index and both values), a mismatched per-channel
// event count, or a result-field difference. cfg.NoCoalesce,
// cfg.SynthCoalescedEvents and cfg.NewProbe are owned by the oracle. Fault plans are rejected: a dropout's dispatch-clock trigger
// is burst-exact only within one dispatch strategy, so faulted runs are
// compared through the separate checker soak instead.
func Differential(cfg memsys.Config, reqs []memsys.Request) error {
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		return fmt.Errorf("check: differential oracle does not support fault plans")
	}
	ref, err := runArm(cfg, Variants[0], reqs)
	if err != nil {
		return err
	}
	for _, v := range Variants[1:] {
		got, err := runArm(cfg, v, reqs)
		if err != nil {
			return err
		}
		if err := diffArms(Variants[0].Name, ref, v.Name, got); err != nil {
			return err
		}
	}
	return nil
}

func runArm(cfg memsys.Config, v Variant, reqs []memsys.Request) (arm, error) {
	c := cfg
	c.NoCoalesce = !v.Coalesced
	c.SynthCoalescedEvents = v.Coalesced
	recs := make([]*probe.Recorder, c.Channels)
	c.NewProbe = func(i int) probe.Sink {
		recs[i] = &probe.Recorder{}
		return recs[i]
	}
	sys, err := memsys.New(c)
	if err != nil {
		return arm{}, fmt.Errorf("check: %s: %w", v.Name, err)
	}
	res, err := sys.Run(memsys.NewSliceSource(reqs))
	if err != nil {
		return arm{}, fmt.Errorf("check: %s: %w", v.Name, err)
	}
	return arm{recs: recs, res: res}, nil
}

// diffArms compares one arm to the reference, event stream first (the
// richer signal), then the aggregate result.
func diffArms(refName string, ref arm, name string, got arm) error {
	for ch := range ref.recs {
		re, ge := ref.recs[ch].Events, got.recs[ch].Events
		n := len(re)
		if len(ge) < n {
			n = len(ge)
		}
		for i := 0; i < n; i++ {
			if re[i] != ge[i] {
				return fmt.Errorf("check: command streams diverge: ch%d event %d: %s=%+v, %s=%+v",
					ch, i, refName, re[i], name, ge[i])
			}
		}
		if len(re) != len(ge) {
			return fmt.Errorf("check: command streams diverge: ch%d has %d events under %s, %d under %s",
				ch, len(re), refName, len(ge), name)
		}
	}
	if !reflect.DeepEqual(ref.res, got.res) {
		return fmt.Errorf("check: results diverge: %s=%+v, %s=%+v", refName, ref.res, name, got.res)
	}
	return nil
}
