// The differential oracle replays one request stream through the
// simulator's two dispatch strategies — per-burst (NoCoalesce, the
// reference) and coalesced (the path every run ships with, observed or
// not) — and diffs the full per-channel command streams, not just the end
// statistics. On the coalesced arm whole per-channel runs take the row
// walk and its arithmetic jumps (the open-row recurrence, the closed-page
// ACT period and the reorder window's run continuation) while emitting
// their reconstruction of the per-burst events; any divergence in an event
// field, an event count or a result field is a bug in one of the paths.
package check

import (
	"fmt"
	"reflect"

	"repro/internal/memsys"
	"repro/internal/probe"
)

// arm is one executed oracle strategy: its event streams and result.
type arm struct {
	recs []*probe.Recorder
	res  memsys.Result
}

// Differential runs reqs through cfg per burst and coalesced and returns
// an error describing the first divergence from the per-burst reference —
// the first differing event (with index and both values), a mismatched
// per-channel event count, or a result-field difference. cfg.NoCoalesce
// and cfg.NewProbe are owned by the oracle. Fault plans are rejected: a
// dropout's dispatch-clock trigger is burst-exact only within one dispatch
// strategy, so faulted runs are compared through the separate checker soak
// instead.
func Differential(cfg memsys.Config, reqs []memsys.Request) error {
	if cfg.Faults != nil && cfg.Faults.Enabled() {
		return fmt.Errorf("check: differential oracle does not support fault plans")
	}
	ref, err := runArm(cfg, true, reqs)
	if err != nil {
		return err
	}
	got, err := runArm(cfg, false, reqs)
	if err != nil {
		return err
	}
	return diffArms(ref, got)
}

// The two strategies' names in errors.
const refName, coalescedName = "per-burst", "coalesced"

func runArm(cfg memsys.Config, perBurst bool, reqs []memsys.Request) (arm, error) {
	name := coalescedName
	if perBurst {
		name = refName
	}
	c := cfg
	c.NoCoalesce = perBurst
	recs := make([]*probe.Recorder, c.Channels)
	c.NewProbe = func(i int) probe.Sink {
		recs[i] = &probe.Recorder{}
		return recs[i]
	}
	sys, err := memsys.New(c)
	if err != nil {
		return arm{}, fmt.Errorf("check: %s: %w", name, err)
	}
	res, err := sys.Run(memsys.NewSliceSource(reqs))
	if err != nil {
		return arm{}, fmt.Errorf("check: %s: %w", name, err)
	}
	return arm{recs: recs, res: res}, nil
}

// diffArms compares the coalesced arm to the per-burst reference, event
// stream first (the richer signal), then the aggregate result.
func diffArms(ref, got arm) error {
	for ch := range ref.recs {
		re, ge := ref.recs[ch].Events, got.recs[ch].Events
		n := len(re)
		if len(ge) < n {
			n = len(ge)
		}
		for i := 0; i < n; i++ {
			if re[i] != ge[i] {
				return fmt.Errorf("check: command streams diverge: ch%d event %d: %s=%+v, %s=%+v",
					ch, i, refName, re[i], coalescedName, ge[i])
			}
		}
		if len(re) != len(ge) {
			return fmt.Errorf("check: command streams diverge: ch%d has %d events under %s, %d under %s",
				ch, len(re), refName, len(ge), coalescedName)
		}
	}
	if !reflect.DeepEqual(ref.res, got.res) {
		return fmt.Errorf("check: results diverge: %s=%+v, %s=%+v", refName, ref.res, coalescedName, got.res)
	}
	return nil
}
