// Regression tests pinned to the minimized repros of the protocol bugs the
// invariant checker surfaced in the controller's idle/wake machinery. Each
// scenario replays the exact command sequence that used to violate a device
// constraint and asserts the stream is now clean (plus the bookkeeping the
// fix introduced). The checker is attached as the controller's probe, so a
// reintroduced bug fails here with the violated rule named.
package check_test

import (
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/mapping"
)

// checkedCtl builds a controller observed by a fresh checker.
func checkedCtl(t *testing.T, mutate func(*controller.Config)) (*controller.Controller, *check.Set) {
	t.Helper()
	cfg := controller.Config{
		Speed: speed400(t), Mux: mapping.RBC, Policy: controller.OpenPage, PowerDown: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	set := check.New(check.Options{
		Speed:           cfg.Speed,
		Policy:          cfg.Policy,
		RefreshPostpone: cfg.RefreshPostpone,
		RefreshDisabled: cfg.RefreshDisabled,
	})
	cfg.Probe = set.Channel(0)
	c, err := controller.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, set
}

func mustClean(t *testing.T, set *check.Set) {
	t.Helper()
	if err := set.Err(); err != nil {
		t.Fatalf("%v", err)
	}
}

// Catch-up refreshes after a long power-down gap used to issue back to back
// (one command-bus cycle apart): the refresh path consulted only the open
// banks' precharge floors and ignored actReady, so the second and third REF
// landed inside the previous one's tRFC window.
func TestRegressionCatchUpRefreshSpacing(t *testing.T) {
	c, set := checkedCtl(t, nil)
	s := c.Config().Speed
	c.Access(false, c.Decode(0), 0)
	c.Access(false, c.Decode(64), 3*s.REFI+200) // power-down gap, 3 refreshes due
	c.Flush()
	mustClean(t, set)
	if got := c.Stats().Refreshes; got != 3 {
		t.Errorf("Refreshes = %d, want 3", got)
	}
	if got := c.Stats().PowerDownExits; got != 1 {
		t.Errorf("PowerDownExits = %d, want 1", got)
	}
}

// Without power-down, refreshes due inside an idle gap used to pile up and
// issue back to back at the next access; they are now paced at their due
// times through the gap, keeping both tRFC and the refresh-interval bound.
func TestRegressionIdleRefreshPacingNoPowerDown(t *testing.T) {
	c, set := checkedCtl(t, func(cfg *controller.Config) { cfg.PowerDown = false })
	s := c.Config().Speed
	c.Access(false, c.Decode(0), 0)
	c.Access(false, c.Decode(64), 20*s.REFI)
	c.Flush()
	mustClean(t, set)
	if got := c.Stats().Refreshes; got < 19 || got > 21 {
		t.Errorf("Refreshes = %d, want ~20 (paced through the gap)", got)
	}
}

// Under the closed-page policy a refresh issued right after a short idle gap
// used to land inside the previous access's auto-precharge window (tRP): the
// refresh path never consulted the closed banks' actReady floors.
func TestRegressionRefreshDuringAutoPrecharge(t *testing.T) {
	c, set := checkedCtl(t, func(cfg *controller.Config) { cfg.Policy = controller.ClosedPage })
	s := c.Config().Speed
	end := c.Access(false, c.Decode(0), s.REFI-2) // auto-precharge outlives the data
	c.Access(false, c.Decode(64), end+2)          // wake with a refresh due
	c.Flush()
	mustClean(t, set)
	if got := c.Stats().Refreshes; got < 1 {
		t.Errorf("Refreshes = %d, want >= 1", got)
	}
}

// PrechargeOnIdle used to close banks at the first idle cycle even when a
// write's recovery window (tWR) was still running, and could fire even when
// the precharge would not complete before the next arrival.
func TestRegressionIdlePrechargeHonorsWriteRecovery(t *testing.T) {
	c, set := checkedCtl(t, func(cfg *controller.Config) { cfg.PrechargeOnIdle = true })
	end := c.Access(true, c.Decode(0), 0)
	c.Access(false, c.Decode(0), end+30) // idle gap right inside write recovery
	c.Flush()
	mustClean(t, set)
	st := c.Stats()
	if st.Precharges < 1 {
		t.Errorf("Precharges = %d, want >= 1 (idle precharge)", st.Precharges)
	}
	if st.PrechargePDCycles == 0 {
		t.Error("PrechargePDCycles = 0, want precharged power-down residency")
	}
}

// Postponed-refresh debt served during a power-down gap used to be charged
// as a single fused span (tRP+tRFC in one event, unconditionally paying the
// precharge), emitting a malformed REF with no PRE and ignoring the write
// recovery still in flight at the gap's start.
func TestRegressionPostponedDebtCatchUp(t *testing.T) {
	c, set := checkedCtl(t, func(cfg *controller.Config) { cfg.RefreshPostpone = 8 })
	s := c.Config().Speed
	var end int64
	for i := int64(0); i*2 < s.REFI+400; i++ { // stream writes past tREFI: debt accrues
		end = c.Access(true, c.Decode(i*16), 0)
	}
	c.Access(false, c.Decode(0), end+6000) // gap long enough to serve the debt
	c.Flush()
	mustClean(t, set)
	if got := c.Stats().Refreshes; got < 1 {
		t.Errorf("Refreshes = %d, want the postponed refresh served in the gap", got)
	}
}

// Self-refresh entry with a row still open used to power the banks down
// without a precharge: no PRE command, no tRP, and the precharge count
// stayed flat. Entry now closes the array first.
func TestRegressionSelfRefreshEntryPrecharges(t *testing.T) {
	c, set := checkedCtl(t, nil)
	s := c.Config().Speed
	end := c.Access(false, c.Decode(0), 0)
	c.Access(false, c.Decode(64), end+5*s.REFI) // beyond the self-refresh threshold
	c.Flush()
	mustClean(t, set)
	st := c.Stats()
	if st.SelfRefreshEntries != 1 {
		t.Errorf("SelfRefreshEntries = %d, want 1", st.SelfRefreshEntries)
	}
	if st.Precharges < 1 {
		t.Errorf("Precharges = %d, want >= 1 (precharge-all before entry)", st.Precharges)
	}
}

// AccessRun on a burst-unaligned local address used to spin forever: the
// coalesced walk computed zero same-row bursts and made no progress. The
// unaligned case now takes the per-burst path and must match it exactly.
func TestRegressionUnalignedRunTerminates(t *testing.T) {
	cfg := channel.Config{Controller: controller.Config{
		Speed: speed400(t), Mux: mapping.RBC, Policy: controller.OpenPage, PowerDown: true,
	}}
	c, err := channel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan int64, 1)
	go func() { done <- c.AccessRun(false, 8, 3, 0) }()
	var end int64
	select {
	case end = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("AccessRun hung on a burst-unaligned address")
	}

	ref, err := channel.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	burstBytes := cfg.Controller.Speed.Geometry.BurstBytes()
	var want int64
	for i := int64(0); i < 3; i++ {
		if e := ref.Access(false, 8+i*burstBytes, 0); e > want {
			want = e
		}
	}
	if end != want {
		t.Errorf("unaligned AccessRun end = %d, per-burst reference = %d", end, want)
	}
	if gs, ws := c.Stats(), ref.Stats(); gs != ws {
		t.Errorf("unaligned AccessRun stats diverged:\ngot:  %+v\nwant: %+v", gs, ws)
	}
}
