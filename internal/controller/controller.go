// Package controller implements the per-channel memory controller of the
// paper's channel model (Fig. 2): it maps burst requests onto DRAM commands
// (precharge, activate, read, write, refresh, power-down entry/exit),
// enforces the device's timing constraints cycle-accurately, and accounts
// the state residency the power model consumes.
//
// The controller processes requests in order, one burst at a time, the way
// the paper's single-master load ("predominantly from a single source")
// reaches each channel. Bank-level parallelism still arises because
// consecutive bursts may target different banks whose activates overlap
// earlier bursts' data transfers.
package controller

import (
	"fmt"
	"strings"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/mapping"
	"repro/internal/probe"
	"repro/internal/stats"
)

// PagePolicy identifies a registered scheduling policy (see Policy in
// policy.go). The int identity keeps every configuration struct
// comparable, which the content-addressed cache keys rely on.
type PagePolicy int

const (
	// OpenPage leaves the accessed row open; subsequent accesses to the
	// same row need only a column command. The paper uses open page for
	// all shown results.
	OpenPage PagePolicy = iota
	// ClosedPage precharges the bank immediately after every access
	// (auto-precharge); evaluated as an ablation.
	ClosedPage
	// FRFCFS issues row hits first, then requests to closed banks, then
	// the oldest — first-ready FCFS over a reorder window it opens by
	// default (DefaultFRFCFSDepth).
	FRFCFS
	// BankPartition confines each client stream to its own bank group so
	// streams cannot evict each other's open rows.
	BankPartition
)

// String names the policy.
func (p PagePolicy) String() string {
	if pol, ok := policyFor(p); ok {
		return pol.Name()
	}
	return fmt.Sprintf("PagePolicy(%d)", int(p))
}

// Config parameterizes one channel controller.
type Config struct {
	Speed  dram.Speed
	Mux    mapping.Multiplexing
	Policy PagePolicy
	// PowerDown enables the paper's aggressive power saving: the bank
	// cluster enters a power-down state after the first idle clock cycle
	// and pays tXP on exit.
	PowerDown bool
	// RefreshDisabled turns periodic refresh off (test/ablation use only;
	// real DRAM always refreshes).
	RefreshDisabled bool
	// RecordLatency enables the per-access latency histogram.
	RecordLatency bool
	// RefreshPostpone allows deferring up to this many due refreshes
	// while the channel streams, catching up during idle gaps — the
	// DDR-style postponement that keeps refresh out of the data path.
	// Zero keeps the paper's immediate refresh.
	RefreshPostpone int
	// PrechargeOnIdle closes all banks before entering power-down, so
	// idle time rests in the cheaper precharge power-down state at the
	// cost of re-activating rows on wake.
	PrechargeOnIdle bool
	// SelfRefreshThreshold is the idle-gap length (cycles) beyond which
	// the cluster enters self-refresh instead of power-down; exit costs
	// tXSR and resets the refresh timer. Zero means the default of
	// 4 x tREFI; negative disables self-refresh.
	SelfRefreshThreshold int64
	// WriteBufferDepth > 0 enables a posted-write buffer of that many
	// bursts: writes are accepted immediately and drained back-to-back,
	// amortizing bus turnarounds (an "advanced control mechanism" per the
	// paper's conclusions). Zero keeps the paper's baseline behaviour.
	// Read-after-write hazards are assumed forwarded from the buffer at
	// no DRAM cost (data values are not modeled).
	WriteBufferDepth int
	// Probe, when non-nil, receives a typed event for every DRAM command,
	// row outcome, power-state residency and request enqueue/complete the
	// controller processes (see internal/probe). Bursts applied in a
	// row-run jump (see jumpRow) emit synthesized per-burst event groups,
	// identical event for event to the per-burst path's (the
	// internal/check differential oracle asserts this). Nil — the
	// default — keeps the hot path event-free.
	Probe probe.Sink
	// Channel tags emitted events with this channel index.
	Channel int
	// Faults, when non-nil, is this channel's fault decision stream (see
	// internal/fault): the controller draws stall jitter per request and
	// applies the thermal refresh derate when the plan's cycle passes.
	// Nil — the default — keeps the hot path fault-free, same as Probe.
	Faults *fault.ChannelInjector
}

// Controller is the cycle-level model of one channel: memory controller,
// DRAM interconnect and bank cluster. All times are in DRAM clock cycles
// from the start of the simulation.
type Controller struct {
	cfg     Config
	pol     Policy       // resolved from cfg.Policy in New; stateless singleton
	remap   bankRemapper // pol when it remaps banks, else nil (identity)
	mapper  mapping.BankMapper
	banks   []bankState
	autoPre bool // pol.AutoPrecharge(), cached

	cmdClock      int64 // next free command-bus cycle
	busFreeAt     int64 // first cycle the data bus is free
	lastRdDataEnd int64
	lastWrDataEnd int64
	lastXferWrite bool
	haveXfer      bool
	lastActAt     int64 // most recent ACT on any bank (tRRD)
	actHist       [4]int64
	actHistIdx    int
	actCount      int64
	srThreshold   int64
	refreshDebt   int
	refi          int64 // effective refresh interval (derated thermally)
	derated       bool
	nextRefreshAt int64
	firstCmdAt    int64
	haveCmd       bool

	wbuf []mapping.Location // posted writes awaiting drain

	// Bank-partitioning state: stream id -> assigned bank group, -1 when
	// unseen; partNext is the round-robin cursor. Only the BankPartition
	// policy touches these.
	partGroup []int32
	partNext  int32

	probe   probe.Sink // nil = observability disabled (the fast path)
	chID    int32
	evClock int64 // monotonic floor for emitted event timestamps

	st  stats.Channel
	lat stats.Histogram
}

type bankState struct {
	open        bool
	row         int
	rdwrReady   int64 // earliest RD/WR command (tRCD after ACT)
	preReady    int64 // earliest PRE (tRAS, tRTP, write recovery)
	actReady    int64 // earliest ACT (tRP after PRE, tRC after ACT, tRFC)
	lastDataEnd int64
	accesses    int64
	activates   int64
}

// New builds a channel controller. The multiplexing type in cfg selects the
// bank mapper used by Decode-driven entry points.
func New(cfg Config) (*Controller, error) {
	mapper, err := mapping.NewBankMapper(cfg.Speed.Geometry, cfg.Mux)
	if err != nil {
		return nil, err
	}
	pol, ok := policyFor(cfg.Policy)
	if !ok {
		return nil, fmt.Errorf("controller: unknown page policy %d (valid policies: %s)",
			int(cfg.Policy), strings.Join(PolicyNames(), ", "))
	}
	if cfg.Speed.TCK <= 0 {
		return nil, fmt.Errorf("controller: unresolved speed (use dram.Resolve)")
	}
	if cfg.WriteBufferDepth < 0 {
		return nil, fmt.Errorf("controller: negative write buffer depth %d", cfg.WriteBufferDepth)
	}
	if cfg.RefreshPostpone < 0 {
		return nil, fmt.Errorf("controller: negative refresh postponement %d", cfg.RefreshPostpone)
	}
	remap, _ := pol.(bankRemapper)
	c := &Controller{cfg: cfg, pol: pol, remap: remap, mapper: mapper,
		banks: make([]bankState, cfg.Speed.Geometry.Banks)}
	c.Reset()
	return c, nil
}

// Config returns the controller's configuration.
func (c *Controller) Config() Config { return c.cfg }

// HasProbe reports whether an event sink is attached. Callers emitting
// through EmitEvent should guard with it so the disabled path stays free
// of event construction.
func (c *Controller) HasProbe() bool { return c.probe != nil }

// EmitEvent forwards a channel-level event (enqueue/complete) into the
// controller's probe stream. No-op without a sink.
func (c *Controller) EmitEvent(ev probe.Event) {
	if c.probe == nil {
		return
	}
	c.emitEv(ev)
}

// emitEv tags and forwards one event, clamping At so the per-channel
// stream stays monotonically non-decreasing (the probe contract) even for
// events stamped with request arrival times that lag the command clock.
// End is never clamped: it carries the exact schedule (envelope events
// like enqueue/complete are stamped with arrival and completion times that
// can outrun a command issued just after them, so a clamped At may exceed
// End), and the invariant checker reconstructs true issue cycles from it.
func (c *Controller) emitEv(ev probe.Event) {
	if ev.At < c.evClock {
		ev.At = c.evClock
	} else {
		c.evClock = ev.At
	}
	ev.Channel = c.chID
	c.probe.Emit(ev)
}

// cmdAt reserves the command bus at or after t and returns the issue cycle.
func (c *Controller) cmdAt(t int64) int64 {
	if t < c.cmdClock {
		t = c.cmdClock
	}
	c.cmdClock = t + 1
	if !c.haveCmd {
		c.firstCmdAt = t
		c.haveCmd = true
	}
	return t
}

func max64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}

// refreshNow performs one auto-refresh no earlier than t, first issuing a
// precharge-all when a row is open, and returns the refresh completion
// cycle. The refresh command also waits out every bank's pending activate
// window — a closed bank may still be inside a precharge (tRP) or a prior
// refresh (tRFC), and REF to an idle bank obeys the same spacing as ACT.
func (c *Controller) refreshNow(t int64) int64 {
	pre := t
	anyOpen := false
	refReady := t
	for i := range c.banks {
		refReady = max64(refReady, c.banks[i].actReady)
		if c.banks[i].open {
			anyOpen = true
			pre = max64(pre, c.banks[i].preReady)
		}
	}
	if anyOpen {
		pt := c.cmdAt(pre)
		c.st.Precharges++
		if c.probe != nil {
			c.emitEv(probe.Event{Kind: probe.KindPrecharge, Bank: -1, At: pt, End: pt + c.cfg.Speed.RP})
		}
		refReady = max64(refReady, pt+c.cfg.Speed.RP)
		for i := range c.banks {
			c.banks[i].open = false
		}
	}
	ref := c.cmdAt(refReady)
	c.st.Refreshes++
	done := ref + c.cfg.Speed.RFC
	if c.probe != nil {
		c.emitEv(probe.Event{Kind: probe.KindRefresh, Bank: -1, At: ref, End: done})
	}
	for i := range c.banks {
		c.banks[i].actReady = max64(c.banks[i].actReady, done)
	}
	return done
}

// refresh performs the next scheduled auto-refresh no earlier than earliest
// and advances the schedule.
func (c *Controller) refresh(earliest int64) {
	c.refreshNow(max64(earliest, c.nextRefreshAt))
	c.nextRefreshAt += c.refi
}

// wake accounts an idle gap before arrival and returns the earliest command
// cycle, including the power-down or self-refresh exit penalty when one
// applies.
func (c *Controller) wake(arrival int64) int64 {
	earliest := arrival
	if !c.haveXfer && !c.haveCmd {
		return earliest
	}
	s := &c.cfg.Speed
	idleFrom := max64(c.cmdClock, c.busFreeAt)
	gap := arrival - idleFrom
	if gap <= 1 {
		return earliest
	}
	switch {
	case c.cfg.PowerDown && c.srThreshold > 0 && gap-1 >= c.srThreshold:
		// Long idle: self-refresh maintains the cells at the lowest
		// current; exit costs tXSR and the periodic refresh timer
		// restarts. Entry requires every bank precharged, so an open
		// row costs an explicit precharge-all (tRP) before the cluster
		// drops in.
		entry := idleFrom + 1
		if !c.allBanksClosed() {
			pre := entry
			for i := range c.banks {
				if c.banks[i].open {
					pre = max64(pre, c.banks[i].preReady)
				}
			}
			t := c.cmdAt(pre)
			c.st.Precharges++
			if c.probe != nil {
				c.emitEv(probe.Event{Kind: probe.KindPrecharge, Bank: -1, At: t, End: t + s.RP})
			}
			for i := range c.banks {
				c.banks[i].open = false
				c.banks[i].actReady = max64(c.banks[i].actReady, t+s.RP)
			}
			entry = t + s.RP
		}
		resid := arrival - entry
		if resid < 0 {
			resid = 0
		}
		c.st.SelfRefreshCycles += resid
		c.st.SelfRefreshEntries++
		if c.probe != nil {
			c.emitEv(probe.Event{Kind: probe.KindSelfRefresh,
				Bank: -1, At: arrival - resid, End: arrival, Aux: resid})
		}
		earliest = arrival + s.XSR
		c.nextRefreshAt = arrival + c.refi
	case c.cfg.PowerDown:
		// The cluster powers down after the first idle cycle and needs
		// tXP before the next command. With all banks closed it rests
		// in the cheaper precharge power-down state.
		spent := idleFrom + 1 // cursor for refresh/precharge event times
		// Postponed refreshes catch up inside the gap while they fit;
		// each one honors the banks' recovery windows (write recovery,
		// tRAS before the implicit precharge-all, the previous
		// refresh's tRFC) exactly like a foreground refresh.
		if c.refreshDebt > 0 && !c.cfg.RefreshDisabled {
			for c.refreshDebt > 0 {
				cost := s.RFC
				if !c.allBanksClosed() {
					cost += s.RP
				}
				if spent+cost > arrival {
					break
				}
				c.refreshDebt--
				spent = c.refreshNow(spent)
			}
		}
		if c.cfg.PrechargeOnIdle && !c.allBanksClosed() {
			// Precharge-all before dropping into power-down, once the
			// open rows' restore and recovery windows allow it.
			pre := spent
			for i := range c.banks {
				if c.banks[i].open {
					pre = max64(pre, c.banks[i].preReady)
				}
			}
			if pre+s.RP <= arrival {
				t := c.cmdAt(pre)
				c.st.Precharges++
				if c.probe != nil {
					c.emitEv(probe.Event{Kind: probe.KindPrecharge, Bank: -1, At: t, End: t + s.RP})
				}
				for i := range c.banks {
					c.banks[i].open = false
					c.banks[i].actReady = max64(c.banks[i].actReady, t+s.RP)
				}
				spent = t + s.RP
			}
		}
		idle := arrival - spent
		if idle < 0 {
			idle = 0
		}
		c.st.PowerDownCycles += idle
		precharged := c.allBanksClosed()
		if precharged {
			c.st.PrechargePDCycles += idle
		}
		c.st.PowerDownExits++
		if c.probe != nil {
			ev := probe.Event{Kind: probe.KindPowerDown, Bank: -1, At: arrival - idle, End: arrival, Aux: idle}
			if precharged {
				ev.Flags |= probe.FlagPrechargedPD
			}
			c.emitEv(ev)
		}
		earliest = arrival + s.XP
	default:
		// No power-down: the controller stays awake through the gap and
		// serves refresh on schedule — first any postponed debt, then
		// each due interval at its due time — so retention never rides
		// on the next request's arrival.
		if !c.cfg.RefreshDisabled {
			t := idleFrom + 1
			for c.refreshDebt > 0 && t+s.RFC <= arrival {
				c.refreshDebt--
				t = c.refreshNow(t)
			}
			for c.nextRefreshAt < arrival {
				c.refresh(idleFrom + 1)
			}
		}
	}
	return earliest
}

// allBanksClosed reports whether no bank holds an open row.
func (c *Controller) allBanksClosed() bool {
	for i := range c.banks {
		if c.banks[i].open {
			return false
		}
	}
	return true
}

// Access processes one burst at the decoded location. arrival is the cycle
// the request reaches the controller; the returned cycle is when its last
// data beat leaves the bus. With a write buffer configured, writes are
// posted: they return their acceptance cycle immediately and reach the DRAM
// when the buffer drains (buffer full, or Flush).
func (c *Controller) Access(write bool, loc mapping.Location, arrival int64) int64 {
	if arrival < 0 {
		arrival = 0
	}
	if c.cfg.Faults != nil {
		if st := c.cfg.Faults.Stall(); st > 0 {
			if c.probe != nil {
				c.emitEv(probe.Event{Kind: probe.KindStall, Bank: -1, At: arrival, End: arrival + st, Aux: st})
			}
			arrival += st
		}
	}
	if write && c.cfg.WriteBufferDepth > 0 {
		// Posted write: buffered with no DRAM interaction, so the
		// cluster's power state is untouched until the drain.
		c.wbuf = append(c.wbuf, loc)
		if len(c.wbuf) >= c.cfg.WriteBufferDepth {
			return c.drainWrites(c.wake(arrival))
		}
		return arrival
	}
	return c.perform(write, loc, c.wake(arrival), arrival)
}

// drainWrites replays the posted writes back-to-back: one bus turnaround
// for the whole batch instead of one per write.
func (c *Controller) drainWrites(earliest int64) int64 {
	var end int64
	for _, loc := range c.wbuf {
		end = c.perform(true, loc, earliest, earliest)
	}
	c.wbuf = c.wbuf[:0]
	return end
}

// Flush drains any posted writes and returns the channel makespan.
func (c *Controller) Flush() int64 {
	if len(c.wbuf) > 0 {
		c.drainWrites(c.wake(max64(c.cmdClock, c.busFreeAt)))
	}
	return c.st.BusyCycles
}

// perform executes one burst against the DRAM, no earlier than earliest.
func (c *Controller) perform(write bool, loc mapping.Location, earliest, arrival int64) int64 {
	s := &c.cfg.Speed
	attendAt := max64(arrival, max64(c.cmdClock, c.busFreeAt))

	// Thermal derate: once the plan's cycle passes, the refresh interval
	// shortens (hot devices refresh at a multiple of the nominal rate) and
	// the next due refresh moves up accordingly.
	if c.cfg.Faults != nil && !c.derated {
		if at := c.cfg.Faults.DerateAtCycle(); at > 0 && max64(earliest, c.cmdClock) >= at {
			c.derated = true
			c.refi = s.REFI / c.cfg.Faults.RefreshDivisor()
			if c.refi < 1 {
				c.refi = 1
			}
			if due := max64(earliest, c.cmdClock) + c.refi; c.nextRefreshAt > due {
				c.nextRefreshAt = due
			}
			c.cfg.Faults.CountDerate()
			if c.probe != nil {
				c.emitEv(probe.Event{Kind: probe.KindThermalDerate, Bank: -1,
					At: max64(earliest, c.cmdClock), End: max64(earliest, c.cmdClock), Aux: c.refi})
			}
		}
	}

	// Serve any due refresh before the access, unless postponement has
	// headroom to keep the stream flowing.
	if !c.cfg.RefreshDisabled {
		for c.nextRefreshAt <= max64(earliest, c.cmdClock) {
			if c.refreshDebt < c.cfg.RefreshPostpone {
				c.refreshDebt++
				c.nextRefreshAt += c.refi
				continue
			}
			c.refresh(earliest)
		}
	}

	b := &c.banks[loc.Bank]
	b.accesses++
	rowHit := false
	switch {
	case b.open && b.row == loc.Row:
		c.st.RowHits++
		rowHit = true
	case b.open:
		c.st.RowConflicts++
		t := c.cmdAt(max64(earliest, b.preReady))
		c.st.Precharges++
		if c.probe != nil {
			c.emitEv(probe.Event{Kind: probe.KindRowConflict, Bank: int32(loc.Bank), Row: int32(loc.Row), At: t, End: t})
			c.emitEv(probe.Event{Kind: probe.KindPrecharge, Bank: int32(loc.Bank), At: t, End: t + s.RP})
		}
		b.open = false
		b.actReady = max64(b.actReady, t+s.RP)
		c.activate(b, int32(loc.Bank), loc.Row, earliest)
	default:
		c.st.RowMisses++
		act := c.activate(b, int32(loc.Bank), loc.Row, earliest)
		if c.probe != nil {
			c.emitEv(probe.Event{Kind: probe.KindRowMiss, Bank: int32(loc.Bank), Row: int32(loc.Row), At: act, End: act})
		}
	}

	var dataEnd int64
	if write {
		cand := max64(earliest, b.rdwrReady)
		// Data must find the bus free; turning the bus around after a
		// read costs one bubble cycle.
		cand = max64(cand, c.busFreeAt-s.CWL)
		if c.haveXfer && !c.lastXferWrite {
			cand = max64(cand, c.lastRdDataEnd+1-s.CWL)
		}
		t := c.cmdAt(cand)
		dataEnd = t + s.CWL + s.BurstCycles
		c.lastWrDataEnd = dataEnd
		c.lastXferWrite = true
		// Write recovery gates the following precharge.
		b.preReady = max64(b.preReady, dataEnd+s.WR)
		c.st.Writes++
		c.st.WriteBusCycles += s.BurstCycles
		if c.probe != nil {
			if rowHit {
				c.emitEv(probe.Event{Kind: probe.KindRowHit, Bank: int32(loc.Bank), Row: int32(loc.Row), At: t, End: t})
			}
			c.emitEv(probe.Event{Kind: probe.KindWrite, Bank: int32(loc.Bank), Row: int32(loc.Row),
				At: t, End: dataEnd, Aux: s.BurstCycles})
		}
	} else {
		cand := max64(earliest, b.rdwrReady)
		cand = max64(cand, c.busFreeAt-s.CL)
		if c.haveXfer && c.lastXferWrite {
			// tWTR: internal write-to-read turnaround from the end
			// of write data, plus the bus bubble.
			cand = max64(cand, c.lastWrDataEnd+s.WTR)
			cand = max64(cand, c.lastWrDataEnd+1-s.CL)
		}
		t := c.cmdAt(cand)
		dataEnd = t + s.CL + s.BurstCycles
		c.lastRdDataEnd = dataEnd
		c.lastXferWrite = false
		b.preReady = max64(b.preReady, t+s.RTP)
		c.st.Reads++
		c.st.ReadBusCycles += s.BurstCycles
		if c.probe != nil {
			if rowHit {
				c.emitEv(probe.Event{Kind: probe.KindRowHit, Bank: int32(loc.Bank), Row: int32(loc.Row), At: t, End: t})
			}
			c.emitEv(probe.Event{Kind: probe.KindRead, Bank: int32(loc.Bank), Row: int32(loc.Row),
				At: t, End: dataEnd, Aux: s.BurstCycles})
		}
	}
	c.haveXfer = true
	c.busFreeAt = dataEnd
	b.lastDataEnd = dataEnd
	if dataEnd > c.st.BusyCycles {
		c.st.BusyCycles = dataEnd
	}

	if c.autoPre {
		// Auto-precharge: the bank closes itself once its restore and
		// recovery windows elapse; no explicit PRE command is spent.
		t := max64(b.preReady, dataEnd)
		b.open = false
		b.actReady = max64(b.actReady, t+s.RP)
	}

	if c.cfg.RecordLatency {
		// Service latency: completion relative to when the channel
		// could first attend to this request (its arrival, or the end
		// of the preceding work under back-to-back load). Under paced
		// load this includes the power-down wake.
		c.lat.Observe(dataEnd - attendAt)
	}
	return dataEnd
}

// activate opens row in bank b no earlier than earliest, returning the
// ACT issue cycle.
func (c *Controller) activate(b *bankState, bank int32, row int, earliest int64) int64 {
	s := &c.cfg.Speed
	cand := max64(earliest, b.actReady)
	if c.haveActs() {
		cand = max64(cand, c.lastActAt+s.RRD)
	}
	// Four-activate window: the fifth ACT waits for the oldest of the
	// last four plus tFAW.
	if s.FAW > 0 && c.actCount >= 4 {
		cand = max64(cand, c.actHist[c.actHistIdx]+s.FAW)
	}
	t := c.cmdAt(cand)
	c.actHist[c.actHistIdx] = t
	c.actHistIdx = (c.actHistIdx + 1) % 4
	c.actCount++
	c.lastActAt = t
	b.open = true
	b.row = row
	b.rdwrReady = t + s.RCD
	b.preReady = t + s.RAS
	b.actReady = t + s.RC
	b.activates++
	c.st.Activates++
	if c.probe != nil {
		c.emitEv(probe.Event{Kind: probe.KindActivate, Bank: bank, Row: int32(row), At: t, End: t + s.RCD})
	}
	return t
}

func (c *Controller) haveActs() bool { return c.st.Activates > 0 }

// AccessAddr decodes a channel-local byte address and performs the burst.
func (c *Controller) AccessAddr(write bool, local int64, arrival int64) int64 {
	return c.Access(write, c.mapper.Decode(local), arrival)
}

// queueEvents describes the reorder-queue events that bracket each burst a
// same-row run hands the controller: the enqueue of the burst arriving (its
// bank and arrival, and the window occupancy after it entered) and the
// completion of the burst issued (the occupancy after it left). The depth-0
// window is occupancy 1 on enqueue and 0 on completion.
type queueEvents struct {
	enqBank   int32
	enqAt     int64
	enqDepth  int32
	doneDepth int32
}

// accessOne performs one burst through the exact path, bracketed by its
// queue events when a probe is attached.
func (c *Controller) accessOne(write bool, loc mapping.Location, arrival int64, ev queueEvents) int64 {
	if c.probe == nil {
		return c.Access(write, loc, arrival)
	}
	c.emitEv(probe.Event{Kind: probe.KindEnqueue, Bank: ev.enqBank, At: ev.enqAt, End: ev.enqAt, Depth: ev.enqDepth})
	end := c.Access(write, loc, arrival)
	c.emitComplete(int32(loc.Bank), end, arrival, ev.doneDepth)
	return end
}

// emitComplete emits the queue's completion event for a burst that arrived
// at arrival and finished at end.
func (c *Controller) emitComplete(bank int32, end, arrival int64, depth int32) {
	lat := end - arrival
	if lat < 0 {
		lat = 0
	}
	c.emitEv(probe.Event{Kind: probe.KindComplete, Bank: bank, At: end, End: end, Aux: lat, Depth: depth})
}

// accessRow serves n >= 1 sequential bursts inside one row, all arriving at
// arrival, for the in-order (depth-0) window: the first burst runs through
// the full Access path (wake, refresh, row transition, turnaround), and the
// rest are applied in arithmetic jumps wherever jumpRow proves the schedule
// periodic, falling back to the exact path burst by burst elsewhere. It
// returns the latest of the n completions (a posted write completes at
// acceptance, the write that fills the buffer at the drain's end),
// bit-identical to n Access calls.
func (c *Controller) accessRow(write bool, loc mapping.Location, n int, arrival int64) int64 {
	ev := queueEvents{enqBank: int32(loc.Bank), enqAt: arrival, enqDepth: 1}
	end := c.accessOne(write, loc, arrival, ev)
	for left := int64(n - 1); left > 0; {
		if m, e := c.jumpRow(write, loc, arrival, left, ev); m > 0 {
			end = max64(end, e)
			left -= m
			continue
		}
		end = max64(end, c.accessOne(write, loc, arrival, ev))
		left--
	}
	return end
}

// jumpRow applies up to m of the next bursts of a same-row,
// same-direction run, all arriving at arrival, in one arithmetic jump:
// O(1) state updates, plus O(m) synthesized events when a probe is
// attached (ev describes the queue events bracketing each burst). It
// returns how many bursts it applied and the last one's data end; zero
// sends the next burst through the exact path. The caller guarantees the
// last burst performed was this run's previous burst, so its RD/WR is the
// latest command, at t0 = cmdClock-1, and the j-th jumped burst's RD/WR
// issues at t0 + j*p.
//
// Rows kept open (open page, bank partitioning, FR-FCFS): each further
// burst is a row hit whose candidate is max(arrival, rdwrReady,
// busFreeAt-lead, cmdClock); the previous issue already dominates arrival
// and rdwrReady, and busFreeAt-lead is one BurstCycles later, so p =
// BurstCycles.
//
// Closed page: every burst is ACT then RD/WR with auto-precharge, so the
// bank's next ACT waits for the precharge bound pre = max(tRC, tAP+tRP),
// where tAP, the auto-precharge point after ACT, is the latest of tRAS,
// tRCD+tRTP (reads) or tRCD+tCWL+BurstCycles+tWR (writes), and the data
// end. With the ACT spaced by tRRD from the previous one and by one cycle
// from the RD/WR command, p = max(pre, tRRD, tRCD+1), provided the state
// is already steady: the last ACT was this bank's, its RD/WR issued at
// ACT+tRCD, and the bank's next-ACT time is exactly ACT+pre. tFAW must not
// bind: a jump is refused outright when tFAW > 4p, and the first three
// jumped ACTs are checked against the activate history.
//
// Either way the count is capped so that a due refresh, checked against
// the command clock before every burst, still fires on its exact cycle.
// Fault streams and posted writes keep the exact path; a probe sees the
// jumped bursts as synthesized events.
func (c *Controller) jumpRow(write bool, loc mapping.Location, arrival, m int64, ev queueEvents) (int64, int64) {
	if c.cfg.Faults != nil || (write && c.cfg.WriteBufferDepth > 0) || c.lastXferWrite != write {
		return 0, 0
	}
	s := &c.cfg.Speed
	b := &c.banks[loc.Bank]
	p := s.BurstCycles
	if c.autoPre {
		act := b.rdwrReady - s.RCD
		lead, tap := s.CL, max64(s.RAS, s.RCD+s.RTP)
		if write {
			lead, tap = s.CWL, max64(s.RAS, s.RCD+s.CWL+s.BurstCycles+s.WR)
		}
		pre := max64(s.RC, max64(tap, s.RCD+lead+s.BurstCycles)+s.RP)
		if b.open || c.lastActAt != act || c.cmdClock-1 != act+s.RCD || b.actReady != act+pre {
			return 0, 0
		}
		p = max64(pre, max64(s.RRD, s.RCD+1))
		if s.FAW > p { // else no ACT at or before act can bind one after it
			if s.FAW > 4*p {
				return 0, 0
			}
			// ACT j of the jump looks back at ACT j-4: for j >= 4 that
			// is a jumped ACT 4p earlier; for j <= 3, a recorded one.
			for j := int64(1); j <= 3 && j <= m; j++ {
				if c.actCount+j-1 >= 4 && c.actHist[(c.actHistIdx+int(j)-1)%4]+s.FAW > act+j*p {
					m = j - 1
					break
				}
			}
		}
	} else if !c.rowOpen(loc) {
		return 0, 0
	}
	if !c.cfg.RefreshDisabled {
		// Burst j's refresh check sees cmdClock + (j-1)p.
		slack := c.nextRefreshAt - c.cmdClock - 1
		if slack < 0 {
			return 0, 0
		}
		if slack < (m-1)*p {
			m = slack/p + 1
		}
	}
	if m <= 0 {
		return 0, 0
	}
	t0 := c.cmdClock - 1
	t := t0 + m*p
	kind, lead := probe.KindRead, s.CL
	if write {
		kind, lead = probe.KindWrite, s.CWL
	}
	dataEnd := t + lead + s.BurstCycles
	if c.probe != nil {
		// Reconstruct the per-burst event groups the exact path would
		// emit. Raw timestamps are identical to the reference path's, and
		// emitEv applies the same monotonic clamp, so the streams match
		// event for event.
		bank, row := int32(loc.Bank), int32(loc.Row)
		for j := int64(1); j <= m; j++ {
			tj := t0 + j*p
			de := tj + lead + s.BurstCycles
			c.emitEv(probe.Event{Kind: probe.KindEnqueue, Bank: ev.enqBank, At: ev.enqAt, End: ev.enqAt, Depth: ev.enqDepth})
			if c.autoPre {
				act := tj - s.RCD
				c.emitEv(probe.Event{Kind: probe.KindActivate, Bank: bank, Row: row, At: act, End: tj})
				c.emitEv(probe.Event{Kind: probe.KindRowMiss, Bank: bank, Row: row, At: act, End: act})
			} else {
				c.emitEv(probe.Event{Kind: probe.KindRowHit, Bank: bank, Row: row, At: tj, End: tj})
			}
			c.emitEv(probe.Event{Kind: kind, Bank: bank, Row: row, At: tj, End: de, Aux: s.BurstCycles})
			c.emitComplete(bank, de, arrival, ev.doneDepth)
		}
	}
	if c.autoPre {
		// Every jumped burst activated the row; record the last four ACTs
		// and the bank's windows after the last one, as activate and the
		// auto-precharge would.
		act := t - s.RCD
		for j := max64(1, m-3); j <= m; j++ {
			c.actHist[(c.actHistIdx+int(j)-1)%4] = act - (m-j)*p
		}
		c.actHistIdx = (c.actHistIdx + int(m%4)) % 4
		c.actCount += m
		c.lastActAt = act
		b.rdwrReady = t
		b.preReady = act + s.RAS
		b.activates += m
		c.st.Activates += m
		c.st.RowMisses += m
	} else {
		c.st.RowHits += m
	}
	if write {
		c.lastWrDataEnd = dataEnd
		b.preReady = max64(b.preReady, dataEnd+s.WR)
		c.st.Writes += m
		c.st.WriteBusCycles += m * s.BurstCycles
	} else {
		c.lastRdDataEnd = dataEnd
		b.preReady = max64(b.preReady, t+s.RTP)
		c.st.Reads += m
		c.st.ReadBusCycles += m * s.BurstCycles
	}
	if c.autoPre {
		b.actReady = max64(t-s.RCD+s.RC, max64(b.preReady, dataEnd)+s.RP)
	}
	c.cmdClock = t + 1
	c.busFreeAt = dataEnd
	b.lastDataEnd = dataEnd
	b.accesses += m
	c.st.BusyCycles = max64(c.st.BusyCycles, dataEnd)
	if c.cfg.RecordLatency {
		// Each jumped burst completes p after the previous one and could
		// first be attended at that previous completion.
		c.lat.ObserveN(p, m)
	}
	return m, dataEnd
}

// Decode maps a channel-local byte address to its DRAM coordinate.
func (c *Controller) Decode(local int64) mapping.Location {
	return c.mapper.Decode(local)
}

// BankStats describes one bank's share of the channel's activity — useful
// for judging buffer placement and bank balance.
type BankStats struct {
	Bank      int
	Accesses  int64
	Activates int64
}

// BankBalance returns per-bank access and activate counts.
func (c *Controller) BankBalance() []BankStats {
	out := make([]BankStats, len(c.banks))
	for i := range c.banks {
		out[i] = BankStats{Bank: i, Accesses: c.banks[i].accesses, Activates: c.banks[i].activates}
	}
	return out
}

// Stats returns the accumulated counters.
func (c *Controller) Stats() stats.Channel { return c.st }

// Latency returns the per-access latency histogram (empty unless
// RecordLatency was set).
func (c *Controller) Latency() *stats.Histogram { return &c.lat }

// BusyCycles returns the channel makespan: the cycle the last data beat
// left the bus.
func (c *Controller) BusyCycles() int64 { return c.st.BusyCycles }

// CopyStateFrom makes c's simulation state a copy of src's, so c continues
// exactly as src would: banks, timing registers, refresh schedule, write
// buffer, partition table, stats and latency histogram. c keeps its
// identity — its configuration (and with it the channel index) and its
// probe sink — and src must have been built from the same configuration
// apart from those. The slices are copied into c's existing backing
// arrays, so a copy allocates nothing once c's buffers have grown.
func (c *Controller) CopyStateFrom(src *Controller) {
	cfg, sink, chID := c.cfg, c.probe, c.chID
	banks, wbuf, part := c.banks, c.wbuf, c.partGroup
	*c = *src
	c.cfg, c.probe, c.chID = cfg, sink, chID
	c.banks = copyInto(banks, src.banks)
	c.wbuf = copyInto(wbuf, src.wbuf)
	c.partGroup = copyInto(part, src.partGroup)
}

// copyInto returns src's elements in dst's backing array (grown when too
// small). A nil src stays nil, so the copy is deeply equal to src.
func copyInto[T any](dst, src []T) []T {
	if src == nil {
		return nil
	}
	return append(dst[:0], src...)
}

// Reset returns the controller to its initial state, keeping configuration.
// The probe sink (when configured) is retained; its event stream restarts
// from cycle zero. New builds every controller through Reset, and Reset
// rebuilds the whole struct from the configuration and the state New
// derived from it, so a field added to Controller can never be forgotten
// here — a reset controller is a fresh one by construction (the
// equivalence test pins this with reflection). The banks' backing array
// is zeroed and kept, so a Reset allocates nothing.
func (c *Controller) Reset() {
	cfg, banks := c.cfg, c.banks
	clear(banks)
	*c = Controller{
		cfg:     cfg,
		pol:     c.pol,
		remap:   c.remap,
		mapper:  c.mapper,
		banks:   banks,
		autoPre: c.pol.AutoPrecharge(),
		probe:   cfg.Probe,
		chID:    int32(cfg.Channel),

		refi:          cfg.Speed.REFI,
		nextRefreshAt: cfg.Speed.REFI,
	}
	switch {
	case cfg.SelfRefreshThreshold > 0:
		c.srThreshold = cfg.SelfRefreshThreshold
	case cfg.SelfRefreshThreshold == 0:
		c.srThreshold = 4 * cfg.Speed.REFI
	default:
		c.srThreshold = 0 // disabled
	}
}
