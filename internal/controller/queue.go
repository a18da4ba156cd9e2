package controller

import (
	"repro/internal/mapping"
	"repro/internal/probe"
)

// queuedRequest is one pending burst in the reorder queue.
type queuedRequest struct {
	write   bool
	loc     mapping.Location
	arrival int64
	seq     int64
}

// ReorderQueue wraps a Controller with a small FR-FCFS-style scheduling
// window: up to Depth pending bursts, from which the scheduler issues
// row-buffer hits first and otherwise the oldest request — the classic
// first-ready, first-come-first-served policy. The paper's controller is
// strictly in-order; this is an "advanced control mechanism" extension per
// its conclusions.
//
// Reordering assumes the window's requests are independent, which holds for
// the recording load's concurrent streams (each stream is internally
// ordered by the generator, and the window is far smaller than any
// stage-to-stage dependency distance). An anti-starvation bound forces the
// oldest request out after it has been bypassed maxBypass times.
type ReorderQueue struct {
	ctl      *Controller
	depth    int
	pending  []queuedRequest
	nextSeq  int64
	bypassOf int64 // seq of the tracked oldest, for starvation accounting
	bypasses int
}

// maxBypass bounds how many times the oldest pending request may be
// overtaken before it is forced to issue.
const maxBypass = 16

// NewReorderQueue builds the scheduling window. depth == 0 degenerates to
// the in-order controller.
func NewReorderQueue(ctl *Controller, depth int) *ReorderQueue {
	if depth < 0 {
		depth = 0
	}
	return &ReorderQueue{ctl: ctl, depth: depth}
}

// Controller returns the wrapped channel controller.
func (q *ReorderQueue) Controller() *Controller { return q.ctl }

// Access enqueues one burst; when the window is full, the best pending
// request issues. The returned cycle is the completion of whichever request
// was issued (or the acceptance cycle when only enqueued).
func (q *ReorderQueue) Access(write bool, loc mapping.Location, arrival int64) int64 {
	if q.depth == 0 {
		if q.ctl.HasProbe() {
			q.ctl.EmitEvent(probe.Event{Kind: probe.KindEnqueue, Bank: int32(loc.Bank), At: arrival, End: arrival, Depth: 1})
		}
		end := q.ctl.Access(write, loc, arrival)
		if q.ctl.HasProbe() {
			lat := end - arrival
			if lat < 0 {
				lat = 0
			}
			q.ctl.EmitEvent(probe.Event{Kind: probe.KindComplete, Bank: int32(loc.Bank), At: end, End: end, Aux: lat})
		}
		return end
	}
	q.pending = append(q.pending, queuedRequest{write: write, loc: loc, arrival: arrival, seq: q.nextSeq})
	q.nextSeq++
	if q.ctl.HasProbe() {
		q.ctl.EmitEvent(probe.Event{Kind: probe.KindEnqueue, Bank: int32(loc.Bank),
			At: arrival, End: arrival, Depth: int32(len(q.pending))})
	}
	if len(q.pending) < q.depth {
		return arrival
	}
	return q.issueBest()
}

// issueBest issues the policy's preferred pending request (row hits first
// for every built-in; FR-FCFS additionally prefers closed banks), forcing
// the oldest once the anti-starvation bound trips. pending is kept in
// arrival order, so the oldest request is always pending[0].
func (q *ReorderQueue) issueBest() int64 {
	if q.bypassOf != q.pending[0].seq {
		q.bypassOf = q.pending[0].seq
		q.bypasses = 0
	}
	best := 0
	if q.bypasses < maxBypass {
		if best = q.ctl.pol.Pick(q.ctl, q.pending); best < 0 {
			best = 0
		}
	}
	r := q.pending[best]
	if best != 0 {
		q.bypasses++
	}
	q.pending = q.pending[:best+copy(q.pending[best:], q.pending[best+1:])]
	end := q.ctl.Access(r.write, r.loc, r.arrival)
	if q.ctl.HasProbe() {
		lat := end - r.arrival
		if lat < 0 {
			lat = 0
		}
		q.ctl.EmitEvent(probe.Event{Kind: probe.KindComplete, Bank: int32(r.loc.Bank),
			At: end, End: end, Aux: lat, Depth: int32(len(q.pending))})
	}
	return end
}

// Flush issues every pending request and drains the controller's write
// buffer, returning the final makespan.
func (q *ReorderQueue) Flush() int64 {
	for len(q.pending) > 0 {
		q.issueBest()
	}
	return q.ctl.Flush()
}

// Pending returns the number of queued requests.
func (q *ReorderQueue) Pending() int { return len(q.pending) }

// rowOpen reports whether the location's row is currently open — the
// scheduler's row-hit predicate.
func (c *Controller) rowOpen(loc mapping.Location) bool {
	b := &c.banks[loc.Bank]
	return b.open && b.row == loc.Row
}

// Depth returns the window size (0 = in-order).
func (q *ReorderQueue) Depth() int { return q.depth }
