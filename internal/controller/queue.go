package controller

import (
	"repro/internal/mapping"
	"repro/internal/probe"
)

// queuedRequest is one pending same-row run in the reorder window: n >= 1
// bursts with consecutive seqs starting at seq, one direction and one
// arrival. A single burst is a run of one. All bursts of a run share its
// bank and row, so every Policy.Pick matches them alike and a pick is
// always a run's head burst. The controller's timing reads only a
// location's bank and row, so loc keeps the run's first column and no
// per-burst column is tracked.
type queuedRequest struct {
	write   bool
	loc     mapping.Location
	arrival int64
	seq     int64
	n       int64
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
//
// The window holds runs, not bursts (see queuedRequest); the schedule is
// bit-identical to enqueueing and issuing one burst at a time.
type ReorderQueue struct {
	ctl      *Controller
	depth    int
	pending  []queuedRequest
	count    int // bursts pending across all runs
	nextSeq  int64
	bypassOf int64 // seq of the tracked oldest, for starvation accounting
	bypasses int
	// last is the run of the latest issue, advanced past it (n == 0 once
	// it emptied and left the window), at index lastIdx. hot reports that
	// this issue was the controller's latest work, so by the Policy.Pick
	// contract the run is also the next pick (see continueRun).
	last    queuedRequest
	lastIdx int
	hot     bool
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

// Reset empties the window and restarts its sequence and starvation
// accounting, keeping its controller, depth and pending backing array; it
// does not reset the controller.
func (q *ReorderQueue) Reset() {
	*q = ReorderQueue{ctl: q.ctl, depth: q.depth, pending: q.pending[:0]}
}

// Controller returns the wrapped channel controller.
func (q *ReorderQueue) Controller() *Controller { return q.ctl }

// Access enqueues one burst; when the window is full, the best pending
// request issues. The returned cycle is the completion of whichever request
// was issued (or the acceptance cycle when only enqueued). Each burst is a
// run of its own and issues through the exact path, so Access is the
// per-burst reference AccessRow must reproduce.
func (q *ReorderQueue) Access(write bool, loc mapping.Location, arrival int64) int64 {
	if q.depth == 0 {
		return q.ctl.accessOne(write, loc, arrival, queueEvents{enqBank: int32(loc.Bank), enqAt: arrival, enqDepth: 1})
	}
	q.pending = append(q.pending, queuedRequest{write: write, loc: loc, arrival: arrival, seq: q.nextSeq, n: 1})
	q.nextSeq++
	q.count++
	q.emitEnqueue(loc, arrival)
	if q.count < q.depth {
		return arrival
	}
	return q.issueBest()
}

// AccessRow enqueues n >= 1 sequential same-direction bursts inside one
// row, starting at loc and all arriving at arrival, and returns the latest
// cycle n Access calls would have returned. The schedule, statistics and
// probe events are bit-identical to those calls.
//
// In order (depth 0) the run goes to the controller's row path. With a
// window, each burst that fills it issues the policy's pick exactly, unless
// the pick is known to continue the last issued run (see continueRun), in
// which case as many bursts as the continuation allows issue in one batch.
func (q *ReorderQueue) AccessRow(write bool, loc mapping.Location, n int, arrival int64) int64 {
	if q.depth == 0 {
		return q.ctl.accessRow(write, loc, n, arrival)
	}
	var end int64
	for left := int64(n); left > 0; {
		if m, e := q.continueRun(write, loc, arrival, left); m > 0 {
			end = max64(end, e)
			left -= m
			continue
		}
		q.enqueue(write, loc, arrival, 1)
		q.emitEnqueue(loc, arrival)
		left--
		if q.count < q.depth {
			end = max64(end, arrival)
			continue
		}
		end = max64(end, q.issueBest())
	}
	return end
}

// continueRun issues the next m <= left steps in one batch, each step
// enqueueing one burst of the incoming run (write, loc, arrival) into the
// full window and issuing the next burst of the last issued run, and
// returns m (0 when the next step must go the exact way) and the latest
// completion.
//
// After an issue, its run is the next pick by the Policy.Pick contract: no
// request ahead of it became a row hit, and its own row is open (closed
// page picks the oldest, which it still is). So the run continues while
// it has bursts pending — or, once emptied, while the incoming bursts
// extend it, each issuing as it arrives — for as many steps as the
// incoming run lasts, as the anti-starvation budget allows when the run is
// not the oldest, and as the controller's row jump allows (refresh cap,
// steady state). The continuation carries over from one call to the next:
// only the controller's work in between (issues, a flush) changes it.
func (q *ReorderQueue) continueRun(write bool, loc mapping.Location, arrival, left int64) (int64, int64) {
	if !q.hot || q.count != q.depth-1 {
		return 0, 0
	}
	run, idx := q.last, q.lastIdx
	tail := idx == len(q.pending)
	if run.n > 0 {
		run = q.pending[idx] // it may have grown since by extension
		tail = idx == len(q.pending)-1
	}
	extend := tail && q.extends(&run, write, loc, arrival)
	m := left
	if !extend && run.n < m {
		m = run.n
	}
	if idx != 0 && maxBypass-int64(q.bypasses) < m {
		m = maxBypass - int64(q.bypasses)
	}
	if m <= 0 {
		return 0, 0
	}
	m, end := q.ctl.jumpRow(run.write, run.loc, run.arrival, m, queueEvents{
		enqBank: int32(loc.Bank), enqAt: arrival, enqDepth: int32(q.depth), doneDepth: int32(q.depth - 1)})
	if m == 0 {
		return 0, 0
	}
	if extend {
		// Each enqueued burst joins the run and its head issues: the run
		// keeps its size and slides m bursts on.
		q.nextSeq += m
		if run.n > 0 {
			q.advance(idx, m, 0)
		}
	} else {
		q.enqueue(write, loc, arrival, m)
		q.advance(idx, m, m)
		run.n -= m
	}
	if idx == 0 {
		// Each issue was the oldest's: the starvation count restarts.
		q.bypassOf, q.bypasses = run.seq+m-1, 0
	} else {
		q.bypasses += int(m)
	}
	run.seq += m
	q.last = run
	return m, end
}

// extends reports whether a burst (write, loc, arrival) enqueued now would
// continue run r: same direction, arrival, bank and row, and the next seq.
func (q *ReorderQueue) extends(r *queuedRequest, write bool, loc mapping.Location, arrival int64) bool {
	return r.write == write && r.arrival == arrival && r.seq+r.n == q.nextSeq &&
		r.loc.Bank == loc.Bank && r.loc.Row == loc.Row
}

// enqueue appends m bursts of one same-row run starting at loc, extending
// the newest pending run when they continue it.
func (q *ReorderQueue) enqueue(write bool, loc mapping.Location, arrival int64, m int64) {
	if k := len(q.pending) - 1; k >= 0 && q.extends(&q.pending[k], write, loc, arrival) {
		q.pending[k].n += m
	} else {
		q.pending = append(q.pending, queuedRequest{write: write, loc: loc, arrival: arrival, seq: q.nextSeq, n: m})
	}
	q.nextSeq += m
	q.count += int(m)
}

// emitEnqueue emits the enqueue event of a burst that just entered.
func (q *ReorderQueue) emitEnqueue(loc mapping.Location, arrival int64) {
	if q.ctl.HasProbe() {
		q.ctl.EmitEvent(probe.Event{Kind: probe.KindEnqueue, Bank: int32(loc.Bank),
			At: arrival, End: arrival, Depth: int32(q.count)})
	}
}

// advance moves the head of the run at index i m bursts on, of which
// issued leave the window (the rest were replaced by bursts extending the
// run), removing the run once empty.
func (q *ReorderQueue) advance(i int, m, issued int64) {
	r := &q.pending[i]
	r.seq += m
	r.n -= issued
	q.count -= int(issued)
	if r.n == 0 {
		q.pending = q.pending[:i+copy(q.pending[i:], q.pending[i+1:])]
	}
}

// issueBest issues the policy's preferred pending request (row hits first
// for every built-in; FR-FCFS additionally prefers closed banks), forcing
// the oldest once the anti-starvation bound trips, and returns its
// completion. pending is kept in arrival order, so the oldest request is
// always pending[0]'s head burst.
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
	if best != 0 {
		q.bypasses++
	}
	r := q.pending[best]
	q.advance(best, 1, 1)
	end := q.ctl.Access(r.write, r.loc, r.arrival)
	if q.ctl.HasProbe() {
		q.ctl.emitComplete(int32(r.loc.Bank), end, r.arrival, int32(q.count))
	}
	r.seq++
	r.n--
	q.last, q.lastIdx, q.hot = r, best, true
	return end
}

// Flush issues every pending request and drains the controller's write
// buffer, returning the final makespan.
func (q *ReorderQueue) Flush() int64 {
	for len(q.pending) > 0 {
		q.issueBest()
	}
	q.hot = false // the drain is controller work after the last issue
	return q.ctl.Flush()
}

// CopyStateFrom makes q's window a copy of src's — pending runs, sequence
// and starvation counters, and the continuation state — so q continues
// exactly as src would. q keeps its controller; copying the controllers'
// state is the caller's part (see Channel.CopyStateFrom). pending is
// copied into q's existing backing array.
func (q *ReorderQueue) CopyStateFrom(src *ReorderQueue) {
	ctl, pending := q.ctl, q.pending
	*q = *src
	q.ctl = ctl
	q.pending = copyInto(pending, src.pending)
}

// Pending returns the number of queued bursts.
func (q *ReorderQueue) Pending() int { return q.count }

// rowOpen reports whether the location's row is currently open — the
// scheduler's row-hit predicate.
func (c *Controller) rowOpen(loc mapping.Location) bool {
	b := &c.banks[loc.Bank]
	return b.open && b.row == loc.Row
}
