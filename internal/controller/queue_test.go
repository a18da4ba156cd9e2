package controller

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/mapping"
	"repro/internal/probe"
)

func TestReorderQueueDepthZeroIsInOrder(t *testing.T) {
	cfg := defaultCfg(t)
	direct := newCtl(t, cfg)
	queued := NewReorderQueue(newCtl(t, cfg), 0)
	locs := []mapping.Location{
		{Bank: 0, Row: 0, Column: 0},
		{Bank: 1, Row: 3, Column: 4},
		{Bank: 0, Row: 1, Column: 0},
	}
	for _, loc := range locs {
		a := direct.Access(false, loc, 0)
		b := queued.Access(false, loc, 0)
		if a != b {
			t.Errorf("depth 0 diverged: %d vs %d", a, b)
		}
	}
	if queued.Flush() != direct.BusyCycles() {
		t.Error("flush makespan differs at depth 0")
	}
	if NewReorderQueue(newCtl(t, cfg), -3).depth != 0 {
		t.Error("negative depth should clamp to 0")
	}
}

// Row hits jump the queue: a conflicting row-change request is deferred
// while same-row requests stream.
func TestReorderQueuePrefersRowHits(t *testing.T) {
	cfg := defaultCfg(t)
	q := NewReorderQueue(newCtl(t, cfg), 4)
	// Open row 0 by filling the queue with leading requests.
	seq := []mapping.Location{
		{Bank: 0, Row: 0, Column: 0},  // opens row 0 when issued
		{Bank: 0, Row: 5, Column: 0},  // conflict: should be deferred
		{Bank: 0, Row: 0, Column: 4},  // hit
		{Bank: 0, Row: 0, Column: 8},  // hit
		{Bank: 0, Row: 0, Column: 12}, // hit
		{Bank: 0, Row: 0, Column: 16}, // hit
	}
	for _, loc := range seq {
		q.Access(false, loc, 0)
	}
	q.Flush()
	st := q.Controller().Stats()
	// In order: row0 open, conflict to row5, then four conflicts back...
	// With FR-FCFS: row-0 requests coalesce; the row-5 request issues
	// once, costing a single conflict (plus the final drain order).
	if st.RowConflicts > 2 {
		t.Errorf("reordered conflicts = %d, want <= 2 (in-order would thrash)", st.RowConflicts)
	}
}

// The reordered schedule is never slower than in-order on a conflicting
// stream mix, and it moves the same traffic.
func TestReorderQueueThroughput(t *testing.T) {
	pattern := func() []mapping.Location {
		var locs []mapping.Location
		// Two interleaved streams thrash bank 0 rows 0 and 1.
		for i := 0; i < 256; i++ {
			locs = append(locs,
				mapping.Location{Bank: 0, Row: 0, Column: (i * 4) % 512},
				mapping.Location{Bank: 0, Row: 1, Column: (i * 4) % 512},
			)
		}
		return locs
	}
	run := func(depth int) (int64, int64) {
		q := NewReorderQueue(newCtl(t, defaultCfg(t)), depth)
		for _, loc := range pattern() {
			q.Access(false, loc, 0)
		}
		end := q.Flush()
		return end, q.Controller().Stats().Accesses()
	}
	inorder, n0 := run(0)
	reordered, n1 := run(16)
	if n0 != n1 {
		t.Fatalf("traffic differs: %d vs %d", n0, n1)
	}
	if reordered >= inorder {
		t.Errorf("reordering did not help: %d vs %d cycles", reordered, inorder)
	}
	// The thrashing pattern should improve dramatically (row grouping).
	if float64(reordered) > 0.5*float64(inorder) {
		t.Errorf("reordering gain too small: %d vs %d", reordered, inorder)
	}
}

// Starvation bound: a never-hitting request still issues.
func TestReorderQueueAntiStarvation(t *testing.T) {
	q := NewReorderQueue(newCtl(t, defaultCfg(t)), 2)
	// One row-conflict request followed by an endless stream of hits.
	q.Access(false, mapping.Location{Bank: 0, Row: 0, Column: 0}, 0)
	q.Access(false, mapping.Location{Bank: 0, Row: 7, Column: 0}, 0) // victim
	for i := 0; i < 3*maxBypass; i++ {
		q.Access(false, mapping.Location{Bank: 0, Row: 0, Column: (i * 4) % 512}, 0)
	}
	// Well before the flush, the victim must have issued: bank 0 saw
	// row 7 at least once.
	if got := q.Controller().Stats().RowConflicts; got < 1 {
		t.Error("starved request never issued")
	}
	if q.Pending() > 2 {
		t.Errorf("pending = %d, exceeds depth", q.Pending())
	}
	q.Flush()
	if q.Pending() != 0 {
		t.Error("flush left pending requests")
	}
}

// referenceQueue is the reorder window the run-holding, arrival-ordered
// ReorderQueue replaced, kept as the oracle it must reproduce exactly: one
// burst per entry, pending in no particular order (swap-remove), the oldest
// found by a minimum-seq scan, and every policy's preference resolved to
// its minimum-seq match. It emits the same enqueue/complete events.
type referenceQueue struct {
	ctl      *Controller
	depth    int
	pending  []queuedRequest
	nextSeq  int64
	bypassOf int64
	bypasses int
	issued   []int64 // seq of every issued request, in issue order
	forced   int     // issues the anti-starvation bound forced
}

// referencePick is the minimum-seq form of each built-in Policy.Pick.
func referencePick(c *Controller, pending []queuedRequest) int {
	oldestWhere := func(match func(r queuedRequest) bool) int {
		best := -1
		for i, r := range pending {
			if match(r) && (best < 0 || r.seq < pending[best].seq) {
				best = i
			}
		}
		return best
	}
	best := oldestWhere(func(r queuedRequest) bool { return c.rowOpen(r.loc) })
	if best < 0 && c.pol.Kind() == FRFCFS {
		best = oldestWhere(func(r queuedRequest) bool { return !c.banks[r.loc.Bank].open })
	}
	return best
}

func (q *referenceQueue) access(write bool, loc mapping.Location, arrival int64) {
	q.pending = append(q.pending, queuedRequest{write: write, loc: loc, arrival: arrival, seq: q.nextSeq, n: 1})
	q.nextSeq++
	q.ctl.EmitEvent(probe.Event{Kind: probe.KindEnqueue, Bank: int32(loc.Bank),
		At: arrival, End: arrival, Depth: int32(len(q.pending))})
	if len(q.pending) >= q.depth {
		q.issueBest()
	}
}

func (q *referenceQueue) issueBest() {
	oldest := 0
	for i := range q.pending {
		if q.pending[i].seq < q.pending[oldest].seq {
			oldest = i
		}
	}
	if q.bypassOf != q.pending[oldest].seq {
		q.bypassOf = q.pending[oldest].seq
		q.bypasses = 0
	}
	best := oldest
	if q.bypasses >= maxBypass {
		q.forced++
	} else if p := referencePick(q.ctl, q.pending); p >= 0 {
		best = p
	}
	r := q.pending[best]
	if best != oldest {
		q.bypasses++
	}
	q.pending[best] = q.pending[len(q.pending)-1]
	q.pending = q.pending[:len(q.pending)-1]
	q.issued = append(q.issued, r.seq)
	end := q.ctl.Access(r.write, r.loc, r.arrival)
	lat := end - r.arrival
	if lat < 0 {
		lat = 0
	}
	q.ctl.EmitEvent(probe.Event{Kind: probe.KindComplete, Bank: int32(r.loc.Bank),
		At: end, End: end, Aux: lat, Depth: int32(len(q.pending))})
}

func (q *referenceQueue) flush() int64 {
	for len(q.pending) > 0 {
		q.issueBest()
	}
	return q.ctl.Flush()
}

// pendingSeqs lists the seq of every pending burst, expanding each run.
func pendingSeqs(q *ReorderQueue) []int64 {
	var seqs []int64
	for _, r := range q.pending {
		for j := int64(0); j < r.n; j++ {
			seqs = append(seqs, r.seq+j)
		}
	}
	return seqs
}

// issuedSeqs reports which bursts a window operation issued: the seqs in
// before (the pending bursts plus those the operation enqueued) that are no
// longer pending, in ascending order.
func issuedSeqs(q *ReorderQueue, before []int64) []int64 {
	left := make(map[int64]bool, q.count)
	for _, seq := range pendingSeqs(q) {
		left[seq] = true
	}
	var out []int64
	for _, seq := range before {
		if !left[seq] {
			out = append(out, seq)
		}
	}
	slices.Sort(out)
	return out
}

// TestReorderQueueMatchesReference drives the run-holding window through
// its row entry and the one-burst-per-entry minimum-seq reference with the
// same seeded streams, for every policy and several depths. Each operation
// must issue the same bursts as the reference's per-burst replay of it,
// the flush must issue them in the same order, and the probe event
// streams (with synthesized events for batched continuations), channel
// statistics and makespan must be identical; the event stream pins the
// issue order inside an operation, since every issue emits its bank, row,
// cycles and latency. The streams are same-row runs of up to 40 bursts,
// concentrated on one hot row per bank, so runs keep continuing past
// older conflicts and the anti-starvation bound trips mid-run; every fifth
// run turns back to the previous run's row in the opposite direction with
// the same arrival, the back-to-back case a run must never absorb.
func TestReorderQueueMatchesReference(t *testing.T) {
	forced := 0
	for _, pol := range Policies() {
		for _, depth := range []int{1, 2, 8, 16} {
			for seed := int64(1); seed <= 3; seed++ {
				rng := rand.New(rand.NewSource(seed*100 + int64(depth)))
				cfg := defaultCfg(t)
				cfg.Policy = pol
				var recs [2]probe.Recorder
				run, refCfg := cfg, cfg
				run.Probe, refCfg.Probe = &recs[0], &recs[1]
				q := NewReorderQueue(newCtl(t, run), depth)
				ref := &referenceQueue{ctl: newCtl(t, refCfg), depth: depth}
				name := fmt.Sprintf("%v depth %d seed %d", pol, depth, seed)
				var loc mapping.Location
				var write bool
				arrival := int64(0)
				for i := 0; i < 400; i++ {
					if i > 0 && rng.Intn(5) == 0 {
						write = !write
					} else {
						arrival += rng.Int63n(12)
						loc = mapping.Location{Bank: rng.Intn(4), Column: 4 * rng.Intn(128)}
						if rng.Intn(10) == 0 {
							loc.Row = 1 + rng.Intn(64) // a conflict with the hot row 0
						}
						write = rng.Intn(4) == 0
					}
					n := 1 + rng.Intn(40)
					before := pendingSeqs(q)
					for j := int64(0); j < int64(n); j++ {
						before = append(before, q.nextSeq+j)
					}
					from := len(ref.issued)
					if n == 1 && rng.Intn(2) == 0 {
						q.Access(write, loc, arrival)
					} else {
						q.AccessRow(write, loc, n, arrival)
					}
					for j := 0; j < n; j++ {
						ref.access(write, loc, arrival)
					}
					want := append([]int64(nil), ref.issued[from:]...)
					slices.Sort(want)
					if got := issuedSeqs(q, before); !slices.Equal(got, want) {
						t.Fatalf("%s run %d: issued %v, reference issued %v", name, i, got, want)
					}
				}
				from := len(ref.issued)
				want := ref.flush()
				var order []int64
				for q.Pending() > 0 {
					q.issueBest()
					order = append(order, q.last.seq-1)
				}
				if got := q.ctl.Flush(); got != want || !slices.Equal(order, ref.issued[from:]) {
					t.Fatalf("%s: flush issued %v (makespan %d), reference %v (%d)", name, order, got, ref.issued[from:], want)
				}
				if gs, ws := q.ctl.Stats(), ref.ctl.Stats(); gs != ws {
					t.Fatalf("%s: stats diverged:\ngot:  %+v\nwant: %+v", name, gs, ws)
				}
				if !reflect.DeepEqual(recs[0].Events, recs[1].Events) {
					t.Fatalf("%s: probe streams diverged (%d vs %d events)", name, len(recs[0].Events), len(recs[1].Events))
				}
				forced += ref.forced
			}
		}
	}
	if forced == 0 {
		t.Error("no stream tripped the anti-starvation bound")
	}
}
