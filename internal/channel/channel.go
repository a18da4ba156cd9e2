// Package channel composes the paper's per-channel entity: a memory
// controller, the DRAM interconnect and a bank cluster together form the
// "channel model" from which delay and power figures are attained
// (paper section III).
package channel

import (
	"fmt"
	"math/bits"

	"repro/internal/controller"
	"repro/internal/fault"
	"repro/internal/interconnect"
	"repro/internal/mapping"
	"repro/internal/probe"
	"repro/internal/stats"
)

// Config parameterizes one channel.
type Config struct {
	Controller controller.Config
	// DRAMLink is the controller-to-bank-cluster interconnect.
	DRAMLink interconnect.Link
	// QueueDepth > 0 inserts an FR-FCFS reorder window of that many
	// bursts in front of the controller (extension; zero keeps the
	// paper's in-order scheduling).
	QueueDepth int
	// Faults, when non-nil, is this channel's fault decision stream: the
	// channel re-issues reads the stream marks as transient ECC errors,
	// with bounded exponential backoff (see internal/fault). The same
	// injector should be passed to Controller.Faults so stall jitter and
	// the thermal derate share the channel's decision stream.
	Faults *fault.ChannelInjector
}

// Channel is one memory channel: requests enter through the DRAM
// interconnect, are scheduled by the controller, and read data returns
// through the interconnect.
type Channel struct {
	ctl   *controller.Controller
	queue *controller.ReorderQueue
	link  interconnect.Link
	inj   *fault.ChannelInjector // nil = fault-free (the fast path)
	// Run-walk constants from the controller's geometry, whose
	// dimensions are powers of two (dram.Geometry.Validate; a burst
	// length divides the power-of-two column count), so the walk shifts
	// and masks instead of dividing.
	columns    int
	burstShift uint // log2 of the burst length in columns
	burstBytes int64
}

// New builds a channel.
func New(cfg Config) (*Channel, error) {
	if err := cfg.DRAMLink.Validate(); err != nil {
		return nil, err
	}
	ctl, err := controller.New(cfg.Controller)
	if err != nil {
		return nil, err
	}
	if cfg.QueueDepth < 0 {
		return nil, fmt.Errorf("channel: negative queue depth %d", cfg.QueueDepth)
	}
	depth := cfg.QueueDepth
	if min := ctl.MinQueueDepth(); depth < min {
		// A reordering policy (FR-FCFS) needs a window to reorder over;
		// open one at the policy's default when the configuration sets
		// none.
		depth = min
	}
	g := cfg.Controller.Speed.Geometry
	return &Channel{
		ctl:        ctl,
		queue:      controller.NewReorderQueue(ctl, depth),
		link:       cfg.DRAMLink,
		inj:        cfg.Faults,
		columns:    g.Columns,
		burstShift: uint(bits.TrailingZeros(uint(g.BurstLength))),
		burstBytes: g.BurstBytes(),
	}, nil
}

// Access performs one burst at the channel-local byte address. arrival is
// when the request reaches the channel; the returned cycle is when the
// requester observes completion (read data returned, or write data
// accepted by the cluster). The burst is attributed to stream 0; use
// AccessStream when the requester's stream identity matters (bank
// partitioning).
func (ch *Channel) Access(write bool, local int64, arrival int64) int64 {
	return ch.AccessStream(write, local, 0, arrival)
}

// AccessStream performs one burst on behalf of the identified client
// stream. The controller's policy may remap the decoded bank by stream
// (bank partitioning) before the request enters the scheduling window;
// for every other policy the remap is the identity and the call behaves
// exactly like Access.
func (ch *Channel) AccessStream(write bool, local int64, stream int, arrival int64) int64 {
	if arrival < 0 {
		arrival = 0
	}
	loc := ch.ctl.MapStream(stream, ch.decode(local))
	end := ch.queue.Access(write, loc, ch.link.Deliver(arrival))
	if write {
		return end
	}
	if ch.inj != nil {
		// Transient read error: the ECC detects a flipped bit and the
		// channel re-reads the burst after a bounded, doubling backoff.
		// Retry traffic runs through the normal scheduling path, so it
		// costs real bus cycles and appears in the stats and the probe
		// stream like any other read.
		if retries, _ := ch.inj.ReadOutcome(); retries > 0 {
			for attempt := 0; attempt < retries; attempt++ {
				at := end + ch.inj.RetryBackoff(attempt)
				if ch.ctl.HasProbe() {
					ch.ctl.EmitEvent(probe.Event{Kind: probe.KindReadRetry, Bank: -1,
						At: at, End: at, Aux: int64(attempt + 1)})
				}
				end = ch.queue.Access(false, loc, at)
			}
		}
	}
	return ch.link.Complete(end)
}

// AccessRun performs a run of sequential same-direction bursts starting at
// the channel-local byte address, all with the same arrival — the per-channel
// shape of one interleaved master transaction. It returns the latest
// per-burst completion cycle, bit-identical to calling Access once per burst
// in address order.
//
// A fault-free run with a burst-aligned start is walked into row segments
// (AppendRowSegments) and handed to AccessSegments. A fault stream (retries
// draw per burst), or an unaligned start address the row walk cannot count
// whole bursts from, falls back to calling AccessStream once per burst.
func (ch *Channel) AccessRun(write bool, local int64, bursts int, arrival int64) int64 {
	return ch.AccessRunStream(write, local, bursts, 0, arrival)
}

// AccessRunStream is AccessRun with the requester's stream identity; every
// burst of the run is attributed to the stream.
func (ch *Channel) AccessRunStream(write bool, local int64, bursts int, stream int, arrival int64) int64 {
	if bursts <= 1 {
		if bursts < 1 {
			return 0
		}
		return ch.AccessStream(write, local, stream, arrival)
	}
	if ch.inj != nil || local&(ch.burstBytes-1) != 0 {
		var end int64
		for i := 0; i < bursts; i++ {
			if e := ch.AccessStream(write, local, stream, arrival); e > end {
				end = e
			}
			local += ch.burstBytes
		}
		return end
	}
	return ch.AccessSegments(write, ch.AppendRowSegments(nil, local, bursts), stream, arrival)
}

// Segment is one row's share of a burst run: the decoded location of its
// first burst and the number of sequential bursts that stay in that row.
type Segment struct {
	Loc    mapping.Location
	Bursts int
}

// AppendRowSegments walks the run of bursts sequential bursts starting at
// the burst-aligned channel-local byte address row by row, appending one
// decoded Segment per row to dst. The walk depends only on the geometry
// and multiplexing, so channels built from one configuration can share
// its segments.
func (ch *Channel) AppendRowSegments(dst []Segment, local int64, bursts int) []Segment {
	for bursts > 0 {
		loc := ch.decode(local)
		n := (ch.columns - loc.Column) >> ch.burstShift // bursts left in this row
		if n > bursts {
			n = bursts
		}
		dst = append(dst, Segment{Loc: loc, Bursts: n})
		local += int64(n) * ch.burstBytes
		bursts -= n
	}
	return dst
}

// AccessSegments performs row segments from AppendRowSegments on behalf of
// the stream, all arriving at arrival, and returns the latest per-burst
// completion cycle, bit-identical to calling AccessStream once per burst.
// Each segment takes the stream remap and then the reorder window's row
// entry (controller.ReorderQueue.AccessRow) as a location and a burst
// count, with one link delivery for the run and one completion on the
// latest burst. The window and the controller then serve a segment in
// arithmetic jumps wherever the schedule is provably periodic, for every
// policy, and burst by burst elsewhere. The channel must be fault-free:
// retries draw per burst, so a fault stream needs AccessRunStream.
func (ch *Channel) AccessSegments(write bool, segs []Segment, stream int, arrival int64) int64 {
	if arrival < 0 {
		arrival = 0
	}
	at := ch.link.Deliver(arrival)
	var end int64
	for i := range segs {
		loc := ch.ctl.MapStream(stream, segs[i].Loc)
		if e := ch.queue.AccessRow(write, loc, segs[i].Bursts, at); e > end {
			end = e
		}
	}
	if write {
		return end
	}
	return ch.link.Complete(end)
}

// Flush drains the reorder window and any posted writes, returning the
// channel makespan at the DRAM bus.
func (ch *Channel) Flush() int64 { return ch.queue.Flush() }

// Stats returns the controller's accumulated counters.
func (ch *Channel) Stats() stats.Channel { return ch.ctl.Stats() }

// Latency returns the controller's latency histogram.
func (ch *Channel) Latency() *stats.Histogram { return ch.ctl.Latency() }

// BusyCycles returns the channel makespan at the DRAM bus.
func (ch *Channel) BusyCycles() int64 { return ch.ctl.BusyCycles() }

// Controller exposes the underlying controller (for configuration queries).
func (ch *Channel) Controller() *controller.Controller { return ch.ctl }

// Observed reports whether a probe sink is attached to this channel's
// controller (see internal/probe); the event stream covers the channel's
// full request path: enqueue, DRAM commands, power states, completion.
func (ch *Channel) Observed() bool { return ch.ctl.HasProbe() }

// CopyStateFrom makes ch's controller and reorder window copies of src's,
// so ch continues exactly as src would (see
// controller.Controller.CopyStateFrom). Both channels must be fault-free
// and built from one configuration apart from the channel index and the
// probe sink, which ch keeps.
func (ch *Channel) CopyStateFrom(src *Channel) {
	ch.ctl.CopyStateFrom(src.ctl)
	ch.queue.CopyStateFrom(src.queue)
}

// Reset restores the channel to its initial state, rewinding the fault
// decision stream (when one is attached) along with the controller and the
// reorder window, so a reset channel replays the identical run.
func (ch *Channel) Reset() {
	ch.ctl.Reset()
	ch.queue.Reset()
	if ch.inj != nil {
		ch.inj.Reset()
	}
}

// decode maps a channel-local byte address to its DRAM coordinate using the
// controller's configured multiplexing.
func (ch *Channel) decode(local int64) mapping.Location {
	return ch.ctl.Decode(local)
}
