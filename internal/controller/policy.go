package controller

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/mapping"
)

// Policy is the pluggable command-selection recipe behind the controller:
// what happens to a row after an access and which pending request the
// reorder window issues next. A policy that also maps a stream's decoded
// location onto banks implements bankRemapper.
// The paper's open-page/closed-page enum is two built-in implementations;
// FR-FCFS ready-first reordering and per-client bank partitioning are the
// first post-paper additions.
//
// Policies are identified by the PagePolicy enum in every configuration
// struct (comparable, cache-key friendly); the interface is resolved once
// in New. Implementations must be stateless singletons — per-controller
// mutable state (the partition table, the reorder window) lives on the
// Controller/ReorderQueue so Reset-through-New can never lose it.
type Policy interface {
	// Kind is the enum identity the registry resolves.
	Kind() PagePolicy
	// Name is the canonical spelling used by flags, request schemas and
	// manifests.
	Name() string
	// AutoPrecharge reports whether every access closes its row with an
	// auto-precharge once restore/recovery windows elapse (the
	// closed-page recipe).
	AutoPrecharge() bool
	// MinQueueDepth is the reorder window the policy requires when the
	// configuration does not set one (0 = in-order is fine).
	MinQueueDepth() int
	// Pick selects the preferred pending request to issue next, or -1 to
	// defer to the oldest. pending is in arrival order (oldest first), so
	// the first match of a scan is the oldest match. The queue's
	// anti-starvation bound overrides the choice after maxBypass bypasses.
	//
	// Contract: Pick returns the first row hit, else the first request
	// whose bank is closed (policies may skip this tier), else -1. Every
	// pending entry is a same-row run, so all its bursts match alike and
	// a pick is always a run's head burst. Under the contract no request
	// ahead of the pick can turn into a row hit when the pick issues:
	// none ahead was a row hit; a row-hit pick leaves its bank's open row
	// as it was; a closed-bank pick has nothing ahead on its bank (that
	// request would have been the first closed-bank match); and the
	// oldest has nothing ahead. Without an intervening refresh the pick's
	// run is therefore picked again for its next burst, which is what
	// lets the queue issue the run's continuation in one batch.
	Pick(c *Controller, pending []queuedRequest) int
}

// bankRemapper is implemented by the policies that rewrite a decoded
// location for the request's stream before it enters the queue (bank
// partitioning). Every other policy leaves locations as decoded, and New
// resolves once which kind the controller has.
type bankRemapper interface {
	Map(c *Controller, stream int, loc mapping.Location) mapping.Location
}

// DefaultFRFCFSDepth is the reorder window the FR-FCFS policy opens when
// the configuration leaves QueueDepth at zero.
const DefaultFRFCFSDepth = 8

// builtinPolicies is the registry, indexed by PagePolicy value.
var builtinPolicies = []Policy{
	OpenPage:      openPagePolicy{},
	ClosedPage:    closedPagePolicy{},
	FRFCFS:        frfcfsPolicy{},
	BankPartition: bankPartitionPolicy{},
}

// policyFor resolves the enum to its implementation.
func policyFor(p PagePolicy) (Policy, bool) {
	if int(p) < 0 || int(p) >= len(builtinPolicies) {
		return nil, false
	}
	return builtinPolicies[int(p)], true
}

// Policies returns every registered policy in enum order.
func Policies() []PagePolicy {
	out := make([]PagePolicy, len(builtinPolicies))
	for i := range builtinPolicies {
		out[i] = PagePolicy(i)
	}
	return out
}

// PolicyNames returns the canonical names of every registered policy,
// sorted, for error messages and usage text.
func PolicyNames() []string {
	out := make([]string, len(builtinPolicies))
	for i, pol := range builtinPolicies {
		out[i] = pol.Name()
	}
	sort.Strings(out)
	return out
}

// ParsePolicy maps a flag or request spelling onto the enum. The paper-era
// short forms ("open", "closed") stay accepted alongside the canonical
// names; the empty string is the baseline.
func ParsePolicy(s string) (PagePolicy, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "open", "open-page":
		return OpenPage, nil
	case "closed", "closed-page":
		return ClosedPage, nil
	case "frfcfs", "fr-fcfs":
		return FRFCFS, nil
	case "bank-partition", "bank_partition", "partition":
		return BankPartition, nil
	default:
		return 0, fmt.Errorf("unknown page policy %q (valid policies: %s)", s, strings.Join(PolicyNames(), ", "))
	}
}

// pickRowHitFirst is the shared first-ready heuristic: the oldest pending
// request whose row is already open, or -1 when no row hit exists.
func pickRowHitFirst(c *Controller, pending []queuedRequest) int {
	for i := range pending {
		if c.rowOpen(pending[i].loc) {
			return i
		}
	}
	return -1
}

// openPagePolicy is the paper's baseline: rows stay open, requests issue
// row-hit-first then oldest, banks are shared by all streams.
type openPagePolicy struct{}

func (openPagePolicy) Kind() PagePolicy    { return OpenPage }
func (openPagePolicy) Name() string        { return "open-page" }
func (openPagePolicy) AutoPrecharge() bool { return false }
func (openPagePolicy) MinQueueDepth() int  { return 0 }
func (openPagePolicy) Pick(c *Controller, pending []queuedRequest) int {
	return pickRowHitFirst(c, pending)
}

// closedPagePolicy auto-precharges after every access (the paper's
// ablation): every burst activates its row, so a same-row run repeats with
// the fixed ACT period the controller's row jump derives (see jumpRow).
type closedPagePolicy struct{}

func (closedPagePolicy) Kind() PagePolicy    { return ClosedPage }
func (closedPagePolicy) Name() string        { return "closed-page" }
func (closedPagePolicy) AutoPrecharge() bool { return true }
func (closedPagePolicy) MinQueueDepth() int  { return 0 }
func (closedPagePolicy) Pick(c *Controller, pending []queuedRequest) int {
	return pickRowHitFirst(c, pending)
}

// frfcfsPolicy is first-ready FCFS over the reorder window: row hits
// first, then the oldest request whose bank is closed (its activate can
// issue without spending a precharge), then the oldest outright. It opens
// a DefaultFRFCFSDepth window even when the configuration sets none.
type frfcfsPolicy struct{}

func (frfcfsPolicy) Kind() PagePolicy    { return FRFCFS }
func (frfcfsPolicy) Name() string        { return "frfcfs" }
func (frfcfsPolicy) AutoPrecharge() bool { return false }
func (frfcfsPolicy) MinQueueDepth() int  { return DefaultFRFCFSDepth }
func (frfcfsPolicy) Pick(c *Controller, pending []queuedRequest) int {
	if best := pickRowHitFirst(c, pending); best >= 0 {
		return best
	}
	for i := range pending {
		if !c.banks[pending[i].loc.Bank].open {
			return i
		}
	}
	return -1
}

// bankPartitionPolicy assigns each client stream to a two-bank group
// (round-robin on first sight), confining its row-buffer footprint so
// streams cannot thrash each other's open rows. Selection order matches
// the baseline; the channel applies the remap once per row segment, so a
// run's bursts reach the controller already on their partitioned bank.
type bankPartitionPolicy struct{}

func (bankPartitionPolicy) Kind() PagePolicy    { return BankPartition }
func (bankPartitionPolicy) Name() string        { return "bank-partition" }
func (bankPartitionPolicy) AutoPrecharge() bool { return false }
func (bankPartitionPolicy) MinQueueDepth() int  { return 0 }
func (bankPartitionPolicy) Pick(c *Controller, pending []queuedRequest) int {
	return pickRowHitFirst(c, pending)
}
func (bankPartitionPolicy) Map(c *Controller, stream int, loc mapping.Location) mapping.Location {
	return c.partitionMap(stream, loc)
}

// partitionGroupSize is the number of banks each partition group spans:
// two, so every client keeps a minimum of bank-level parallelism while a
// 4-bank paper device still yields two isolated groups.
const partitionGroupSize = 2

// partitionMap confines a stream's accesses to its assigned bank group.
// Groups are assigned round-robin the first time a stream is seen; the
// table is Controller state so Reset-through-New clears it.
func (c *Controller) partitionMap(stream int, loc mapping.Location) mapping.Location {
	banks := c.cfg.Speed.Geometry.Banks
	groups := banks / partitionGroupSize
	if groups <= 1 {
		return loc
	}
	if stream < 0 {
		stream = 0
	}
	for stream >= len(c.partGroup) {
		c.partGroup = append(c.partGroup, -1)
	}
	g := c.partGroup[stream]
	if g < 0 {
		g = c.partNext
		c.partGroup[stream] = g
		c.partNext = (c.partNext + 1) % int32(groups)
	}
	loc.Bank = int(g)*partitionGroupSize + loc.Bank%partitionGroupSize
	return loc
}

// MapStream applies the policy's bank mapping for the stream — identity
// for every policy except bank partitioning. Dispatch layers call it
// before a location enters the reorder window so row-hit predicates see
// the final coordinate.
func (c *Controller) MapStream(stream int, loc mapping.Location) mapping.Location {
	if c.remap == nil {
		return loc
	}
	return c.remap.Map(c, stream, loc)
}

// MinQueueDepth returns the reorder window the controller's policy
// requires when the configuration sets none.
func (c *Controller) MinQueueDepth() int { return c.pol.MinQueueDepth() }
