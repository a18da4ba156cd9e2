package core

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"sync/atomic"

	"repro/internal/analytic"
	"repro/internal/dram"
	"repro/internal/metrics"
	"repro/internal/power"
	"repro/internal/probe"
	"repro/internal/simcache"
	"repro/internal/usecase"
)

// CacheSchemaVersion names the layout of the cache's keys and stored
// entries. Changed answers need no bump: cacheVersion folds
// AnswerFingerprint in beside it, so a change that alters what Simulate
// computes for an unchanged (Workload, MemoryConfig) — a controller timing
// fix, a new Result field — moves every key on its own once the
// fingerprint is re-recorded. In-process keys separate immediately and the
// on-disk store moves to a fresh <root>/<version>/ directory, orphaning
// every stale entry without touching it.
//
// v2: MemoryConfig gained the Device field (the datasheet registry), which
// folds into every key via the reflective field walk.
const CacheSchemaVersion = "v2"

// AnswerFingerprint hashes Simulate's answers on a small fixed point set
// (see TestAnswerFingerprint). A change that moves any of them fails that
// test until this constant is re-recorded, and the cache keys move with
// it.
const AnswerFingerprint = "15c5c836400fba61"

// cacheVersion versions every cache key and names the on-disk directory.
const cacheVersion = CacheSchemaVersion + "-" + AnswerFingerprint

// CacheStats is a snapshot of a SimCache's lookup counters.
type CacheStats struct {
	// MemHits counts lookups answered by the in-process memo (including
	// joins on an in-flight computation of the same point).
	MemHits int64
	// DiskHits counts lookups answered by the on-disk store.
	DiskHits int64
	// Simulated counts lookups that ran the simulator.
	Simulated int64
	// Bypassed counts Simulate calls that skipped the cache because the
	// run was observed (probes, faults, latency recording).
	Bypassed int64
	// DedupJoins counts the MemHits that were single-flight joins on a
	// computation still in flight (concurrent workers asking for the same
	// point), as opposed to hits on a finished entry.
	DedupJoins int64
	// DiskStores counts results persisted to the on-disk store, and
	// DiskRepairs corrupt or truncated entries detected on read (each is
	// overwritten by the store of the fresh result).
	DiskStores  int64
	DiskRepairs int64
}

// Lookups returns the number of cacheable Simulate calls.
func (s CacheStats) Lookups() int64 { return s.MemHits + s.DiskHits + s.Simulated }

// HitRate returns the fraction of cacheable lookups served without
// simulating (0 when there were none).
func (s CacheStats) HitRate() float64 {
	if n := s.Lookups(); n > 0 {
		return float64(s.MemHits+s.DiskHits) / float64(n)
	}
	return 0
}

// String formats the counters for the CLI stderr summaries.
func (s CacheStats) String() string {
	return fmt.Sprintf("%d points: %d simulated, %d memory hits, %d disk hits, %d bypassed (hit rate %.0f%%)",
		s.Lookups()+s.Bypassed, s.Simulated, s.MemHits, s.DiskHits, s.Bypassed, 100*s.HitRate())
}

// SimCache is a content-addressed cache of Simulate results: an in-process
// concurrent memo with single-flight semantics (overlapping experiments
// asking for the same point simulate it exactly once, even from concurrent
// RunIndexed workers), optionally backed by a versioned on-disk store that
// persists points across process invocations.
//
// Correctness rests on two properties. First, the key is the SHA-256 of a
// canonical encoding of every Simulate-relevant field of the normalized
// (Workload, MemoryConfig) — see cacheKey — so two calls share a key only
// when Simulate is guaranteed to return the identical Result for both.
// Second, observed runs (probes, faults, latency recording — anything whose
// value is the side effects, not the Result) bypass the cache entirely.
type SimCache struct {
	memo *simcache.Memo[Result]
	disk *simcache.Disk

	// Lookup counters. Registered in the run's metrics registry when one
	// is enabled at construction time, standalone otherwise — either way
	// the counters exist, so the CLI stderr summary (Stats/String) is a
	// thin formatter over the same numbers /metrics serves.
	memHits     *metrics.Counter
	diskHits    *metrics.Counter
	simulated   *metrics.Counter
	bypassed    *metrics.Counter
	dedupJoins  *metrics.Counter
	diskStores  *metrics.Counter
	diskRepairs *metrics.Counter
}

// cacheCounter registers the counter when metrics are enabled, else
// returns a standalone one so counting works regardless.
func cacheCounter(r *metrics.Registry, name string, labels ...metrics.Label) *metrics.Counter {
	if r == nil {
		return metrics.NewCounter()
	}
	return r.Counter(name, labels...)
}

// NewSimCache returns an in-process-only cache.
func NewSimCache() *SimCache {
	r := MetricsRegistry()
	return &SimCache{
		memo:        simcache.NewMemo[Result](),
		memHits:     cacheCounter(r, "simcache_hits_total", metrics.Label{Key: "tier", Value: "memory"}),
		diskHits:    cacheCounter(r, "simcache_hits_total", metrics.Label{Key: "tier", Value: "disk"}),
		simulated:   cacheCounter(r, "simcache_misses_total"),
		bypassed:    cacheCounter(r, "simcache_bypass_total"),
		dedupJoins:  cacheCounter(r, "simcache_dedup_joins_total"),
		diskStores:  cacheCounter(r, "simcache_disk_stores_total"),
		diskRepairs: cacheCounter(r, "simcache_disk_repairs_total"),
	}
}

// NewDiskSimCache returns a cache additionally backed by the on-disk store
// rooted at dir (created if needed) under the current cache version.
func NewDiskSimCache(dir string) (*SimCache, error) {
	disk, err := simcache.NewDisk(dir, cacheVersion)
	if err != nil {
		return nil, err
	}
	c := NewSimCache()
	c.disk = disk
	return c, nil
}

// Stats snapshots the lookup counters.
func (c *SimCache) Stats() CacheStats {
	return CacheStats{
		MemHits:     c.memHits.Value(),
		DiskHits:    c.diskHits.Value(),
		Simulated:   c.simulated.Value(),
		Bypassed:    c.bypassed.Value(),
		DedupJoins:  c.dedupJoins.Value(),
		DiskStores:  c.diskStores.Value(),
		DiskRepairs: c.diskRepairs.Value(),
	}
}

// CacheOutcome classifies how one cacheable lookup was answered. The
// simulation service reports it per request (an X-Sim-Cache header) so
// clients can tell a shared single-flight join from a plain hit without
// the response body ever depending on cache state.
type CacheOutcome int

const (
	// OutcomeBypass: the run was observed (probes, faults, latency
	// recording) and skipped the cache entirely.
	OutcomeBypass CacheOutcome = iota
	// OutcomeHit: answered from a finished memo entry (memory or disk).
	OutcomeHit
	// OutcomeJoined: blocked on another caller's in-flight computation of
	// the same point and shared its result (single-flight dedup).
	OutcomeJoined
	// OutcomeSimulated: this call ran the simulator.
	OutcomeSimulated
)

// String names the outcome for response headers and logs.
func (o CacheOutcome) String() string {
	switch o {
	case OutcomeBypass:
		return "bypass"
	case OutcomeHit:
		return "hit"
	case OutcomeJoined:
		return "joined"
	case OutcomeSimulated:
		return "simulated"
	default:
		return fmt.Sprintf("CacheOutcome(%d)", int(o))
	}
}

// Simulate is Simulate through this cache.
func (c *SimCache) Simulate(w Workload, mc MemoryConfig) (Result, error) {
	res, _, err := c.simulate(context.Background(), w, mc, nil)
	return res, err
}

// SimulateContext is Simulate through this cache with cancellation: ctx
// aborts the lookup (and, when every interested caller is gone, the
// underlying computation — see simcache.Memo.DoContext) and reports how
// the point was answered.
func (c *SimCache) SimulateContext(ctx context.Context, w Workload, mc MemoryConfig) (Result, CacheOutcome, error) {
	return c.simulate(ctx, w, mc, nil)
}

// simulate is Simulate through this cache, recording phase spans on lane
// when the run traces them (nil lane no-ops).
func (c *SimCache) simulate(ctx context.Context, w Workload, mc MemoryConfig, lane *probe.Lane) (Result, CacheOutcome, error) {
	key, cacheable := cacheKey(w, mc)
	if !cacheable {
		c.bypassed.Inc()
		res, err := simulateUncached(ctx, w, mc, lane)
		return res, OutcomeBypass, err
	}
	// The lookup phase spans the memo+disk consultation; when this call
	// ends up computing, it closes at the moment simulation starts.
	endLookup := lane.Phase("cache-lookup")
	looking := true
	res, err, hit, joined := c.memo.DoContext(ctx, key, func(cctx context.Context) (Result, error) {
		if c.disk != nil {
			if data, ok := c.disk.Get(key); ok {
				var r Result
				if err := json.Unmarshal(data, &r); err == nil {
					c.diskHits.Inc()
					return r, nil
				}
				// A corrupt or truncated entry reads as a miss; the Put
				// below overwrites it with a fresh result.
				c.diskRepairs.Inc()
			}
		}
		endLookup()
		looking = false
		r, err := simulateUncached(cctx, w, mc, lane)
		if err != nil {
			return Result{}, err
		}
		c.simulated.Inc()
		if c.disk != nil {
			if data, err := json.Marshal(r); err == nil {
				// Best effort: an unwritable store degrades to in-process
				// caching rather than failing the sweep.
				if c.disk.Put(key, data) == nil {
					c.diskStores.Inc()
				}
			}
		}
		return r, nil
	})
	if looking {
		endLookup()
	}
	outcome := cacheOutcome(hit, joined)
	if err != nil {
		return Result{}, outcome, err
	}
	if hit {
		c.memHits.Inc()
	}
	if joined {
		c.dedupJoins.Inc()
	}
	// Hand every caller its own PerChannel slice so nobody can mutate the
	// cached entry through the shared backing array.
	if res.PerChannel != nil {
		res.PerChannel = append([]power.Breakdown(nil), res.PerChannel...)
	}
	return res, outcome, nil
}

// memoEstimateOutcome publishes an analytic estimate under its
// fidelity-tagged key in the in-process memo (single-flight, shared with
// concurrent callers of the same point), reporting the cache outcome.
// Estimates never reach the disk store: the tier tag in the key already
// rules out collisions with exact entries, and a disk round-trip costs
// more than the microseconds the estimate takes to recompute — the disk
// store stays exact-only. Cache stats are simulator-entry stats and are
// not touched here; the per-tier fidelity counters account for estimate
// traffic.
func (c *SimCache) memoEstimateOutcome(ctx context.Context, w Workload, mc MemoryConfig, tier Fidelity, envTag string, est Result) (Result, CacheOutcome, error) {
	key, cacheable := cacheKeyTier(w, mc, tier, envTag)
	if !cacheable {
		return est, OutcomeBypass, nil
	}
	res, err, hit, joined := c.memo.DoContext(ctx, key, func(context.Context) (Result, error) {
		return est, nil
	})
	return res, cacheOutcome(hit, joined), err
}

// cacheOutcome classifies a memo lookup. A single-flight join reports
// hit and joined both, so joined is checked first.
func cacheOutcome(hit, joined bool) CacheOutcome {
	switch {
	case joined:
		return OutcomeJoined
	case hit:
		return OutcomeHit
	default:
		return OutcomeSimulated
	}
}

// activeCache is the process-wide cache consulted by Simulate; nil means
// every call simulates (the seed behavior, and the -no-cache spelling).
var activeCache atomic.Pointer[SimCache]

// EnableCache installs c as the process-wide cache used by Simulate (and
// therefore by every experiment runner). Passing nil disables caching.
func EnableCache(c *SimCache) { activeCache.Store(c) }

// DisableCache removes the process-wide cache.
func DisableCache() { activeCache.Store(nil) }

// EnabledCache returns the process-wide cache, or nil when disabled.
func EnabledCache() *SimCache { return activeCache.Load() }

// CacheKey exposes the content-addressed key for one simulation point —
// the identity the cache, the single-flight memo and the shard router all
// agree on. cacheable=false marks observed runs (probes, faults, latency
// recording) that never cache; a router may place such a request on any
// shard. The key is deterministic across hosts and processes, which is
// what makes consistent-hash placement by key meaningful at all.
func CacheKey(w Workload, mc MemoryConfig) (simcache.Key, bool) {
	return cacheKey(w, mc)
}

// cacheKey folds the normalized (Workload, MemoryConfig) into a
// content-addressed key, or reports cacheable=false for observed runs —
// probes, faults and latency recording exist for their side effects or
// non-deterministic-cost payloads, so they always simulate. (-check rides
// on NewProbe via AttachChecker, so checked runs bypass too.)
//
// Both structs are walked by reflection over their declared fields, so a
// field added to either is folded into the key automatically; only fields
// that cannot be canonically encoded (funcs, pointers with bypass
// semantics) are special-cased by name. TestCacheKeyFieldCoverage pins the
// special-case list and fails when a new field lands in it unhandled.
func cacheKey(w Workload, mc MemoryConfig) (simcache.Key, bool) {
	return cacheKeyTier(w, mc, FidelityExact, "")
}

// cacheKeyTier is cacheKey extended with the fidelity tier. Exact keys
// stay byte-identical to every release since the cache landed, so
// existing disk stores remain valid. Non-exact tiers fold the tier, the
// envelope schema version and the envelope content fingerprint into the
// key: an analytic estimate can never collide with — and therefore never
// pollute — an exact entry, and replacing the calibration envelope
// rotates every estimate key so stale bounds cannot answer.
func cacheKeyTier(w Workload, mc MemoryConfig, tier Fidelity, envTag string) (simcache.Key, bool) {
	if w.RecordLatency || mc.NewProbe != nil || mc.Faults != nil {
		return simcache.Key{}, false
	}
	e := simcache.NewEncoder()
	e.String("core.Simulate/" + cacheVersion)
	if tier != FidelityExact {
		e.String("fidelity/" + tier.String())
		e.String("envelope/" + analytic.EnvelopeSchema + "/" + envTag)
	}
	if err := encodeFields(e, normalizeWorkload(w)); err != nil {
		return simcache.Key{}, false
	}
	if err := encodeFields(e, normalizeMemoryConfig(mc)); err != nil {
		return simcache.Key{}, false
	}
	return e.Sum(), true
}

// normalizeWorkload folds the zero-value spellings onto the defaults
// Simulate substitutes, so "zero means default" configurations share a key
// with their explicit spelling. Purely a hit-rate optimization: an
// unnormalized field would only split one logical point across two keys,
// never alias two different points onto one.
func normalizeWorkload(w Workload) Workload {
	if w.Params == (usecase.Params{}) {
		w.Params = usecase.DefaultParams()
	}
	if w.SampleFraction == 0 {
		w.SampleFraction = 1
	}
	w.Load = w.Load.WithDefaults()
	return w
}

// normalizeMemoryConfig mirrors the default substitution memsys.New and
// Simulate perform (see normalizeWorkload). Device resolution runs first:
// a named device and its explicit geometry/timing spelling share a key,
// and the paper baseline's name collapses to the empty string.
func normalizeMemoryConfig(mc MemoryConfig) MemoryConfig {
	mc = mc.applyDevice()
	if mc.Geometry == (dram.Geometry{}) {
		mc.Geometry = dram.DefaultGeometry()
	}
	if mc.Timing == (dram.Timing{}) {
		mc.Timing = dram.DefaultTiming()
	}
	if mc.InterleaveGranularity == 0 {
		mc.InterleaveGranularity = mc.Geometry.BurstBytes()
	}
	ds, iface := mc.powerParams()
	mc.Datasheet, mc.Interface = &ds, &iface
	return mc
}

// encodeFields canonically encodes every field of a struct value,
// dereferencing the pointer fields cacheKey normalized to non-nil and
// encoding the bypass-only fields (already checked nil) as absent.
func encodeFields(e *simcache.Encoder, v any) error {
	rv := reflect.ValueOf(v)
	t := rv.Type()
	e.String(t.Name())
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		e.String(f.Name)
		switch {
		case f.Type.Kind() == reflect.Func:
			// NewProbe: non-nil was rejected above; nil encodes as a tag.
			e.Bool(false)
			continue
		case f.Name == "Faults":
			e.Bool(false)
			continue
		}
		if err := e.Value(rv.Field(i).Interface()); err != nil {
			return fmt.Errorf("core: cache key: %s.%s: %w", t.Name(), f.Name, err)
		}
	}
	return nil
}
