package core

import (
	"context"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/load"
	"repro/internal/power"
	"repro/internal/simcache"
	"repro/internal/units"
	"repro/internal/usecase"
)

// cacheTestWorkload returns a cheap, fully-normalized workload/config pair:
// every defaultable field is spelled out, so perturbing any leaf cannot
// collide with a normalization fold.
func cacheTestWorkload(t *testing.T) (Workload, MemoryConfig) {
	t.Helper()
	w, err := WorkloadFor("720p30")
	if err != nil {
		t.Fatal(err)
	}
	w.SampleFraction = 0.02
	w = normalizeWorkload(w)
	mc := normalizeMemoryConfig(PaperMemory(2, 400*units.MHz))
	return w, mc
}

func TestCacheKeyNormalizesDefaultSpellings(t *testing.T) {
	w, err := WorkloadFor("1080p30")
	if err != nil {
		t.Fatal(err)
	}
	mc := PaperMemory(4, 400*units.MHz)
	implicit, ok := cacheKey(w, mc)
	if !ok {
		t.Fatal("implicit spelling not cacheable")
	}

	// The same point with every default written out.
	we := w
	we.Params = usecase.DefaultParams()
	we.SampleFraction = 1
	we.Load = load.DefaultConfig()
	mce := mc
	mce.Geometry = dram.DefaultGeometry()
	mce.Timing = dram.DefaultTiming()
	mce.InterleaveGranularity = mce.Geometry.BurstBytes()
	ds := power.DefaultDatasheet()
	mce.Datasheet = &ds
	iface := power.DefaultInterface()
	mce.Interface = &iface
	explicit, ok := cacheKey(we, mce)
	if !ok {
		t.Fatal("explicit spelling not cacheable")
	}
	if implicit != explicit {
		t.Error("zero-value and explicit-default spellings produced different keys")
	}
}

// keyMutation perturbs one leaf of the (Workload, MemoryConfig) pair.
type keyMutation struct {
	path  string
	apply func(w *Workload, mc *MemoryConfig)
}

// collectMutations walks a value by reflection and returns one mutation per
// leaf: scalars are nudged, nil pointers and funcs are set non-nil. Pointer
// chains already non-nil in the base are walked through, so the datasheet
// and interface contents are perturbed field by field.
func collectMutations(v reflect.Value, path string, locate func(w *Workload, mc *MemoryConfig) reflect.Value) []keyMutation {
	at := func(step func(reflect.Value) reflect.Value) func(w *Workload, mc *MemoryConfig) reflect.Value {
		return func(w *Workload, mc *MemoryConfig) reflect.Value { return step(locate(w, mc)) }
	}
	switch v.Kind() {
	case reflect.Struct:
		var out []keyMutation
		for i := 0; i < v.NumField(); i++ {
			i := i
			f := v.Type().Field(i)
			out = append(out, collectMutations(v.Field(i), path+"."+f.Name,
				at(func(rv reflect.Value) reflect.Value { return rv.Field(i) }))...)
		}
		return out
	case reflect.Pointer:
		if v.IsNil() {
			elem := v.Type().Elem()
			return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
				locate(w, mc).Set(reflect.New(elem))
			}}}
		}
		return collectMutations(v.Elem(), path,
			at(func(rv reflect.Value) reflect.Value { return rv.Elem() }))
	case reflect.Func:
		return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
			fv := locate(w, mc)
			fv.Set(reflect.MakeFunc(fv.Type(), func([]reflect.Value) []reflect.Value {
				panic("never called")
			}))
		}}}
	case reflect.Bool:
		return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
			fv := locate(w, mc)
			fv.SetBool(!fv.Bool())
		}}}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
			fv := locate(w, mc)
			fv.SetInt(fv.Int() + 1)
		}}}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
			fv := locate(w, mc)
			fv.SetUint(fv.Uint() + 1)
		}}}
	case reflect.Float32, reflect.Float64:
		return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
			fv := locate(w, mc)
			fv.SetFloat(fv.Float() + 0.5)
		}}}
	case reflect.String:
		return []keyMutation{{path, func(w *Workload, mc *MemoryConfig) {
			fv := locate(w, mc)
			fv.SetString(fv.String() + "x")
		}}}
	default:
		return []keyMutation{{path + " (UNSUPPORTED KIND " + v.Kind().String() + ")", nil}}
	}
}

// cloneConfigs deep-copies the pair so a mutation through the datasheet or
// interface pointer cannot corrupt the base.
func cloneConfigs(w Workload, mc MemoryConfig) (Workload, MemoryConfig) {
	if mc.Datasheet != nil {
		d := *mc.Datasheet
		mc.Datasheet = &d
	}
	if mc.Interface != nil {
		f := *mc.Interface
		mc.Interface = &f
	}
	return w, mc
}

// TestCacheKeyFieldCoverage is the cache analogue of the controller Reset
// equivalence test: every leaf reachable from (Workload, MemoryConfig) is
// perturbed by reflection and must either move the key to a value no other
// leaf produces, or sit on the pinned bypass list (the observed-run fields
// that make a configuration uncacheable). A new struct field is therefore
// covered automatically — and a new field the canonical encoder cannot fold
// (a func, map or channel) fails this test until it is handled explicitly.
func TestCacheKeyFieldCoverage(t *testing.T) {
	w, mc := cacheTestWorkload(t)
	base, ok := cacheKey(w, mc)
	if !ok {
		t.Fatal("base configuration not cacheable")
	}

	bypass := map[string]bool{
		"Workload.RecordLatency": true,
		"MemoryConfig.NewProbe":  true,
		"MemoryConfig.Faults":    true,
	}

	muts := collectMutations(reflect.ValueOf(w), "Workload",
		func(w *Workload, mc *MemoryConfig) reflect.Value { return reflect.ValueOf(w).Elem() })
	muts = append(muts, collectMutations(reflect.ValueOf(mc), "MemoryConfig",
		func(w *Workload, mc *MemoryConfig) reflect.Value { return reflect.ValueOf(mc).Elem() })...)

	if len(muts) < 40 {
		t.Fatalf("only %d leaves found — the reflection walk is broken", len(muts))
	}
	seen := map[simcache.Key]string{base: "base"}
	for _, m := range muts {
		if m.apply == nil {
			t.Errorf("%s: leaf kind the mutation walker does not support", m.path)
			continue
		}
		wc, mcc := cloneConfigs(w, mc)
		m.apply(&wc, &mcc)
		key, cacheable := cacheKey(wc, mcc)
		if bypass[m.path] {
			if cacheable {
				t.Errorf("%s: observed-run field did not make the configuration uncacheable", m.path)
			}
			continue
		}
		if !cacheable {
			t.Errorf("%s: perturbation made the configuration uncacheable — new field needs explicit key handling", m.path)
			continue
		}
		if prev, dup := seen[key]; dup {
			t.Errorf("%s: key collides with %s — field not folded into the cache key", m.path, prev)
			continue
		}
		seen[key] = m.path
	}
}

func TestCacheServesIdenticalResults(t *testing.T) {
	w, mc := cacheTestWorkload(t)
	c := NewSimCache()
	r1, err := c.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Error("cache hit returned a different Result")
	}
	uncached, err := simulateUncached(context.Background(), w, mc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, uncached) {
		t.Error("cached Result differs from uncached simulation")
	}
	st := c.Stats()
	if st.Simulated != 1 || st.MemHits != 1 || st.Bypassed != 0 {
		t.Errorf("stats = %+v, want 1 simulated + 1 memory hit", st)
	}

	// A caller mutating its PerChannel slice must not poison the cache.
	if len(r2.PerChannel) == 0 {
		t.Fatal("no per-channel breakdowns")
	}
	r2.PerChannel[0] = power.Breakdown{}
	r3, err := c.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r3, r1) {
		t.Error("mutating a returned PerChannel slice corrupted the cached entry")
	}
}

func TestCacheBypassesObservedRuns(t *testing.T) {
	w, mc := cacheTestWorkload(t)
	c := NewSimCache()

	lat := w
	lat.RecordLatency = true
	if _, err := c.Simulate(lat, mc); err != nil {
		t.Fatal(err)
	}
	checked := mc
	if _, err := AttachChecker(&checked); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(w, checked); err != nil {
		t.Fatal(err)
	}
	faulty := mc
	faulty.Faults = &fault.Plan{}
	if _, err := c.Simulate(w, faulty); err != nil {
		t.Fatal(err)
	}

	st := c.Stats()
	if st.Bypassed != 3 || st.Simulated != 0 || st.MemHits != 0 {
		t.Errorf("stats = %+v, want 3 bypassed and nothing cached", st)
	}
}

func TestSimulateUsesEnabledCache(t *testing.T) {
	w, mc := cacheTestWorkload(t)
	c := NewSimCache()
	EnableCache(c)
	defer DisableCache()

	want, err := Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	// Sixteen identical points across concurrent workers simulate once.
	results, err := RunIndexed(8, 16, func(i int) (Result, error) {
		return Simulate(w, mc)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range results {
		if !reflect.DeepEqual(r, want) {
			t.Fatalf("point %d diverged from the cached result", i)
		}
	}
	st := c.Stats()
	if st.Simulated != 1 || st.MemHits != 16 {
		t.Errorf("stats = %+v, want exactly one simulation and 16 hits", st)
	}

	DisableCache()
	if EnabledCache() != nil {
		t.Fatal("DisableCache left a cache installed")
	}
	after, err := Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Simulated != 1 {
		t.Error("Simulate touched the cache after DisableCache")
	}
	if !reflect.DeepEqual(after, want) {
		t.Error("uncached Simulate diverged from the cached result")
	}
}

func TestDiskCachePersistsAcrossInstances(t *testing.T) {
	dir := t.TempDir()
	w, mc := cacheTestWorkload(t)

	c1, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	if st := c1.Stats(); st.Simulated != 1 {
		t.Fatalf("stats = %+v", st)
	}

	// A second instance (a later process) answers from disk, exactly.
	c2, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.DiskHits != 1 || st.Simulated != 0 {
		t.Errorf("stats = %+v, want a pure disk hit", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("disk round trip changed the Result")
	}
}

func TestDiskCacheSchemaVersioning(t *testing.T) {
	dir := t.TempDir()
	w, mc := cacheTestWorkload(t)
	c, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(w, mc); err != nil {
		t.Fatal(err)
	}
	// The cache version carries the answer fingerprint...
	if want := CacheSchemaVersion + "-" + AnswerFingerprint; cacheVersion != want {
		t.Fatalf("cache version %q, want %q (schema version and answer fingerprint)", cacheVersion, want)
	}
	// ...entries land under it...
	entries, err := filepath.Glob(filepath.Join(dir, cacheVersion, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries under %s: %v, %v", cacheVersion, entries, err)
	}
	// ...and a bumped schema version or a re-recorded fingerprint sees
	// none of them.
	for _, v := range []string{"v3-" + AnswerFingerprint, CacheSchemaVersion + "-0000000000000000"} {
		next, err := simcache.NewDisk(dir, v)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := next.Len(); err != nil || n != 0 {
			t.Errorf("cache version %s inherited %d entries (%v)", v, n, err)
		}
	}
}

func TestDiskCacheCorruptEntryRecomputes(t *testing.T) {
	dir := t.TempDir()
	w, mc := cacheTestWorkload(t)
	c1, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	want, err := c1.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(dir, cacheVersion, "*.json"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("entries: %v, %v", entries, err)
	}
	if err := os.WriteFile(entries[0], []byte("{truncated"), 0o644); err != nil {
		t.Fatal(err)
	}

	c2, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.Simulate(w, mc)
	if err != nil {
		t.Fatal(err)
	}
	st := c2.Stats()
	if st.Simulated != 1 || st.DiskHits != 0 {
		t.Errorf("stats = %+v, want recompute on a corrupt entry", st)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("recomputed Result differs")
	}
	// The recompute overwrote the corrupt entry; a third instance hits.
	c3, err := NewDiskSimCache(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c3.Simulate(w, mc); err != nil {
		t.Fatal(err)
	}
	if st := c3.Stats(); st.DiskHits != 1 {
		t.Errorf("stats = %+v, want the repaired entry to hit", st)
	}
}

// TestCacheOutcomeClassification pins the (hit, joined) → CacheOutcome
// mapping shared by exact and estimate lookups: Memo reports a
// single-flight join as hit and joined both, and that must read as a
// join, not a hit.
func TestCacheOutcomeClassification(t *testing.T) {
	for _, tc := range []struct {
		hit, joined bool
		want        CacheOutcome
	}{
		{false, false, OutcomeSimulated},
		{true, false, OutcomeHit},
		{true, true, OutcomeJoined},
		{false, true, OutcomeJoined},
	} {
		if got := cacheOutcome(tc.hit, tc.joined); got != tc.want {
			t.Errorf("cacheOutcome(hit=%v, joined=%v) = %v, want %v", tc.hit, tc.joined, got, tc.want)
		}
	}
}
