package main

import (
	"strings"
	"testing"

	"repro/internal/core"
)

// renderAll renders every artifact of the paper run (the -all equivalent)
// into one string, in both table and CSV form.
func renderAll(t *testing.T, opt core.RunOptions) string {
	t.Helper()
	var b strings.Builder
	for _, a := range artifacts {
		tb, err := a.run(opt)
		if err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
		b.WriteString(tb.String())
		if err := tb.RenderCSV(&b); err != nil {
			t.Fatalf("%s: %v", a.name, err)
		}
	}
	return b.String()
}

// TestCacheOutputByteIdentical pins the headline cache guarantee: the full
// paper output is byte-identical with the cache disabled, cold, warm, and
// at any job count.
func TestCacheOutputByteIdentical(t *testing.T) {
	core.DisableCache()
	want := renderAll(t, fastOpt)

	cache := core.NewSimCache()
	core.EnableCache(cache)
	defer core.DisableCache()

	cold := renderAll(t, fastOpt)
	if cold != want {
		t.Error("cold-cache output differs from -no-cache output")
	}
	st := cache.Stats()
	if st.Simulated == 0 || st.MemHits == 0 {
		t.Errorf("stats = %+v: the artifacts should both simulate and hit", st)
	}

	warm := renderAll(t, fastOpt)
	if warm != want {
		t.Error("warm-cache output differs from -no-cache output")
	}
	if st2 := cache.Stats(); st2.Simulated != st.Simulated {
		t.Errorf("warm pass simulated %d new points, want 0", st2.Simulated-st.Simulated)
	}

	serialOpt := fastOpt
	serialOpt.Jobs = 1
	if serial := renderAll(t, serialOpt); serial != want {
		t.Error("-jobs 1 cached output differs from the parallel -no-cache output")
	}
}
