package core

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/units"
)

// sustainedGolden renders the SustainedResult fields examples/sustained
// prints, for its five recommended configurations (3 paced frame slots,
// fraction 0.1, 400 MHz), at full precision.
func sustainedGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	for _, c := range []struct {
		format   string
		channels int
	}{
		{"720p30", 1},
		{"720p60", 2},
		{"1080p30", 4},
		{"1080p60", 8},
		{"2160p30", 8},
	} {
		w, err := WorkloadFor(c.format)
		if err != nil {
			t.Fatal(err)
		}
		w.SampleFraction = 0.1
		res, err := SimulateSustained(w, PaperMemory(c.channels, 400*units.MHz), 3)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s %dch lateness=%d pd_residency=%v pd_exits=%d power_w=%v\n",
			c.format, c.channels, int64(res.Lateness), res.PowerDownResidency,
			res.PowerDownExits, float64(res.TotalPower))
	}
	return b.String()
}

// TestSustainedGolden pins the sustained example's numbers byte for byte
// (testdata/sustained.golden, recorded before the paced run became a view
// of the degradation engine's slot loop).
func TestSustainedGolden(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "sustained.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got := sustainedGolden(t); got != string(want) {
		t.Errorf("sustained results differ from testdata/sustained.golden:\ngot:\n%s\nwant:\n%s", got, want)
	}
}
