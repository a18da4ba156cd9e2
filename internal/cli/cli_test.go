package cli

import (
	"flag"
	"io"
	"testing"
)

func TestParseInts(t *testing.T) {
	got, err := parseInts("1, 2,4,8")
	if err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4, 8}
	if len(got) != len(want) {
		t.Fatalf("parsed %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("parsed %v, want %v", got, want)
		}
	}
	if _, err := parseInts("1,x"); err == nil {
		t.Error("expected error for bad element")
	}
	if _, err := parseInts(""); err == nil {
		t.Error("expected error for empty list")
	}
}

// TestAcceptedValues pins which values the shared flags accept, per the
// binary's choices: 0 is the full frame only where fullFrame says so, an
// empty -fidelity only where it is the default, and the cache flags
// conflict in either order.
func TestAcceptedValues(t *testing.T) {
	parse := func(register func(*flag.FlagSet), args ...string) error {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		register(fs)
		return fs.Parse(args)
	}
	var f float64
	var s string
	var c Cache
	cases := []struct {
		name     string
		register func(*flag.FlagSet)
		args     []string
		ok       bool
	}{
		{"fraction 0 as full frame", func(fs *flag.FlagSet) { FractionFlag(fs, &f, "1", true) }, []string{"-fraction", "0"}, true},
		{"fraction 0 without full frame", func(fs *flag.FlagSet) { FractionFlag(fs, &f, "0.2", false) }, []string{"-fraction", "0"}, false},
		{"fraction 1", func(fs *flag.FlagSet) { FractionFlag(fs, &f, "0.2", false) }, []string{"-fraction", "1"}, true},
		{"fraction above 1", func(fs *flag.FlagSet) { FractionFlag(fs, &f, "0", true) }, []string{"-fraction", "1.5"}, false},
		{"fraction NaN", func(fs *flag.FlagSet) { FractionFlag(fs, &f, "0", true) }, []string{"-fraction", "NaN"}, false},
		{"fidelity empty by default", func(fs *flag.FlagSet) { FidelityFlag(fs, &s, "") }, []string{"-fidelity", ""}, true},
		{"fidelity empty", func(fs *flag.FlagSet) { FidelityFlag(fs, &s, "exact") }, []string{"-fidelity", ""}, false},
		{"fidelity auto", func(fs *flag.FlagSet) { FidelityFlag(fs, &s, "exact") }, []string{"-fidelity", "auto"}, true},
		{"policy alias", func(fs *flag.FlagSet) { ModelFlags(fs, "0.1", false) }, []string{"-policy", "fr-fcfs"}, true},
		{"format 2160p60", func(fs *flag.FlagSet) { PointFlags(fs, "720p30", "1") }, []string{"-format", "2160p60"}, true},
		{"grid formats", func(fs *flag.FlagSet) { GridFlags(fs) }, []string{"-formats", "720p30, 1080p60"}, true},
		{"cache both, dir first", func(fs *flag.FlagSet) { c = Cache{}; c.DirFlag(fs); c.OffFlag(fs) }, []string{"-cache-dir", "d", "-no-cache"}, false},
		{"cache both, off first", func(fs *flag.FlagSet) { c = Cache{}; c.DirFlag(fs); c.OffFlag(fs) }, []string{"-no-cache", "-cache-dir", "d"}, false},
		{"cache off cleared", func(fs *flag.FlagSet) { c = Cache{}; c.DirFlag(fs); c.OffFlag(fs) }, []string{"-no-cache", "-no-cache=false", "-cache-dir", "d"}, true},
	}
	for _, tc := range cases {
		if err := parse(tc.register, tc.args...); (err == nil) != tc.ok {
			t.Errorf("%s: %v: err = %v, want ok = %v", tc.name, tc.args, err, tc.ok)
		}
	}
}
