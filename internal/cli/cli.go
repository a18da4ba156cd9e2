// Package cli is the command-line front end the binaries under cmd/ share:
// the flag groups every design-space tool takes (design point or grid,
// model selection, run observability, result cache, observed run,
// profiling, daemon lifecycle), each registered on a *flag.FlagSet,
// validated while it parses and wired to the simulator in one place.
//
// Usage errors exit 2 before any work starts, naming the flag on stderr;
// runtime errors exit 1. Every message carries the program name in Name.
package cli

import (
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strconv"
	"strings"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/dram"
	"repro/internal/video"
)

// Name prefixes every message this package prints; each main sets it
// before registering its flags.
var Name string

// Fatal reports a runtime error and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", Name, err)
	os.Exit(1)
}

// Usage reports a usage error, prints fs's usage and exits 2, the status
// the flag package uses for its own parse errors.
func Usage(fs *flag.FlagSet, format string, args ...any) {
	fmt.Fprintf(os.Stderr, "%s: %s\n", Name, fmt.Sprintf(format, args...))
	fs.Usage()
	os.Exit(2)
}

// value is a flag that parses its text into *p and rejects what parse
// rejects, so a bad value fails fs.Parse with exit 2 and the flag named.
type value[T any] struct {
	p     *T
	parse func(string) (T, error)
	text  string
}

func (v *value[T]) String() string { return v.text }

func (v *value[T]) Set(s string) error {
	x, err := v.parse(s)
	if err != nil {
		return err
	}
	*v.p, v.text = x, s
	return nil
}

// define registers a validated flag; its default def is flag text and
// goes through parse like any command-line value.
func define[T any](fs *flag.FlagSet, p *T, name, def, usage string, parse func(string) (T, error)) {
	v := &value[T]{p: p, parse: parse}
	if err := v.Set(def); err != nil {
		panic(fmt.Sprintf("flag -%s: bad default %q: %v", name, def, err))
	}
	fs.Var(v, name, usage)
}

// parseList returns a parser of comma-separated lists whose elements,
// trimmed of spaces, each go through parse.
func parseList[T any](parse func(string) (T, error)) func(string) ([]T, error) {
	return func(s string) ([]T, error) {
		var out []T
		for _, part := range strings.Split(s, ",") {
			v, err := parse(strings.TrimSpace(part))
			if err != nil {
				return nil, fmt.Errorf("bad list element %q: %v", part, err)
			}
			out = append(out, v)
		}
		return out, nil
	}
}

// parseInts parses a comma-separated integer list such as "1, 2,4".
var parseInts = parseList(strconv.Atoi)

func parseFormat(s string) (string, error) {
	_, err := video.ProfileFor(s)
	return s, err
}

func parseFloat(s string) (float64, error) { return strconv.ParseFloat(s, 64) }

// formats lists the frame formats, in paper order plus the Fig. 4 point.
const formats = "720p30,720p60,1080p30,1080p60,2160p30,2160p60"

// Point is one design point: -format, -channels and -freq.
type Point struct {
	Format   string
	Channels int
	FreqMHz  float64
}

// PointFlags registers the single-point flags with the binary's default
// format and channel count; the clock defaults to 400 MHz.
func PointFlags(fs *flag.FlagSet, format, channels string) *Point {
	p := &Point{}
	define(fs, &p.Format, "format", format, "frame format, one of "+formats, parseFormat)
	define(fs, &p.Channels, "channels", channels, "memory channel count (1, 2, 4, 8)", strconv.Atoi)
	define(fs, &p.FreqMHz, "freq", "400", "interface clock in MHz (200-533 for the paper device; other -device entries carry their own range)", parseFloat)
	return p
}

// Grid is a design-space cross product: -formats, -channels and -freqs.
type Grid struct {
	Formats  []string
	Channels []int
	FreqsMHz []int
}

// GridFlags registers the grid flags, defaulting to the paper's grid.
func GridFlags(fs *flag.FlagSet) *Grid {
	g := &Grid{}
	define(fs, &g.Formats, "formats", formats, "comma-separated frame formats", parseList(parseFormat))
	define(fs, &g.Channels, "channels", "1,2,4,8", "comma-separated channel counts", parseInts)
	define(fs, &g.FreqsMHz, "freqs", "200,266,333,400,533", "comma-separated clock frequencies in MHz", parseInts)
	return g
}

// Model selects what is simulated: -policy, -device, -fidelity and
// -fraction. Names are kept as given (an empty one means the default), so
// a client can forward them; PagePolicy and Tier return them parsed.
type Model struct {
	Policy   string
	Device   string
	Fidelity string
	Fraction float64
}

// ModelFlags registers -policy, -device and -fraction (see FractionFlag);
// binaries that choose a fidelity tier add FidelityFlag.
func ModelFlags(fs *flag.FlagSet, fraction string, fullFrame bool) *Model {
	m := &Model{}
	define(fs, &m.Policy, "policy", "", "controller scheduling policy: "+strings.Join(controller.PolicyNames(), ", ")+" (empty = open-page)",
		func(s string) (string, error) { _, err := controller.ParsePolicy(s); return s, err })
	define(fs, &m.Device, "device", "", "DRAM datasheet: "+strings.Join(dram.DeviceNames(), ", ")+" (empty = paper)",
		func(s string) (string, error) { _, err := dram.Device(s); return s, err })
	FractionFlag(fs, &m.Fraction, fraction, fullFrame)
	return m
}

// PagePolicy returns the validated -policy.
func (m *Model) PagePolicy() controller.PagePolicy {
	p, _ := controller.ParsePolicy(m.Policy) // validated while parsing
	return p
}

// Tier returns the validated -fidelity.
func (m *Model) Tier() core.Fidelity {
	t, _ := core.ParseFidelity(m.Fidelity) // validated while parsing
	return t
}

// FractionFlag registers -fraction, the share of each frame to simulate
// (results extrapolate linearly). It takes (0,1], and 0 as well where
// fullFrame says the binary reads it as the full frame.
func FractionFlag(fs *flag.FlagSet, p *float64, def string, fullFrame bool) {
	usage, low := "fraction of each frame to simulate (results extrapolate linearly)", "("
	if fullFrame {
		usage, low = usage+"; 0 = full frame", "["
	}
	define(fs, p, "fraction", def, usage, func(s string) (float64, error) {
		f, err := parseFloat(s)
		if err == nil && (f > 1 || !(f > 0 || fullFrame && f == 0)) {
			err = fmt.Errorf("must be in %s0,1]", low)
		}
		return f, err
	})
}

// FidelityFlag registers -fidelity; an empty def lets the server pick.
func FidelityFlag(fs *flag.FlagSet, p *string, def string) {
	define(fs, p, "fidelity", def, "exact = cycle-accurate simulation; fast = closed-form analytic estimate (no verdict guarantee); auto = analytic where the calibration envelope proves the verdict, cycle-accurate fallback elsewhere",
		func(s string) (string, error) {
			if s == "" && def == "" {
				return s, nil
			}
			_, err := core.ParseFidelity(s)
			return s, err
		})
}

// JobsFlag registers -jobs, the number of concurrent sweep points.
func JobsFlag(fs *flag.FlagSet, p *int) {
	define(fs, p, "jobs", "0", "concurrent sweep points (0 = one per CPU, 1 = serial); output is identical at any job count",
		func(s string) (int, error) {
			n, err := strconv.Atoi(s)
			if err == nil && n < 0 {
				err = fmt.Errorf("must be >= 0 (0 = one per CPU)")
			}
			return n, err
		})
}

// Cache is the result-cache group: -cache-dir and -no-cache.
type Cache struct {
	Dir string
	Off bool
}

// DirFlag registers -cache-dir.
func (c *Cache) DirFlag(fs *flag.FlagSet) {
	define(fs, &c.Dir, "cache-dir", "", "persist simulated points to a content-addressed on-disk cache under this directory (versioned; later runs reuse them)",
		func(s string) (string, error) { return s, c.conflict(s, c.Off) })
}

// OffFlag registers -no-cache.
func (c *Cache) OffFlag(fs *flag.FlagSet) {
	fs.BoolFunc("no-cache", "simulate every point (disables the result cache; output is byte-identical either way)", func(s string) error {
		off, err := strconv.ParseBool(s)
		if err != nil {
			return err
		}
		c.Off = off
		return c.conflict(c.Dir, off)
	})
}

func (c *Cache) conflict(dir string, off bool) error {
	if dir != "" && off {
		return fmt.Errorf("-no-cache conflicts with -cache-dir %q: the on-disk cache cannot be both used and disabled", dir)
	}
	return nil
}

// Open returns the cache the flags select: none with -no-cache, on disk
// under -cache-dir, else in memory when mem is set.
func (c *Cache) Open(mem bool) *core.SimCache {
	switch {
	case c.Off:
		return nil
	case c.Dir != "":
		cache, err := core.NewDiskSimCache(c.Dir)
		if err != nil {
			Fatal(err)
		}
		return cache
	case mem:
		return core.NewSimCache()
	}
	return nil
}

// Enable opens the cache (see Open) and serves every simulation through
// it; done prints its statistics to stderr, keeping stdout byte-identical,
// and disables it again.
func (c *Cache) Enable(mem bool) (done func()) {
	cache := c.Open(mem)
	core.EnableCache(cache)
	return func() {
		if cache != nil {
			fmt.Fprintln(os.Stderr, Name+": cache:", cache.Stats())
		}
		core.DisableCache()
	}
}

// Profile is the profiling group: -cpuprofile and -memprofile.
type Profile struct{ CPU, Mem string }

// ProfileFlags registers the profiling flags.
func ProfileFlags(fs *flag.FlagSet) *Profile {
	p := &Profile{}
	fs.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile to this file")
	fs.StringVar(&p.Mem, "memprofile", "", "write a heap profile to this file on exit")
	return p
}

// Start begins CPU profiling when asked; stop ends it and writes the heap
// profile when asked.
func (p *Profile) Start() (stop func()) {
	var cpu *os.File
	if p.CPU != "" {
		f, err := os.Create(p.CPU)
		if err != nil {
			Fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			Fatal(err)
		}
		cpu = f
	}
	return func() {
		if cpu != nil {
			pprof.StopCPUProfile()
			cpu.Close()
		}
		if p.Mem == "" {
			return
		}
		f, err := os.Create(p.Mem)
		if err != nil {
			Fatal(err)
		}
		defer f.Close()
		if err := pprof.WriteHeapProfile(f); err != nil {
			Fatal(err)
		}
	}
}
