package load

import (
	"fmt"
	"testing"

	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/usecase"
	"repro/internal/video"
)

// referenceEmit replays the frame source's defining arithmetic: in every
// round, stream i is due (round+1)·tiles_i/maxTiles tiles, computed by
// division, and emits when it has fewer, addressed (base+pos) mod the
// capacity. stage < 0 replays Frame (every stage, streams numbered in
// construction order); otherwise StageFrame(stage), whose streams all
// carry identity 0.
func referenceEmit(g *Generator, stage int, fraction float64, emit func(memsys.Request)) {
	type refCursor struct {
		s                          stream
		id                         int
		bytes, tiles, emitted, pos int64
	}
	id := 0
	for i, st := range g.stages {
		var cs []refCursor
		var maxTiles int64
		for _, s := range st.streams {
			sid := id
			id++
			if stage >= 0 {
				sid = 0
			}
			bytes := int64(float64(s.bytes) * fraction)
			if bytes == 0 {
				continue
			}
			tiles := (bytes + s.run - 1) / s.run
			cs = append(cs, refCursor{s: s, id: sid, bytes: bytes, tiles: tiles})
			if tiles > maxTiles {
				maxTiles = tiles
			}
		}
		if stage >= 0 && i != stage {
			continue
		}
		for round := int64(0); round < maxTiles; round++ {
			for k := range cs {
				c := &cs[k]
				due := (round + 1) * c.tiles / maxTiles
				if c.emitted < due && c.pos < c.bytes {
					n := c.s.run
					if rem := c.bytes - c.pos; rem < n {
						n = rem
					}
					addr := (c.s.base + c.pos) % g.capacity
					c.emitted++
					c.pos += n
					emit(memsys.Request{Write: c.s.write, Addr: addr, Bytes: n, Stream: c.id})
				}
			}
		}
	}
}

// checkAgainstReference drains src request by request against the
// reference replay of the same frame or stage.
func checkAgainstReference(t *testing.T, name string, g *Generator, stage int, fraction float64, src memsys.Source) {
	t.Helper()
	var i int
	bad := false
	referenceEmit(g, stage, fraction, func(want memsys.Request) {
		if bad {
			return
		}
		got, ok := src.Next()
		if !ok || got != want {
			t.Errorf("%s: request %d = %+v (ok %v), want %+v", name, i, got, ok, want)
			bad = true
		}
		i++
	})
	if r, ok := src.Next(); !bad && ok {
		t.Errorf("%s: extra request %d %+v after the reference ended", name, i, r)
	}
}

// checkGenerator compares Frame and every StageFrame of g at the fraction
// against the reference.
func checkGenerator(t *testing.T, name string, g *Generator, fraction float64, stages bool) {
	t.Helper()
	src, err := g.Frame(fraction)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	checkAgainstReference(t, name, g, -1, fraction, src)
	if !stages {
		return
	}
	for s := 0; s < g.StageCount(); s++ {
		src, err := g.StageFrame(s, fraction)
		if err != nil {
			t.Fatalf("%s stage %d: %v", name, s, err)
		}
		checkAgainstReference(t, name+" "+g.StageName(s), g, s, fraction, src)
	}
}

// TestFrameSourceMatchesReference requires the incremental frame source
// (accumulator pacing, subtraction wrap) to emit exactly the requests of
// the division formula it replaces, for every recording format, channel
// count and sampling fraction, for single stages, for the custom,
// playback and viewfinder generators, and for buffers placed past and
// across the end of the memory so addresses wrap its capacity.
func TestFrameSourceMatchesReference(t *testing.T) {
	geo := dram.DefaultGeometry()
	profiles := append([]video.Profile(nil), video.EvaluatedProfiles...)
	p60, err := video.ProfileFor("2160p60")
	if err != nil {
		t.Fatal(err)
	}
	profiles = append(profiles, p60)
	for _, prof := range profiles {
		uc, err := usecase.New(prof, usecase.DefaultParams())
		if err != nil {
			t.Fatal(err)
		}
		for _, channels := range []int{1, 2, 3, 4, 8} {
			g, err := New(uc, channels, geo, Config{})
			if err != nil {
				t.Fatal(err)
			}
			for _, fraction := range []float64{0.002, 0.02, 0.1, 1} {
				name := fmt.Sprintf("%s %d ch fraction %v", prof.Format.Name, channels, fraction)
				checkGenerator(t, name, g, fraction, fraction == 0.02)
			}
		}
	}

	// Buffers placed near the end of the memory wrap mid-buffer; a base
	// beyond the capacity starts every stream wrapped.
	prof, err := video.ProfileFor("1080p30")
	if err != nil {
		t.Fatal(err)
	}
	uc, err := usecase.New(prof, usecase.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	for _, channels := range []int{1, 3} {
		capacity := geo.Bytes() * int64(channels)
		for _, base := range []int64{capacity - 24<<20, 3*capacity + 40<<20} {
			g, err := New(uc, channels, geo, Config{BaseAddress: base})
			if err != nil {
				t.Fatal(err)
			}
			straddles := false
			for _, b := range g.Buffers() {
				straddles = straddles || (b.Base < capacity && b.Base+b.Size > capacity)
			}
			if base < capacity && !straddles {
				t.Fatalf("base %d: no buffer crosses the %d-byte capacity", base, capacity)
			}
			checkGenerator(t, fmt.Sprintf("%d ch base %d", channels, base), g, 0.1, true)
		}
	}

	buffers, stages := customSpec()
	custom, err := NewCustom(buffers, stages, 3, geo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pb, err := usecase.NewPlayback(prof, usecase.DefaultPlaybackParams())
	if err != nil {
		t.Fatal(err)
	}
	playback, err := NewPlayback(pb, 2, geo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	vf, err := usecase.NewViewfinder(prof.Format, usecase.DefaultViewfinderParams())
	if err != nil {
		t.Fatal(err)
	}
	viewfinder, err := NewViewfinder(vf, 4, geo, Config{})
	if err != nil {
		t.Fatal(err)
	}
	for _, fraction := range []float64{0.02, 1} {
		checkGenerator(t, "custom", custom, fraction, true)
		checkGenerator(t, "playback", playback, fraction, true)
		checkGenerator(t, "viewfinder", viewfinder, fraction, true)
	}
}
