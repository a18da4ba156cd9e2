// Package load implements the paper's load model: the video-recording use
// case (Fig. 1) described as a state machine whose states issue read and
// write requests to the memory subsystem. Everything above the memory
// controllers — SMP cores, hardware accelerators, caches — is abstracted
// into this model; only the cache-miss traffic of the recording chain
// reaches memory.
//
// Each pipeline stage becomes a set of concurrent sequential streams over
// placed frame buffers (a noise filter reads the sensor frame while writing
// the filtered frame; the encoder reads the current frame and several
// reference windows while writing the reconstructed frame). Streams are
// interleaved proportionally at stream-specific granularities: whole-frame
// image streams move in DMA-sized runs, encoder reference fetches in short
// search-window rows. Master transactions span all channels ("all the
// channels can be used in a single master transaction", section III), so
// the per-channel run length — and therefore channel efficiency — is
// independent of the channel count.
package load

import (
	"fmt"

	"repro/internal/dram"
	"repro/internal/memsys"
	"repro/internal/usecase"
)

// Config tunes the load model's access granularities. All sizes are
// per-channel bytes per stream visit; the generator multiplies by the
// channel count to size master transactions. Zero values take defaults.
type Config struct {
	// ImageRun is the per-channel run of whole-frame image streams
	// (camera, filters, scaler, display refresh).
	ImageRun int64
	// RefRun is the per-channel run of encoder reference-frame fetches:
	// one search-window row, much shorter than an image DMA run.
	RefRun int64
	// CodingRun is the per-channel run of the encoder's current-frame
	// reads and reconstructed-frame writes.
	CodingRun int64
	// BitstreamRun is the per-channel run of bitstream, audio and
	// multiplex traffic.
	BitstreamRun int64
	// BaseAddress offsets every placed buffer, letting several workloads
	// share one memory without overlapping (used with memsys.Merge).
	BaseAddress int64
}

// DefaultConfig returns the calibrated granularities (see DESIGN.md
// section 5: these, with the paper's device timing, put sustained channel
// efficiency at the ~0.74 the paper's feasibility classifications imply).
func DefaultConfig() Config {
	return Config{ImageRun: 96, RefRun: 48, CodingRun: 96, BitstreamRun: 64}
}

// WithDefaults returns the config with zero granularities replaced by the
// calibrated defaults — the spelling New actually simulates. Callers that
// key on a Config (the simulation cache) normalize through this so the zero
// value and the explicit defaults share a key.
func (c Config) WithDefaults() Config {
	c.fillDefaults()
	return c
}

func (c *Config) fillDefaults() {
	d := DefaultConfig()
	if c.ImageRun == 0 {
		c.ImageRun = d.ImageRun
	}
	if c.RefRun == 0 {
		c.RefRun = d.RefRun
	}
	if c.CodingRun == 0 {
		c.CodingRun = d.CodingRun
	}
	if c.BitstreamRun == 0 {
		c.BitstreamRun = d.BitstreamRun
	}
}

// Validate checks granularities for sanity.
func (c Config) Validate() error {
	for _, v := range []int64{c.ImageRun, c.RefRun, c.CodingRun, c.BitstreamRun} {
		if v < 16 {
			return fmt.Errorf("load: run %d below the 16-byte burst", v)
		}
		if v%16 != 0 {
			return fmt.Errorf("load: run %d not a multiple of the 16-byte burst", v)
		}
	}
	if c.BaseAddress < 0 {
		return fmt.Errorf("load: negative base address %d", c.BaseAddress)
	}
	return nil
}

// Buffer is a placed frame buffer in the global address space.
type Buffer struct {
	Name string
	Base int64
	Size int64
}

// allocator places buffers bank-group aligned with rotating bank phases, the
// layout a bandwidth-tuned system uses so concurrently walked buffers start
// in different banks.
type allocator struct {
	next     int64
	rowSpan  int64 // bytes of global address space per local DRAM row
	banks    int64
	phase    int64
	capacity int64
}

func newAllocator(channels int, g dram.Geometry) *allocator {
	return &allocator{
		rowSpan:  g.RowBytes() * int64(channels),
		banks:    int64(g.Banks),
		capacity: g.Bytes() * int64(channels),
	}
}

func (a *allocator) alloc(name string, size int64) Buffer {
	group := a.rowSpan * a.banks
	base := ((a.next + group - 1) / group) * group
	base += (a.phase % a.banks) * a.rowSpan
	a.phase++
	a.next = base + size
	return Buffer{Name: name, Base: base, Size: size}
}

// stream is one sequential access pattern of a stage.
type stream struct {
	name  string
	write bool
	base  int64
	bytes int64 // payload this frame
	run   int64 // master transaction size (per-channel run x channels)
}

// stage is one state of the load state machine.
type stage struct {
	id      usecase.StageID
	streams []stream
}

// Generator produces the memory transactions of recording frames.
type Generator struct {
	load     usecase.Load
	cfg      Config
	channels int
	stages   []stage
	buffers  []Buffer
	capacity int64
}

// New builds a generator for the use-case load on an M-channel memory with
// the given bank-cluster geometry.
func New(l usecase.Load, channels int, g dram.Geometry, cfg Config) (*Generator, error) {
	cfg.fillDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if channels <= 0 {
		return nil, fmt.Errorf("load: %d channels", channels)
	}
	if err := g.Validate(); err != nil {
		return nil, err
	}
	gen := &Generator{load: l, cfg: cfg, channels: channels, capacity: g.Bytes() * int64(channels)}

	// Place the frame buffers of Fig. 1.
	f := l.Profile.Format
	border := l.Params.StabilizationBorder * l.Params.StabilizationBorder
	borderedBytes := int64(border * float64(f.Pixels()) * 2) // 16 bpp
	yuvBytes := f.Pixels() * 2                               // 16 bpp
	refBytes := f.Pixels() * 3 / 2                           // 12 bpp
	dispYUVBytes := l.Params.Display.Pixels() * 2
	dispRGBBytes := l.Params.Display.Pixels() * 3
	refs := l.ReferenceFrames()

	al := newAllocator(channels, g)
	al.next = cfg.BaseAddress
	alloc := func(name string, size int64) Buffer {
		b := al.alloc(name, size)
		gen.buffers = append(gen.buffers, b)
		return b
	}
	sensorA := alloc("sensor", borderedBytes)
	sensorB := alloc("preprocessed", borderedBytes)
	yuvA := alloc("yuv-bordered", borderedBytes)
	yuvStab := alloc("yuv-stabilized", yuvBytes)
	yuvZoom := alloc("yuv-zoomed", yuvBytes)
	dispYUV := alloc("display-yuv", dispYUVBytes)
	dispRGB := alloc("display-rgb", dispRGBBytes)
	refBufs := make([]Buffer, refs)
	for i := range refBufs {
		refBufs[i] = alloc(fmt.Sprintf("reference-%d", i), refBytes)
	}
	recon := alloc("reconstructed", refBytes)
	bitstream := alloc("bitstream", 1<<20)
	mux := alloc("mux", 1<<20)
	audio := alloc("audio", 1<<16)

	imgRun := cfg.ImageRun * int64(channels)
	refRun := cfg.RefRun * int64(channels)
	codRun := cfg.CodingRun * int64(channels)
	bsRun := cfg.BitstreamRun * int64(channels)

	// Translate each Fig. 1 stage's traffic volumes into streams. The
	// per-stage read/write volumes come from the use-case model, so the
	// generated traffic reproduces Table I exactly.
	st := l.Stages
	rd := func(id usecase.StageID) int64 { return st[id].ReadBits.Bytes() }
	wr := func(id usecase.StageID) int64 { return st[id].WriteBits.Bytes() }

	addStage := func(id usecase.StageID, streams ...stream) {
		var kept []stream
		for _, s := range streams {
			if s.bytes > 0 {
				kept = append(kept, s)
			}
		}
		if len(kept) > 0 {
			gen.stages = append(gen.stages, stage{id: id, streams: kept})
		}
	}

	addStage(usecase.StageCameraIF,
		stream{"camera-wr", true, sensorA.Base, wr(usecase.StageCameraIF), imgRun})
	addStage(usecase.StagePreprocess,
		stream{"pre-rd", false, sensorA.Base, rd(usecase.StagePreprocess), imgRun},
		stream{"pre-wr", true, sensorB.Base, wr(usecase.StagePreprocess), imgRun})
	addStage(usecase.StageBayerToYUV,
		stream{"b2y-rd", false, sensorB.Base, rd(usecase.StageBayerToYUV), imgRun},
		stream{"b2y-wr", true, yuvA.Base, wr(usecase.StageBayerToYUV), imgRun})
	addStage(usecase.StageStabilization,
		stream{"stab-rd", false, yuvA.Base, rd(usecase.StageStabilization), imgRun},
		stream{"stab-wr", true, yuvStab.Base, wr(usecase.StageStabilization), imgRun})
	addStage(usecase.StagePostprocZoom,
		stream{"zoom-rd", false, yuvStab.Base, rd(usecase.StagePostprocZoom), imgRun},
		stream{"zoom-wr", true, yuvZoom.Base, wr(usecase.StagePostprocZoom), imgRun})
	addStage(usecase.StageScaleToDisplay,
		stream{"scale-rd", false, yuvZoom.Base, rd(usecase.StageScaleToDisplay), imgRun},
		stream{"scale-wr", true, dispYUV.Base, wr(usecase.StageScaleToDisplay), imgRun})
	addStage(usecase.StageDisplayCtrl,
		stream{"disp-rd", false, dispRGB.Base, rd(usecase.StageDisplayCtrl), imgRun})

	// Encoder: the reference traffic (implementation factor x 12 bpp x
	// refs) is spread evenly over the reference frames and fetched in
	// search-window rows; current-frame reads and reconstructed-frame
	// writes move in DMA runs; the output bitstream trickles out.
	encStreams := []stream{
		{"enc-cur", false, yuvZoom.Base, yuvBytes, codRun},
	}
	refTraffic := rd(usecase.StageVideoEncoder) - yuvBytes
	if refTraffic < 0 {
		refTraffic = 0
	}
	for i, rb := range refBufs {
		encStreams = append(encStreams, stream{
			fmt.Sprintf("enc-ref%d", i), false, rb.Base, refTraffic / int64(refs), refRun})
	}
	vBytes := wr(usecase.StageVideoEncoder) - refBytes
	if vBytes < 0 {
		vBytes = 0
	}
	encStreams = append(encStreams,
		stream{"enc-recon", true, recon.Base, refBytes, codRun},
		stream{"enc-bs", true, bitstream.Base, vBytes, bsRun})
	addStage(usecase.StageVideoEncoder, encStreams...)

	addStage(usecase.StageAudio,
		stream{"audio-wr", true, audio.Base, wr(usecase.StageAudio), bsRun})
	addStage(usecase.StageMultiplex,
		stream{"mux-rd", false, bitstream.Base, rd(usecase.StageMultiplex), bsRun},
		stream{"mux-wr", true, mux.Base, wr(usecase.StageMultiplex), bsRun})
	addStage(usecase.StageMemoryCard,
		stream{"card-rd", false, mux.Base, rd(usecase.StageMemoryCard), bsRun})

	return gen, nil
}

// Buffers returns the placed frame buffers.
func (g *Generator) Buffers() []Buffer { return g.buffers }

// FrameBytes returns the total payload of one frame's transactions.
func (g *Generator) FrameBytes() int64 {
	var sum int64
	for _, st := range g.stages {
		for _, s := range st.streams {
			sum += s.bytes
		}
	}
	return sum
}

// Frame returns a transaction source for one recorded frame. fraction in
// (0,1] truncates every stream proportionally — a sampled frame whose
// makespan extrapolates linearly, used to bound simulation cost.
func (g *Generator) Frame(fraction float64) (memsys.Source, error) {
	if !(fraction > 0) || fraction > 1 { // rejects NaN too
		return nil, fmt.Errorf("load: fraction %v outside (0,1]", fraction)
	}
	fs := &frameSource{capacity: g.capacity}
	// Stream ids number the generator's streams in construction order —
	// independent of the sampling fraction, so the same client keeps the
	// same identity (and the same partition, under a partitioning policy)
	// across sampled and full frames.
	id := 0
	for _, st := range g.stages {
		cs := cursorStage{}
		for _, s := range st.streams {
			sid := id
			id++
			if bytes := int64(float64(s.bytes) * fraction); bytes > 0 {
				cs.add(newCursor(s, sid, bytes, g.capacity))
			}
		}
		if len(cs.streams) > 0 {
			fs.stages = append(fs.stages, cs)
		}
	}
	if len(fs.stages) == 0 {
		// A fraction small enough to truncate every stream to zero bytes
		// would yield a zero-transaction, zero-duration run — downstream
		// ratios (bandwidth, power deltas) all divide by the makespan.
		return nil, fmt.Errorf("load: fraction %v truncates the whole frame to zero transactions", fraction)
	}
	return fs, nil
}

// cursor tracks one stream's emission progress.
type cursor struct {
	stream stream
	id     int   // stable client identity (construction order)
	tiles  int64 // transactions this frame, possibly truncated by sampling
	left   int64 // bytes not yet emitted
	addr   int64 // next address: (stream.base + bytes emitted) mod the capacity
	// acc is (rounds visited × tiles) mod the stage's maxTiles, the
	// remainder of the Bresenham pacing (see frameSource.Next).
	acc int64
}

// newCursor starts the stream at its base address; bytes > 0.
func newCursor(s stream, id int, bytes, capacity int64) cursor {
	return cursor{stream: s, id: id, tiles: (bytes + s.run - 1) / s.run, left: bytes, addr: s.base % capacity}
}

type cursorStage struct {
	streams  []cursor
	maxTiles int64
	round    int64
	idx      int
}

// add appends the cursor and widens the stage's round count to its tiles.
func (cs *cursorStage) add(c cursor) {
	cs.streams = append(cs.streams, c)
	if c.tiles > cs.maxTiles {
		cs.maxTiles = c.tiles
	}
}

// frameSource interleaves each stage's streams proportionally (Bresenham
// pacing): in every round, stream i emits when its cumulative share lags.
type frameSource struct {
	stages   []cursorStage
	si       int
	capacity int64
}

// Next implements memsys.Source.
//
// Stream i of a stage is due (round+1)·tiles_i/maxTiles tiles by the end
// of a round. Its accumulator carries that quotient's remainder: each
// round adds tiles_i, and a carry past maxTiles is one more tile due.
// tiles_i <= maxTiles, so a round carries at most once, and a stream that
// is due a tile always has one left (the quotient never exceeds tiles_i),
// so a carry is exactly an emission. Addresses advance and wrap the
// capacity by subtraction.
func (f *frameSource) Next() (memsys.Request, bool) {
	for f.si < len(f.stages) {
		st := &f.stages[f.si]
		for st.round < st.maxTiles {
			for st.idx < len(st.streams) {
				c := &st.streams[st.idx]
				st.idx++
				if c.acc += c.tiles; c.acc < st.maxTiles {
					continue
				}
				c.acc -= st.maxTiles
				n := c.stream.run
				if c.left < n {
					n = c.left
				}
				addr := c.addr
				c.left -= n
				c.addr += n
				for c.addr >= f.capacity {
					c.addr -= f.capacity
				}
				return memsys.Request{Write: c.stream.write, Addr: addr, Bytes: n, Stream: c.id}, true
			}
			st.idx = 0
			st.round++
		}
		f.si++
	}
	return memsys.Request{}, false
}

// StreamInfo describes one stream of a stage for analytic consumers.
type StreamInfo struct {
	Name  string
	Write bool
	Bytes int64 // payload this frame
	Run   int64 // master transaction size (spans all channels)
}

// StageInfo describes one state of the load state machine.
type StageInfo struct {
	Stage   usecase.StageID
	Streams []StreamInfo
}

// Stages returns the stage/stream decomposition the generator emits, for
// analytic models and reports.
func (g *Generator) Stages() []StageInfo {
	var out []StageInfo
	for _, st := range g.stages {
		info := StageInfo{Stage: st.id}
		for _, s := range st.streams {
			info.Streams = append(info.Streams, StreamInfo{
				Name: s.name, Write: s.write, Bytes: s.bytes, Run: s.run,
			})
		}
		out = append(out, info)
	}
	return out
}

// Channels returns the channel count the generator was built for.
func (g *Generator) Channels() int { return g.channels }

// StageFrame returns a transaction source for a single stage of one frame,
// sampled by fraction. Running the stages of StageCount() in order over one
// memory system reproduces Frame()'s traffic exactly, letting callers
// attribute time and energy per pipeline stage.
func (g *Generator) StageFrame(stage int, fraction float64) (memsys.Source, error) {
	if stage < 0 || stage >= len(g.stages) {
		return nil, fmt.Errorf("load: stage %d of %d", stage, len(g.stages))
	}
	if !(fraction > 0) || fraction > 1 { // rejects NaN too
		return nil, fmt.Errorf("load: fraction %v outside (0,1]", fraction)
	}
	fs := &frameSource{capacity: g.capacity}
	cs := cursorStage{}
	for _, s := range g.stages[stage].streams {
		if bytes := int64(float64(s.bytes) * fraction); bytes > 0 {
			cs.add(newCursor(s, 0, bytes, g.capacity))
		}
	}
	if len(cs.streams) > 0 {
		fs.stages = append(fs.stages, cs)
	}
	return fs, nil
}

// StageCount returns the number of traffic-bearing stages.
func (g *Generator) StageCount() int { return len(g.stages) }

// StageName returns the use-case name of the traffic-bearing stage index.
func (g *Generator) StageName(stage int) string {
	if stage < 0 || stage >= len(g.stages) {
		return fmt.Sprintf("stage(%d)", stage)
	}
	return g.stages[stage].id.String()
}
