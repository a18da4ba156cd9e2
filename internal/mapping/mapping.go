// Package mapping implements the paper's address decoding: byte addresses
// are first interleaved over the memory channels at 16-byte granularity
// (Table II), and the per-channel local address is then multiplexed onto
// bank, row and column using either the Row-Bank-Column (RBC) or
// Bank-Row-Column (BRC) scheme evaluated in section IV.
package mapping

import (
	"fmt"
	"math/bits"

	"repro/internal/dram"
)

// ChannelInterleave distributes byte addresses over M channels in
// granularity-sized chunks: addresses [0,G) go to channel 0, [G,2G) to
// channel 1, ..., [MG, MG+G) back to channel 0 (paper Table II).
type ChannelInterleave struct {
	channels    int
	granularity int64
}

// NewChannelInterleave builds the interleave. The paper's granularity is 16
// bytes: minimum burst size four times the 4-byte word.
func NewChannelInterleave(channels int, granularity int64) (ChannelInterleave, error) {
	if channels <= 0 {
		return ChannelInterleave{}, fmt.Errorf("mapping: %d channels", channels)
	}
	if granularity <= 0 {
		return ChannelInterleave{}, fmt.Errorf("mapping: granularity %d", granularity)
	}
	return ChannelInterleave{channels: channels, granularity: granularity}, nil
}

// Channels returns the channel count M.
func (ci ChannelInterleave) Channels() int { return ci.channels }

// Granularity returns the interleaving chunk size in bytes.
func (ci ChannelInterleave) Granularity() int64 { return ci.granularity }

// Channel returns the channel serving the byte address.
func (ci ChannelInterleave) Channel(addr int64) int {
	return int((addr / ci.granularity) % int64(ci.channels))
}

// Local returns the channel-local byte address: the address with the
// interleaving bits removed, so each channel sees a dense address space.
func (ci ChannelInterleave) Local(addr int64) int64 {
	chunk := addr / ci.granularity
	return (chunk/int64(ci.channels))*ci.granularity + addr%ci.granularity
}

// Global is the inverse of (Channel, Local): it reconstructs the system
// byte address from a channel index and a channel-local address.
func (ci ChannelInterleave) Global(channel int, local int64) int64 {
	chunk := local / ci.granularity
	return (chunk*int64(ci.channels)+int64(channel))*ci.granularity + local%ci.granularity
}

// Multiplexing selects how a channel-local address is split into bank, row
// and column.
type Multiplexing int

const (
	// RBC (row-bank-column) keeps the bank bits between row and column:
	// a sequential stream walks all columns of a row, then the same row of
	// the next bank, exposing bank-level parallelism. The paper found RBC
	// "somewhat better" and uses it for all shown results.
	RBC Multiplexing = iota
	// BRC (bank-row-column) keeps the bank bits on top: a sequential
	// stream stays inside one bank and pays a full precharge-activate on
	// every row crossing.
	BRC
)

// String returns the paper's abbreviation for the multiplexing type.
func (m Multiplexing) String() string {
	switch m {
	case RBC:
		return "RBC"
	case BRC:
		return "BRC"
	default:
		return fmt.Sprintf("Multiplexing(%d)", int(m))
	}
}

// Location is a decoded DRAM coordinate within one channel.
type Location struct {
	Bank int
	Row  int
	// Column is the word-aligned column index of the first word of the
	// access's burst.
	Column int
}

// BankMapper decodes channel-local byte addresses to DRAM coordinates.
// Every geometry dimension is a power of two (dram.Geometry.Validate), so
// NewBankMapper reduces the decode to masks and shifts computed once.
type BankMapper struct {
	geom dram.Geometry
	mux  Multiplexing

	capMask   int64 // cluster bytes - 1
	colMask   int64 // row bytes - 1
	wordShift uint  // log2(word bytes)
	rowShift  uint  // log2(row bytes)
	// The row-address bits above rowShift split into a low field of
	// lowShift bits (bank for RBC, row for BRC) and the rest above it.
	lowMask  int64
	lowShift uint
}

// NewBankMapper builds a mapper for the geometry and multiplexing type.
func NewBankMapper(g dram.Geometry, mux Multiplexing) (BankMapper, error) {
	if err := g.Validate(); err != nil {
		return BankMapper{}, err
	}
	if mux != RBC && mux != BRC {
		return BankMapper{}, fmt.Errorf("mapping: unknown multiplexing %d", int(mux))
	}
	low := g.Banks
	if mux == BRC {
		low = g.Rows
	}
	return BankMapper{
		geom:      g,
		mux:       mux,
		capMask:   g.Bytes() - 1,
		colMask:   g.RowBytes() - 1,
		wordShift: log2(int64(g.WordBits) / 8),
		rowShift:  log2(g.RowBytes()),
		lowMask:   int64(low) - 1,
		lowShift:  log2(int64(low)),
	}, nil
}

// log2 returns the exponent of a power of two.
func log2(v int64) uint { return uint(bits.TrailingZeros64(uint64(v))) }

// Geometry returns the device geometry the mapper decodes for.
func (bm *BankMapper) Geometry() dram.Geometry { return bm.geom }

// Multiplexing returns the configured multiplexing type.
func (bm *BankMapper) Multiplexing() Multiplexing { return bm.mux }

// Decode splits a channel-local byte address into bank, row and column.
// Addresses wrap modulo the cluster capacity (the load model never exceeds
// it, but wrapping keeps the mapper total).
func (bm *BankMapper) Decode(local int64) Location {
	local &= bm.capMask
	col := int((local & bm.colMask) >> bm.wordShift)
	upper := local >> bm.rowShift
	lo, hi := int(upper&bm.lowMask), int(upper>>bm.lowShift)
	if bm.mux == RBC {
		return Location{Bank: lo, Row: hi, Column: col}
	}
	return Location{Bank: hi, Row: lo, Column: col}
}

// Encode is the inverse of Decode for word-aligned locations.
func (bm *BankMapper) Encode(loc Location) int64 {
	lo, hi := int64(loc.Bank), int64(loc.Row)
	if bm.mux == BRC {
		lo, hi = hi, lo
	}
	return (hi<<bm.lowShift+lo)<<bm.rowShift + int64(loc.Column)<<bm.wordShift
}

// AddressMap combines the two decoding steps: system byte address to
// (channel, bank, row, column).
type AddressMap struct {
	Interleave ChannelInterleave
	Banks      BankMapper
}

// NewAddressMap builds the paper's address map: 16-byte channel interleave
// over the given channel count, then bank multiplexing.
func NewAddressMap(channels int, g dram.Geometry, mux Multiplexing) (AddressMap, error) {
	ci, err := NewChannelInterleave(channels, g.BurstBytes())
	if err != nil {
		return AddressMap{}, err
	}
	bm, err := NewBankMapper(g, mux)
	if err != nil {
		return AddressMap{}, err
	}
	return AddressMap{Interleave: ci, Banks: bm}, nil
}

// Decode maps a system byte address to its channel and DRAM coordinate.
func (am AddressMap) Decode(addr int64) (channel int, loc Location) {
	channel = am.Interleave.Channel(addr)
	return channel, am.Banks.Decode(am.Interleave.Local(addr))
}

// CapacityBytes returns the total capacity of the mapped memory.
func (am AddressMap) CapacityBytes() int64 {
	return int64(am.Interleave.Channels()) * am.Banks.Geometry().Bytes()
}
