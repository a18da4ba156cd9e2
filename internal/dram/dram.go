// Package dram models the paper's theoretical next-generation mobile DDR
// SDRAM device: a 512 Mb, four-bank, 32-bit-wide double-data-rate part whose
// interface clock spans the DDR2 range of 200-533 MHz.
//
// No 3D-integration-compatible standard memory existed when the paper was
// written, so the device is an estimate: analog timing parameters are taken
// from the contemporary Micron 512 Mb Mobile DDR SDRAM datasheet (200 MHz
// speed grade) and held constant in nanoseconds, parameters with a clear
// connection to the clock (CAS latency, burst timing) are extrapolated with
// frequency, and the core operating voltage is projected to 1.35 V. This
// package reproduces exactly that estimation recipe.
package dram

import (
	"fmt"

	"repro/internal/units"
)

// Geometry describes the physical organization of one bank cluster.
type Geometry struct {
	// Banks is the number of banks in the cluster.
	Banks int
	// Rows is the number of rows per bank.
	Rows int
	// Columns is the number of column words per row.
	Columns int
	// WordBits is the data-bus width in bits.
	WordBits int
	// BurstLength is the number of words transferred per access; the
	// minimum DRAM burst size of the paper is four.
	BurstLength int
}

// DefaultGeometry is the paper's bank cluster: 512 Mb, 4 banks, x32, BL4
// (8192 rows x 512 columns x 32 bits per bank).
func DefaultGeometry() Geometry {
	return Geometry{Banks: 4, Rows: 8192, Columns: 512, WordBits: 32, BurstLength: 4}
}

// CapacityBits returns the cluster capacity.
func (g Geometry) CapacityBits() units.Bits {
	return units.Bits(int64(g.Banks) * int64(g.Rows) * int64(g.Columns) * int64(g.WordBits))
}

// RowBytes returns the size of one row (the open-page unit).
func (g Geometry) RowBytes() int64 { return int64(g.Columns) * int64(g.WordBits) / 8 }

// BurstBytes returns the data moved by one burst access. With the default
// geometry this is 16 bytes, the paper's channel-interleaving granularity.
func (g Geometry) BurstBytes() int64 { return int64(g.BurstLength) * int64(g.WordBits) / 8 }

// BankBytes returns the capacity of one bank in bytes.
func (g Geometry) BankBytes() int64 { return int64(g.Rows) * g.RowBytes() }

// Bytes returns the cluster capacity in bytes.
func (g Geometry) Bytes() int64 { return int64(g.Banks) * g.BankBytes() }

// Validate checks the geometry for physical consistency.
func (g Geometry) Validate() error {
	switch {
	case g.Banks <= 0:
		return fmt.Errorf("dram: %d banks", g.Banks)
	case g.Rows <= 0:
		return fmt.Errorf("dram: %d rows", g.Rows)
	case g.Columns <= 0:
		return fmt.Errorf("dram: %d columns", g.Columns)
	case g.WordBits <= 0 || g.WordBits%8 != 0:
		return fmt.Errorf("dram: word width %d bits", g.WordBits)
	case g.BurstLength <= 0 || g.BurstLength%2 != 0:
		return fmt.Errorf("dram: burst length %d (DDR needs an even burst)", g.BurstLength)
	case g.Columns%g.BurstLength != 0:
		return fmt.Errorf("dram: %d columns not a multiple of burst %d", g.Columns, g.BurstLength)
	}
	// Power-of-two dimensions let address decoding use shifts and masks.
	for _, v := range []int{g.Banks, g.Rows, g.Columns, g.WordBits} {
		if v&(v-1) != 0 {
			return fmt.Errorf("dram: dimension %d is not a power of two", v)
		}
	}
	return nil
}

// Timing holds the analog timing parameters of the device. Durations are
// device properties independent of the interface clock; cycle-denominated
// parameters are already clock-relative.
type Timing struct {
	TRCD  units.Duration // ACT to RD/WR
	TRP   units.Duration // PRE to ACT
	TRAS  units.Duration // ACT to PRE, minimum
	TRC   units.Duration // ACT to ACT, same bank
	TWR   units.Duration // end of write data to PRE
	TRRD  units.Duration // ACT to ACT, different bank
	TRFC  units.Duration // refresh cycle time
	TREFI units.Duration // average periodic refresh interval
	TCAS  units.Duration // read command to data (analog part; becomes CL)
	TFAW  units.Duration // four-activate window (0 disables the check)
	TXSR  units.Duration // self-refresh exit to next command

	TWTRCycles int // end of write data to read command
	TRTPCycles int // read command to precharge
	TXPCycles  int // power-down exit to next command

	// MinFreq and MaxFreq bound the interface clock this timing set is
	// specified for (datasheets bind timing to a speed bin). Zero values
	// fall back to the paper device's DDR2 range (MinFrequency,
	// MaxFrequency), so the paper-era description is unchanged.
	MinFreq units.Frequency
	MaxFreq units.Frequency
}

// DefaultTiming returns the Micron 512 Mb Mobile DDR-derived parameters used
// by the paper's estimation (DESIGN.md section 5).
func DefaultTiming() Timing {
	return Timing{
		TRCD:       15 * units.Nanosecond,
		TRP:        15 * units.Nanosecond,
		TRAS:       40 * units.Nanosecond,
		TRC:        55 * units.Nanosecond,
		TWR:        15 * units.Nanosecond,
		TRRD:       10 * units.Nanosecond,
		TRFC:       72 * units.Nanosecond,
		TREFI:      units.Duration(7800) * units.Nanosecond,
		TCAS:       15 * units.Nanosecond,
		TFAW:       50 * units.Nanosecond,
		TXSR:       120 * units.Nanosecond,
		TWTRCycles: 2,
		TRTPCycles: 2,
		TXPCycles:  2,
	}
}

// Validate checks the timing set for consistency.
func (t Timing) Validate() error {
	type named struct {
		name string
		d    units.Duration
	}
	for _, p := range []named{
		{"tRCD", t.TRCD}, {"tRP", t.TRP}, {"tRAS", t.TRAS}, {"tRC", t.TRC},
		{"tWR", t.TWR}, {"tRRD", t.TRRD}, {"tRFC", t.TRFC}, {"tREFI", t.TREFI},
		{"tCAS", t.TCAS},
	} {
		if p.d <= 0 {
			return fmt.Errorf("dram: %s = %v must be positive", p.name, p.d)
		}
	}
	if t.TRAS+t.TRP > t.TRC {
		return fmt.Errorf("dram: tRAS+tRP (%v) exceeds tRC (%v)", t.TRAS+t.TRP, t.TRC)
	}
	if t.TWTRCycles < 0 || t.TRTPCycles < 0 || t.TXPCycles < 0 {
		return fmt.Errorf("dram: negative cycle parameter")
	}
	if t.TFAW < 0 {
		return fmt.Errorf("dram: negative tFAW %v", t.TFAW)
	}
	if t.TXSR < 0 {
		return fmt.Errorf("dram: negative tXSR %v", t.TXSR)
	}
	if t.TREFI <= t.TRFC {
		return fmt.Errorf("dram: tREFI (%v) must exceed tRFC (%v)", t.TREFI, t.TRFC)
	}
	if t.MinFreq < 0 || t.MaxFreq < 0 || t.MinFreq > t.MaxFreq {
		return fmt.Errorf("dram: clock range [%v, %v] is invalid", t.MinFreq, t.MaxFreq)
	}
	if (t.MinFreq == 0) != (t.MaxFreq == 0) {
		return fmt.Errorf("dram: clock range [%v, %v] must set both bounds or neither", t.MinFreq, t.MaxFreq)
	}
	return nil
}

// FreqRange returns the timing set's interface-clock bounds, substituting
// the paper device's DDR2 range when unset.
func (t Timing) FreqRange() (lo, hi units.Frequency) {
	if t.MinFreq == 0 && t.MaxFreq == 0 {
		return MinFrequency, MaxFrequency
	}
	return t.MinFreq, t.MaxFreq
}

// Clock-frequency limits of the evaluated device (DDR2 specification range,
// paper section III).
const (
	MinFrequency = 200 * units.MHz
	MaxFrequency = 533 * units.MHz
)

// EvaluatedFrequencies lists the interface clocks of the paper's Fig. 3.
var EvaluatedFrequencies = []units.Frequency{
	200 * units.MHz, 266 * units.MHz, 333 * units.MHz, 400 * units.MHz, 533 * units.MHz,
}

// Speed is the timing set resolved to whole cycles at one interface clock.
type Speed struct {
	Geometry Geometry
	Timing   Timing
	Freq     units.Frequency
	TCK      units.Duration

	// Resolved cycle counts.
	CL   int64 // read CAS latency
	CWL  int64 // write latency (CL-1, the DDR2 convention)
	RCD  int64
	RP   int64
	RAS  int64
	RC   int64
	WR   int64
	RRD  int64
	RFC  int64
	REFI int64
	WTR  int64
	RTP  int64
	XP   int64
	FAW  int64 // 0 when the four-activate window is disabled
	XSR  int64
	// BurstCycles is the data-bus occupancy of one burst: BL/2 for DDR.
	BurstCycles int64
}

// Resolve converts the device description to cycle-denominated timing at
// freq, applying the paper's extrapolation rules. It returns an error when
// the frequency lies outside the device's DDR2 range or the description is
// inconsistent.
func Resolve(g Geometry, t Timing, freq units.Frequency) (Speed, error) {
	if err := g.Validate(); err != nil {
		return Speed{}, err
	}
	if err := t.Validate(); err != nil {
		return Speed{}, err
	}
	if lo, hi := t.FreqRange(); freq < lo || freq > hi {
		return Speed{}, fmt.Errorf("dram: frequency %v outside device range [%v, %v]",
			freq, lo, hi)
	}
	s := Speed{
		Geometry:    g,
		Timing:      t,
		Freq:        freq,
		TCK:         freq.Period(),
		CL:          t.TCAS.Cycles(freq),
		RCD:         t.TRCD.Cycles(freq),
		RP:          t.TRP.Cycles(freq),
		RAS:         t.TRAS.Cycles(freq),
		RC:          t.TRC.Cycles(freq),
		WR:          t.TWR.Cycles(freq),
		RRD:         t.TRRD.Cycles(freq),
		RFC:         t.TRFC.Cycles(freq),
		REFI:        t.TREFI.Cycles(freq),
		WTR:         int64(t.TWTRCycles),
		RTP:         int64(t.TRTPCycles),
		XP:          int64(t.TXPCycles),
		FAW:         t.TFAW.Cycles(freq),
		XSR:         t.TXSR.Cycles(freq),
		BurstCycles: int64(g.BurstLength) / 2,
	}
	if s.CWL = s.CL - 1; s.CWL < 1 {
		s.CWL = 1
	}
	return s, nil
}

// PeakBandwidth returns the theoretical data rate of one channel: the bus
// transfers one word per clock edge.
func (s Speed) PeakBandwidth() units.Bandwidth {
	bytesPerCycle := float64(s.Geometry.WordBits) / 8 * 2 // DDR
	return units.Bandwidth(bytesPerCycle * float64(s.Freq))
}

// CycleDuration converts a cycle count at this speed to wall time.
func (s Speed) CycleDuration(cycles int64) units.Duration {
	return units.Duration(cycles) * s.TCK
}
