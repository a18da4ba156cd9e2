package mapping

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/dram"
)

// referenceDecode is the division-based decode the shift/mask BankMapper
// replaced, kept as the oracle it must reproduce exactly.
func referenceDecode(g dram.Geometry, mux Multiplexing, local int64) Location {
	rowBytes := g.RowBytes()
	wordBytes := int64(g.WordBits) / 8

	local %= g.Bytes()
	if local < 0 {
		local += g.Bytes()
	}
	col := int((local % rowBytes) / wordBytes)
	upper := local / rowBytes
	if mux == RBC {
		return Location{Bank: int(upper % int64(g.Banks)), Row: int(upper / int64(g.Banks)), Column: col}
	}
	return Location{Bank: int(upper / int64(g.Rows)), Row: int(upper % int64(g.Rows)), Column: col}
}

// decodeGeometries lists every geometry the simulator decodes for: the
// dram library's datasheets and the shapes of core.RunGeometrySweep (2, 4
// and 8 banks x 256, 512 and 1024 columns at the paper's 512 Mb).
func decodeGeometries() []dram.Geometry {
	var gs []dram.Geometry
	for _, d := range dram.Devices() {
		gs = append(gs, d.Geometry)
	}
	def := dram.DefaultGeometry()
	capacityBits := int64(def.CapacityBits())
	for _, banks := range []int{2, 4, 8} {
		for _, columns := range []int{256, 512, 1024} {
			g := def
			g.Banks, g.Columns = banks, columns
			g.Rows = int(capacityBits / (int64(banks) * int64(columns) * int64(g.WordBits)))
			gs = append(gs, g)
		}
	}
	return gs
}

// checkAgainstReference fails t when the mapper's decode of addr differs
// from the reference decode.
func checkAgainstReference(t *testing.T, bm *BankMapper, addr int64) {
	t.Helper()
	g := bm.Geometry()
	if got, want := bm.Decode(addr), referenceDecode(g, bm.Multiplexing(), addr); got != want {
		t.Fatalf("%+v %v: Decode(%d) = %+v, reference %+v", g, bm.Multiplexing(), addr, got, want)
	}
}

// TestDecodeMatchesReference compares the shift/mask decode with the
// division-based reference on every simulated geometry under RBC and BRC,
// over boundary addresses (negative, past capacity, the int64 extremes)
// and random ones, and keeps the Encode(Decode) round trip on the
// word-aligned in-capacity addresses.
func TestDecodeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(0x5eed))
	for _, g := range decodeGeometries() {
		for _, mux := range []Multiplexing{RBC, BRC} {
			bm, err := NewBankMapper(g, mux)
			if err != nil {
				t.Fatalf("%+v: %v", g, err)
			}
			c, row := g.Bytes(), g.RowBytes()
			addrs := []int64{0, 1, 4, row - 1, row, row + 4, g.BankBytes(), c - 1, c, c + row + 4,
				-1, -4, -row, -c, -c - 1, 3*c + 17, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}
			for i := 0; i < 2000; i++ {
				addrs = append(addrs, rng.Int63n(c), rng.Int63()-rng.Int63())
			}
			wordBytes := int64(g.WordBits) / 8
			for _, a := range addrs {
				checkAgainstReference(t, &bm, a)
				if a >= 0 && a < c && a%wordBytes == 0 {
					if back := bm.Encode(bm.Decode(a)); back != a {
						t.Fatalf("%+v %v: Encode(Decode(%d)) = %d", g, mux, a, back)
					}
				}
			}
		}
	}
}
