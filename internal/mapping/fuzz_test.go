package mapping

import (
	"testing"

	"repro/internal/dram"
)

// FuzzDecode exercises the full address map with arbitrary addresses and
// interleave shapes. Invariants, on every simulated geometry under RBC and
// BRC: decoding is total (no panics, any int64), decoded coordinates stay
// inside the geometry and equal the division-based reference decode, and
// word-aligned in-capacity addresses round-trip through Encode. The
// channel interleave's Global(Channel, Local) is the identity.
func FuzzDecode(f *testing.F) {
	f.Add(int64(0), 1, int64(16))
	f.Add(int64(12345678), 4, int64(16))
	f.Add(int64(-1), 2, int64(64))
	f.Add(int64(1)<<62, 8, int64(4096))
	f.Add(int64(16), 3, int64(16))
	f.Fuzz(func(t *testing.T, addr int64, channels int, granularity int64) {
		g := dram.DefaultGeometry()
		if granularity <= 0 || granularity > 1<<20 || granularity%g.BurstBytes() != 0 {
			granularity = g.BurstBytes()
		}
		if channels <= 0 || channels > 64 {
			channels = 4
		}
		ci, err := NewChannelInterleave(channels, granularity)
		if err != nil {
			t.Fatalf("valid interleave rejected: %v", err)
		}
		for _, geom := range decodeGeometries() {
			for _, mux := range []Multiplexing{RBC, BRC} {
				bm, err := NewBankMapper(geom, mux)
				if err != nil {
					t.Fatal(err)
				}
				loc := bm.Decode(addr) // must not panic for any input
				if loc.Bank < 0 || loc.Bank >= geom.Banks {
					t.Fatalf("%v: bank %d outside [0,%d)", mux, loc.Bank, geom.Banks)
				}
				if loc.Row < 0 || loc.Row >= geom.Rows {
					t.Fatalf("%v: row %d outside [0,%d)", mux, loc.Row, geom.Rows)
				}
				if loc.Column < 0 || loc.Column >= geom.Columns {
					t.Fatalf("%v: column %d outside [0,%d)", mux, loc.Column, geom.Columns)
				}
				checkAgainstReference(t, &bm, addr)
				// Word-aligned addresses inside the cluster round-trip exactly.
				wordBytes := int64(geom.WordBits) / 8
				if addr >= 0 && addr < geom.Bytes() && addr%wordBytes == 0 {
					if back := bm.Encode(loc); back != addr {
						t.Fatalf("%v: Encode(Decode(%d)) = %d", mux, addr, back)
					}
				}
			}
		}
		if addr >= 0 {
			ch := ci.Channel(addr)
			if ch < 0 || ch >= channels {
				t.Fatalf("channel %d outside [0,%d)", ch, channels)
			}
			local := ci.Local(addr)
			if local < 0 {
				t.Fatalf("negative local address %d for %d", local, addr)
			}
			if back := ci.Global(ch, local); back != addr {
				t.Fatalf("Global(Channel(%d), Local(%d)) = %d", addr, addr, back)
			}
		}
	})
}
