package controller

import (
	"math/rand"
	"testing"

	"repro/internal/mapping"
)

// TestPickContract pins the Policy.Pick contract the reorder window's run
// continuation relies on: every built-in returns the first row hit, else
// (FR-FCFS) the first request whose bank is closed, else -1; and once the
// pick issues, no request ahead of it has become a row hit and the pick's
// run is picked again.
func TestPickContract(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, pol := range Policies() {
		cfg := defaultCfg(t)
		cfg.Policy = pol
		cfg.RefreshDisabled = true
		for trial := 0; trial < 500; trial++ {
			c := newCtl(t, cfg)
			for i := rng.Intn(6); i > 0; i-- {
				c.Access(rng.Intn(3) == 0, mapping.Location{Bank: rng.Intn(4), Row: rng.Intn(3)}, 0)
			}
			pending := make([]queuedRequest, 1+rng.Intn(8))
			for i := range pending {
				pending[i] = queuedRequest{write: rng.Intn(3) == 0, seq: int64(i), n: 2,
					loc: mapping.Location{Bank: rng.Intn(4), Row: rng.Intn(3)}}
			}
			want := -1
			for i, r := range pending {
				if c.rowOpen(r.loc) {
					want = i
					break
				}
			}
			if want < 0 && pol == FRFCFS {
				for i, r := range pending {
					if !c.banks[r.loc.Bank].open {
						want = i
						break
					}
				}
			}
			p := c.pol.Pick(c, pending)
			if p != want {
				t.Fatalf("%v trial %d: Pick = %d, contract says %d", pol, trial, p, want)
			}
			if p < 0 {
				p = 0
			}
			r := pending[p]
			c.Access(r.write, r.loc, 0)
			for i := 0; i < p; i++ {
				if c.rowOpen(pending[i].loc) {
					t.Fatalf("%v trial %d: request %d ahead of pick %d became a row hit", pol, trial, i, p)
				}
			}
			if next := c.pol.Pick(c, pending); next != p && !(next < 0 && p == 0) {
				t.Fatalf("%v trial %d: after issuing pick %d the next pick is %d", pol, trial, p, next)
			}
		}
	}
}

// TestOnlyBankPartitionRemaps pins what New resolves about the stream
// remap: bank partitioning is the one policy that maps banks, so every
// other policy's MapStream is the identity without a Policy call.
func TestOnlyBankPartitionRemaps(t *testing.T) {
	for _, pol := range Policies() {
		cfg := defaultCfg(t)
		cfg.Policy = pol
		c := newCtl(t, cfg)
		if got, want := c.remap != nil, pol == BankPartition; got != want {
			t.Errorf("%v: remaps %v, want %v", pol, got, want)
		}
		moved := false
		for stream := 0; stream < 4; stream++ {
			loc := mapping.Location{Bank: stream % 4, Row: 7, Column: 12}
			moved = moved || c.MapStream(stream, loc) != loc
		}
		if moved != (pol == BankPartition) {
			t.Errorf("%v: MapStream moved a location %v, want %v", pol, moved, pol == BankPartition)
		}
	}
}
