package main

import (
	"context"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"repro/internal/controller"
	"repro/internal/core"
)

// The per-layer numbers describe core.Simulate only if answering a point
// layer by layer reproduces core.Simulate exactly, under every policy.
func TestReplayReproducesSimulate(t *testing.T) {
	core.DisableCache()
	var policies []string
	for _, p := range controller.Policies() {
		policies = append(policies, p.String())
	}
	if len(policies) != 4 {
		t.Fatalf("want the four registered policies, got %v", policies)
	}
	pts := gridPoints([]string{"720p30", "2160p30"}, []int{1, 2, 8}, []int{200, 533}, policies, 0.01)
	for _, p := range pts {
		rp, err := replay(nil, 0, p)
		if err != nil {
			t.Fatalf("replay %s: %v", pointKey(p), err)
		}
		w, mc, err := p.Point()
		if err != nil {
			t.Fatal(err)
		}
		want, err := core.Simulate(w, mc)
		if err != nil {
			t.Fatal(err)
		}
		if err := sameAnswer(rp.res, want); err != nil {
			t.Errorf("%s: %v", pointKey(p), err)
		}
		if !reflect.DeepEqual(rp.res.PerChannel, want.PerChannel) || rp.res.InterfacePower != want.InterfacePower {
			t.Errorf("%s: per-channel energy differs from core", pointKey(p))
		}
		if rp.run.Bursts == 0 || int64(rp.decodes) < rp.run.Bursts {
			t.Errorf("%s: decoded %d bursts of %d", pointKey(p), rp.decodes, rp.run.Bursts)
		}
	}
}

func TestSeededInputs(t *testing.T) {
	draw := func(seed int64) []string {
		s := &service{rng: rand.New(rand.NewSource(seed)), used: map[string]bool{}}
		var out []string
		for _, r := range s.draw(200) {
			out = append(out, r.kind+" "+string(r.body))
		}
		return out
	}
	if !slices.Equal(draw(1), draw(1)) {
		t.Error("the same seed drew different service requests")
	}
	if slices.Equal(draw(1), draw(2)) {
		t.Error("different seeds drew the same service requests")
	}
	order := func(seed int64) []int {
		q := newPassQueue(50, rand.New(rand.NewSource(seed)), 0)
		var out []int
		for _, idx, ok := q.next(); ok; _, idx, ok = q.next() {
			out = append(out, idx)
		}
		return out
	}
	if len(order(1)) != 50 || !slices.Equal(order(1), order(1)) {
		t.Error("the same seed gave a different pass order")
	}
	if slices.Equal(order(1), order(2)) {
		t.Error("different seeds gave the same pass order")
	}
	// Another order, the same answers: warmUp fails unless the answers
	// hash to the recorded digest.
	for _, seed := range []int64{1, 2} {
		e, err := setupGridOpen(context.Background(), runConfig{Workload: "grid-open", Seed: seed, Tiny: true})
		if err != nil {
			t.Fatal(err)
		}
		if err := e.warmUp(context.Background()); err != nil {
			t.Errorf("seed %d: %v", seed, err)
		}
	}
}
