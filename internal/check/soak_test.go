// Randomized soaks: the invariant checker rides along on randomized
// configurations and workloads (including fault plans) and must stay
// silent, and the differential oracle proves the per-burst and coalesced
// dispatch paths emit identical command streams on randomized fault-free runs. Config
// counts scale with CHECK_SOAK_CONFIGS / CHECK_ORACLE_CONFIGS for the CI
// soak gate.
package check_test

import (
	"fmt"
	"math/rand"
	"os"
	"strconv"
	"testing"

	"repro/internal/check"
	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/fault"
	"repro/internal/memsys"
	"repro/internal/units"
)

func envInt(name string, def int) int {
	if s := os.Getenv(name); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// randomConfig draws one subsystem configuration across the simulator's
// feature matrix: every registered scheduling policy and datasheet, with
// the clock drawn from the chosen device's legal list.
func randomConfig(rng *rand.Rand) memsys.Config {
	devices := dram.Devices()
	dev := devices[rng.Intn(len(devices))]
	policies := controller.Policies()
	cfg := memsys.Config{
		Channels:  []int{1, 2, 4}[rng.Intn(3)],
		Freq:      dev.Frequencies[rng.Intn(len(dev.Frequencies))],
		Geometry:  dev.Geometry,
		Timing:    dev.Timing,
		Policy:    policies[rng.Intn(len(policies))],
		PowerDown: rng.Intn(4) != 0,
	}
	if rng.Intn(3) == 0 {
		cfg.WriteBufferDepth = 1 << rng.Intn(5)
	}
	if rng.Intn(3) == 0 {
		cfg.QueueDepth = 1 + rng.Intn(8)
	}
	if rng.Intn(2) == 0 {
		cfg.RefreshPostpone = rng.Intn(9)
	}
	if rng.Intn(3) == 0 {
		cfg.PrechargeOnIdle = true
	}
	if rng.Intn(3) == 0 {
		burst := int64(dev.Geometry.WordBits/8) * int64(dev.Geometry.BurstLength)
		cfg.InterleaveGranularity = burst << rng.Intn(4)
	}
	return cfg
}

// randomReqs draws a workload with saturated stretches, short stalls and
// long idle gaps (power-down, self-refresh, refresh catch-up).
func randomReqs(rng *rand.Rand, n int, refi int64) []memsys.Request {
	reqs := make([]memsys.Request, 0, n)
	var arrival int64
	for i := 0; i < n; i++ {
		switch rng.Intn(12) {
		case 0:
			arrival += refi * int64(1+rng.Intn(6)) // long idle
		case 1, 2:
			arrival += int64(rng.Intn(800)) // short gap
		}
		reqs = append(reqs, memsys.Request{
			Write:   rng.Intn(3) == 0,
			Addr:    int64(rng.Intn(1 << 22)),
			Bytes:   int64(1 + rng.Intn(4096)),
			Arrival: arrival,
			Stream:  rng.Intn(4),
		})
	}
	return reqs
}

// randomPlan draws a fault plan (possibly disabled) legal for the config.
func randomPlan(rng *rand.Rand, cfg memsys.Config, seed uint64) *fault.Plan {
	plan := &fault.Plan{Seed: seed}
	if cfg.Channels >= 2 && rng.Intn(3) == 0 {
		plan.DropChannel = rng.Intn(cfg.Channels)
		plan.DropAtCycle = int64(5000 + rng.Intn(100_000))
	}
	if rng.Intn(2) == 0 {
		plan.DerateAtCycle = int64(3000 + rng.Intn(50_000))
		plan.RefreshDivisor = 2
	}
	if rng.Intn(2) == 0 {
		plan.ReadErrorRate = 0.002
		plan.RetryLimit = 3
		plan.RetryBackoff = 16
	}
	if rng.Intn(2) == 0 {
		plan.StallRate = 0.002
		plan.StallMaxCycles = 40
	}
	if !plan.Enabled() {
		return nil
	}
	return plan
}

// TestCheckerSoak attaches the invariant checker to randomized runs —
// fault plans included — and requires a silent checker on every one.
func TestCheckerSoak(t *testing.T) {
	configs := envInt("CHECK_SOAK_CONFIGS", 30)
	if testing.Short() {
		configs = 8
	}
	for i := 0; i < configs; i++ {
		i := i
		t.Run(fmt.Sprintf("cfg%03d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xC0FFEE + i*7919)))
			cfg := randomConfig(rng)
			if rng.Intn(2) == 0 {
				cfg.Faults = randomPlan(rng, cfg, uint64(i+1))
			}
			speed, err := dram.Resolve(cfg.Geometry, cfg.Timing, cfg.Freq)
			if err != nil {
				t.Fatal(err)
			}
			set := check.New(check.Options{
				Speed:           speed,
				Policy:          cfg.Policy,
				RefreshPostpone: cfg.RefreshPostpone,
				MaxViolations:   8,
			})
			cfg.NewProbe = set.Channel
			sys, err := memsys.New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			reqs := randomReqs(rng, 250, speed.REFI)
			if _, err := sys.Run(memsys.NewSliceSource(reqs)); err != nil {
				t.Fatal(err)
			}
			if err := set.Err(); err != nil {
				for _, v := range set.Violations() {
					t.Logf("%s", v)
				}
				t.Fatalf("config %+v: %v", cfg, err)
			}
		})
	}
}

// TestDifferentialOracle replays randomized fault-free runs through both
// dispatch strategies and requires bit-identical command streams and
// results (see Differential).
func TestDifferentialOracle(t *testing.T) {
	configs := envInt("CHECK_ORACLE_CONFIGS", 100)
	if testing.Short() {
		configs = 15
	}
	for i := 0; i < configs; i++ {
		i := i
		t.Run(fmt.Sprintf("cfg%03d", i), func(t *testing.T) {
			rng := rand.New(rand.NewSource(int64(0xD1FF + i*104_729)))
			cfg := randomConfig(rng)
			speed, err := dram.Resolve(cfg.Geometry, cfg.Timing, cfg.Freq)
			if err != nil {
				t.Fatal(err)
			}
			reqs := randomReqs(rng, 60+rng.Intn(180), speed.REFI)
			if err := check.Differential(cfg, reqs); err != nil {
				t.Fatalf("config %+v: %v", cfg, err)
			}
		})
	}
}

// TestPolicyDeviceMatrix is the exhaustive policy-safety gate: every
// registered scheduling policy on every registered datasheet runs a mixed
// workload (multi-client streams included) with the invariant checker
// attached, then replays the same workload through the differential oracle.
// A policy is only admissible if its command stream satisfies the device's
// timing constraints AND the per-burst and coalesced dispatch paths
// reproduce it bit-identically — which is exactly the coalesce-safety contract the
// fast-path guard enforces. CHECK_MATRIX_REQS scales the workload for the
// CI gate.
func TestPolicyDeviceMatrix(t *testing.T) {
	n := envInt("CHECK_MATRIX_REQS", 200)
	if testing.Short() {
		n = 60
	}
	for _, policy := range controller.Policies() {
		for _, dev := range dram.Devices() {
			policy, dev := policy, dev
			t.Run(fmt.Sprintf("%s/%s", policy, dev.Name), func(t *testing.T) {
				rng := rand.New(rand.NewSource(int64(policy)<<8 ^ int64(len(dev.Name))))
				cfg := memsys.Config{
					Channels: 4,
					Freq:     dev.Frequencies[len(dev.Frequencies)-1],
					Geometry: dev.Geometry,
					Timing:   dev.Timing,
					Policy:   policy,
					// A reorder window so FR-FCFS actually reorders even
					// beyond its own default, and enough clients that the
					// partition table fills every group.
					QueueDepth: 8,
					PowerDown:  true,
				}
				speed, err := dram.Resolve(cfg.Geometry, cfg.Timing, cfg.Freq)
				if err != nil {
					t.Fatal(err)
				}
				reqs := randomReqs(rng, n, speed.REFI)

				// Arm 1: the invariant checker must stay silent.
				checked := cfg
				set := check.New(check.Options{
					Speed:         speed,
					Policy:        cfg.Policy,
					MaxViolations: 8,
				})
				checked.NewProbe = set.Channel
				sys, err := memsys.New(checked)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := sys.Run(memsys.NewSliceSource(reqs)); err != nil {
					t.Fatal(err)
				}
				if err := set.Err(); err != nil {
					for _, v := range set.Violations() {
						t.Logf("%s", v)
					}
					t.Fatalf("%s on %s: %v", policy, dev.Name, err)
				}

				// Arm 2: both dispatch strategies must agree.
				if err := check.Differential(cfg, reqs); err != nil {
					t.Fatalf("%s on %s: %v", policy, dev.Name, err)
				}
			})
		}
	}
}

// TestDifferentialRejectsFaultPlans pins the oracle's fault-plan guard: a
// dropout's dispatch-clock trigger is only burst-exact within one strategy,
// so faulted runs must be refused rather than mis-compared.
func TestDifferentialRejectsFaultPlans(t *testing.T) {
	cfg := memsys.PaperConfig(2, 400*units.MHz)
	cfg.Faults = &fault.Plan{Seed: 1, StallRate: 0.1, StallMaxCycles: 10}
	if err := check.Differential(cfg, []memsys.Request{{Bytes: 64}}); err == nil {
		t.Fatal("expected the fault-plan rejection")
	}
}
