package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"slices"
)

// bound is one end-to-end metric's regression bound from BENCHMARK.json.
type bound struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readBounds(path string) ([]bound, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spec struct {
		EndToEnd []bound `json:"end_to_end"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return spec.EndToEnd, nil
}

// spreadRow is one workload's metric across the sets.
type spreadRow struct {
	Workload string      `json:"workload"`
	Metric   string      `json:"metric"`
	Unit     string      `json:"unit"`
	Bound    float64     `json:"bound"`
	Sets     []setValues `json:"sets"`
	// Drift is how much worse the last set's median is than the first's,
	// as a share of the first (negative when it is better).
	Drift float64 `json:"drift"`
	OK    bool    `json:"ok"`
}

type setValues struct {
	Values []float64 `json:"values"`
	Q1     float64   `json:"q1"`
	Median float64   `json:"median"`
	Q3     float64   `json:"q3"`
	// Spread is the interquartile distance as a share of the median.
	Spread float64 `json:"spread"`
}

// repeatability runs sets full sets, alternating the workload order, each
// running every workload with seeds seed .. seed+runsPerSet-1. A metric
// passes when each set's quartile spread stays within its bound and the
// last set's median is not worse than the first's by more than the bound.
func repeatability(cfg runConfig, names []string, sets int, stdout, stderr io.Writer) int {
	bounds, err := readBounds("BENCHMARK.json")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	vals := map[string]map[string][][]float64{} // workload -> metric -> set -> values
	for _, n := range names {
		vals[n] = map[string][][]float64{}
	}
	order := slices.Clone(names)
	for s := 0; s < sets; s++ {
		for _, n := range order {
			for r := 0; r < runsPerSet; r++ {
				c := cfg
				c.Workload, c.Seed = n, cfg.Seed+int64(r)
				rep, err := runWorkload(c, stderr)
				if err != nil {
					fmt.Fprintf(stderr, "bench: set %d %s seed %d: %v\n", s+1, n, c.Seed, err)
					return 1
				}
				if !rep.Correct {
					fmt.Fprintf(stderr, "bench: set %d %s seed %d: incorrect: %v\n", s+1, n, c.Seed, rep.Problems)
					return 1
				}
				for k, v := range rep.Metrics {
					m := vals[n][k]
					for len(m) <= s {
						m = append(m, nil)
					}
					m[s] = append(m[s], v.Value)
					vals[n][k] = m
				}
				fmt.Fprintf(stderr, "bench: set %d %s seed %d done\n", s+1, n, c.Seed)
			}
		}
		slices.Reverse(order)
	}
	var rows []spreadRow
	ok := true
	for _, n := range names {
		for _, b := range bounds {
			row := spreadRow{Workload: n, Metric: b.Name, Unit: b.Unit, Bound: b.Bound, OK: true}
			for _, v := range vals[n][b.Name] {
				q1, q2, q3 := quartiles(v)
				sv := setValues{Values: v, Q1: q1, Median: q2, Q3: q3, Spread: (q3 - q1) / q2}
				row.Sets = append(row.Sets, sv)
				if sv.Spread > b.Bound {
					row.OK = false
				}
			}
			if len(row.Sets) == 0 {
				row.OK = false
			} else {
				first, last := row.Sets[0].Median, row.Sets[len(row.Sets)-1].Median
				row.Drift = (last - first) / first
				if b.Better == "higher" {
					row.Drift = -row.Drift
				}
				if row.Drift > b.Bound {
					row.OK = false
				}
			}
			ok = ok && row.OK
			rows = append(rows, row)
		}
	}
	for _, r := range rows {
		verdict := "ok"
		if !r.OK {
			verdict = "OUTSIDE BOUND"
		}
		fmt.Fprintf(stdout, "%-16s %-12s bound %4.0f%%", r.Workload, r.Metric, r.Bound*100)
		for i, s := range r.Sets {
			fmt.Fprintf(stdout, "  set%d median %.5g %s [%.5g, %.5g] spread %5.1f%%", i+1, s.Median, r.Unit, s.Q1, s.Q3, s.Spread*100)
		}
		fmt.Fprintf(stdout, "  drift %+5.1f%%  %s\n", r.Drift*100, verdict)
	}
	summary := struct {
		NumCPU    int         `json:"nproc"`
		GoVersion string      `json:"go_version"`
		Seconds   float64     `json:"seconds"`
		Sets      int         `json:"sets"`
		Runs      int         `json:"runs_per_set"`
		FirstSeed int64       `json:"first_seed"`
		Rows      []spreadRow `json:"metrics"`
	}{runtime.NumCPU(), runtime.Version(), cfg.Seconds, sets, runsPerSet, cfg.Seed, rows}
	path := filepath.Join(cfg.Out, fmt.Sprintf("sets-seed%d.json", cfg.Seed))
	if err := writeJSON(path, summary); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, "bench: wrote", path)
	if !ok {
		return 1
	}
	return 0
}
