package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"repro/internal/server"
)

// digests.json records, per workload and frame fraction, the SHA-256 of the
// workload's answers. A run whose answers hash differently has changed what
// the simulator computes.
//
//go:embed digests.json
var digestsJSON []byte

func recordedDigest(workload string, fraction float64) (string, bool) {
	var m map[string]string
	if err := json.Unmarshal(digestsJSON, &m); err != nil {
		return "", false
	}
	d, ok := m[digestKey(workload, fraction)]
	return d, ok
}

func digestKey(workload string, fraction float64) string {
	return fmt.Sprintf("%s@%g", workload, fraction)
}

// checkDigest compares a computed digest with the recorded one.
func checkDigest(workload string, fraction float64, got string) error {
	want, ok := recordedDigest(workload, fraction)
	switch {
	case !ok:
		return fmt.Errorf("%s: no digest recorded for fraction %g (computed %s)", workload, fraction, got)
	case got != want:
		return fmt.Errorf("%s: answers digest %s, recorded %s", workload, got, want)
	}
	return nil
}

// digestRows hashes rows sorted by key, one "key<TAB>value" line each, so
// the digest does not depend on the order the rows were computed in.
func digestRows(rows map[string][]byte) string {
	keys := make([]string, 0, len(rows))
	for k := range rows {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	h := sha256.New()
	for _, k := range keys {
		h.Write([]byte(k))
		h.Write([]byte{'\t'})
		h.Write(rows[k])
		h.Write([]byte{'\n'})
	}
	return hex.EncodeToString(h.Sum(nil))
}

// pointKey names a point uniquely within a workload.
func pointKey(p server.SimulateRequest) string {
	pol := p.Policy
	if pol == "" {
		pol = "open-page"
	}
	return strings.Join([]string{p.Format, fmt.Sprint(p.Channels, "ch"), fmt.Sprint(p.FreqMHz, "MHz"), pol,
		fmt.Sprint(p.Fraction)}, "/")
}
