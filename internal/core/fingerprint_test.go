package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"testing"

	"repro/internal/controller"
	"repro/internal/dram"
	"repro/internal/units"
)

// TestAnswerFingerprint ties the result cache to the simulator's answers.
// It simulates a small fixed point set — every scheduling policy on every
// registered device (1080p30, 4 channels, the device's middle listed
// clock), plus the corners of the 120-point paper grid (720p30 and
// 2160p60 × 1 and 8 channels × 200 and 533 MHz, open page) — at fraction
// 0.002 and
// hashes the Results. A mismatch means Simulate now answers differently
// for an unchanged configuration; re-recording the constant moves every
// cache key, since the cache version folds it in.
func TestAnswerFingerprint(t *testing.T) {
	const fraction = 0.002
	type point struct {
		format string
		mc     MemoryConfig
	}
	var pts []point
	for _, d := range dram.Devices() {
		for _, pol := range controller.Policies() {
			pts = append(pts, point{"1080p30", MemoryConfig{Channels: 4, Device: d.Name, Policy: pol,
				Freq: d.Frequencies[len(d.Frequencies)/2]}})
		}
	}
	for _, format := range []string{FormatNames[0], FormatNames[len(FormatNames)-1]} {
		for _, channels := range []int{1, 8} {
			for _, mhz := range []int{200, 533} {
				pts = append(pts, point{format, MemoryConfig{Channels: channels, Freq: units.Frequency(mhz) * units.MHz}})
			}
		}
	}
	h := sha256.New()
	for _, p := range pts {
		w, err := WorkloadFor(p.format)
		if err != nil {
			t.Fatal(err)
		}
		w.SampleFraction = fraction
		res, err := Simulate(w, p.mc)
		if err != nil {
			t.Fatalf("%s %+v: %v", p.format, p.mc, err)
		}
		fmt.Fprintf(h, "%s %s %d %v %d|", p.format, p.mc.Device, p.mc.Channels, p.mc.Policy, int64(p.mc.Freq))
		if err := writeCanonical(h, res); err != nil {
			t.Fatal(err)
		}
		h.Write([]byte{'\n'})
	}
	if got := hex.EncodeToString(h.Sum(nil))[:16]; got != AnswerFingerprint {
		t.Fatalf("answers changed: re-record AnswerFingerprint = %q (was %q) in cache.go (cache keys move with it)",
			got, AnswerFingerprint)
	}
}

// writeCanonical writes v's JSON form with every non-integer number
// rounded to 12 significant digits, so the fingerprint follows the answers
// and not the last bits a platform's floating-point contraction may move.
func writeCanonical(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.UseNumber()
	var tree any
	if err := dec.Decode(&tree); err != nil {
		return err
	}
	writeTree(w, tree)
	return nil
}

func writeTree(w io.Writer, v any) {
	switch v := v.(type) {
	case map[string]any:
		keys := make([]string, 0, len(v))
		for k := range v {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		io.WriteString(w, "{")
		for _, k := range keys {
			io.WriteString(w, strconv.Quote(k)+":")
			writeTree(w, v[k])
			io.WriteString(w, ",")
		}
		io.WriteString(w, "}")
	case []any:
		io.WriteString(w, "[")
		for _, e := range v {
			writeTree(w, e)
			io.WriteString(w, ",")
		}
		io.WriteString(w, "]")
	case json.Number:
		if _, err := v.Int64(); err == nil {
			io.WriteString(w, v.String())
		} else if f, err := v.Float64(); err == nil {
			io.WriteString(w, strconv.FormatFloat(f, 'g', 12, 64))
		} else {
			io.WriteString(w, v.String())
		}
	case string:
		io.WriteString(w, strconv.Quote(v))
	default: // bool or nil
		fmt.Fprint(w, v)
	}
}
