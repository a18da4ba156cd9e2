package server

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/core"
)

// FuzzDecodeSimulateRequest hardens the /v1/simulate request decoder:
// arbitrary bytes must never panic, anything the strict decoder accepts
// must lower to core types without panicking, and a point that survives
// validation must round-trip through responseFor. The decoder is the
// daemon's untrusted-input surface, so this is where native fuzzing
// earns its keep.
func FuzzDecodeSimulateRequest(f *testing.F) {
	for _, seed := range []string{
		`{"format":"720p30","channels":1,"freq_mhz":200}`,
		`{"format":"1080p60","channels":8,"freq_mhz":400,"fraction":0.05}`,
		`{"format":"2160p60","channels":4,"freq_mhz":333,"mux":"brc","policy":"closed"}`,
		`{"format":"720p30","channels":1,"freq_mhz":200,"disable_power_down":true,"write_buffer_depth":4,"queue_depth":8,"refresh_postpone":8,"precharge_on_idle":true,"interleave_granularity":4096}`,
		`{"format":"720p30","channels":-1,"freq_mhz":-200,"fraction":2}`,
		`{"format":"","channels":0,"freq_mhz":0}`,
		`{"format":"720p30","chanels":1}`,
		`{"format":"720p30","channels":1,"freq_mhz":200}{"trailing":true}`,
		`{"format":"720p30","channels":1e9,"freq_mhz":1e9}`,
		`null`,
		`[]`,
		`"720p30"`,
		``,
		`{`,
		strings.Repeat(`{"format":`, 100),
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SimulateRequest
		if err := DecodeJSON(bytes.NewReader(data), &req); err != nil {
			return // rejected inputs just need to not panic
		}
		w, mc, err := req.Point()
		if err != nil {
			return // decoded but invalid: also fine, also must not panic
		}
		if err := w.Validate(); err != nil {
			t.Errorf("Point returned workload failing its own validation: %v", err)
		}
		if err := mc.Validate(); err != nil {
			t.Errorf("Point returned config failing its own validation: %v", err)
		}
		resp := responseFor(req, core.Result{}, false)
		if resp.Channels != req.Channels || resp.FreqMHz != req.FreqMHz {
			t.Errorf("responseFor dropped request coordinates: %+v vs %+v", resp, req)
		}
	})
}
