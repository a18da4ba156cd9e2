package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/controller"
	"repro/internal/core"
	"repro/internal/mapping"
	"repro/internal/units"
)

// MaxRequestBytes bounds the decoded request body. The largest legitimate
// request — a batch of every format crossed with every channel count and
// a long frequency list — is well under the limit, so a megabyte keeps
// the decoder safe from memory-amplification without ever rejecting a
// real client. A body over the limit is answered 413 with MaxBytes set in
// the error payload, so a client can tell the size ceiling apart from a
// malformed document (400).
const MaxRequestBytes = 1 << 20

// ErrRequestTooLarge marks a request body over MaxRequestBytes. Handlers
// map it to 413 Payload Too Large with the documented max-size payload.
var ErrRequestTooLarge = errors.New("request body exceeds the size limit")

// SimulateRequest is the POST /v1/simulate body: one (Workload,
// MemoryConfig) point. Field names mirror the sweep CSV columns and the
// MemoryConfig knobs; zero values mean the paper defaults, exactly as
// they do in core.
type SimulateRequest struct {
	// Format names the frame format ("1080p30", "2160p60", ...).
	Format string `json:"format"`
	// Channels is the channel count M; FreqMHz the interface clock.
	Channels int `json:"channels"`
	FreqMHz  int `json:"freq_mhz"`
	// Fraction in (0,1] simulates that fraction of the frame and
	// extrapolates; 0 means the full frame.
	Fraction float64 `json:"fraction,omitempty"`
	// Fidelity selects the tier: "exact", "fast" or "auto". Empty uses
	// the server's -fidelity default. Estimated answers carry
	// "estimated":true, the same way saturation fallbacks carry
	// "degraded":true.
	Fidelity string `json:"fidelity,omitempty"`

	// Optional MemoryConfig extensions (zero = paper baseline).
	Mux                   string `json:"mux,omitempty"`    // "rbc" (default) or "brc"
	Policy                string `json:"policy,omitempty"` // controller.ParsePolicy spellings
	Device                string `json:"device,omitempty"` // dram.Device registry name
	DisablePowerDown      bool   `json:"disable_power_down,omitempty"`
	WriteBufferDepth      int    `json:"write_buffer_depth,omitempty"`
	QueueDepth            int    `json:"queue_depth,omitempty"`
	RefreshPostpone       int    `json:"refresh_postpone,omitempty"`
	PrechargeOnIdle       bool   `json:"precharge_on_idle,omitempty"`
	InterleaveGranularity int64  `json:"interleave_granularity,omitempty"`
}

// SweepRequest is the POST /v1/sweep body: the cross product of formats,
// channel counts and frequencies, sharing the optional point knobs.
type SweepRequest struct {
	Formats  []string `json:"formats"`
	Channels []int    `json:"channels"`
	FreqsMHz []int    `json:"freqs_mhz"`
	Fraction float64  `json:"fraction,omitempty"`
	Fidelity string   `json:"fidelity,omitempty"`

	Mux                   string `json:"mux,omitempty"`
	Policy                string `json:"policy,omitempty"`
	Device                string `json:"device,omitempty"`
	DisablePowerDown      bool   `json:"disable_power_down,omitempty"`
	WriteBufferDepth      int    `json:"write_buffer_depth,omitempty"`
	QueueDepth            int    `json:"queue_depth,omitempty"`
	RefreshPostpone       int    `json:"refresh_postpone,omitempty"`
	PrechargeOnIdle       bool   `json:"precharge_on_idle,omitempty"`
	InterleaveGranularity int64  `json:"interleave_granularity,omitempty"`
}

// SimulateResponse is the JSON answer for one point. The numeric fields
// are the raw values behind the sweep CSV columns; a client printing
// them with the sweep's format verbs reproduces its rows byte for byte.
// Degraded marks an analytic estimate served under saturation instead of
// a simulator result. Cache state is reported in the X-Sim-Cache header,
// never in the body, so identical points always serialize identically.
type SimulateResponse struct {
	Format      string  `json:"format"`
	Channels    int     `json:"channels"`
	FreqMHz     int     `json:"freq_mhz"`
	FrameBytes  int64   `json:"frame_bytes"`
	RequiredGB  float64 `json:"required_gbps"`
	AccessMS    float64 `json:"access_ms"`
	BudgetMS    float64 `json:"budget_ms"`
	Verdict     string  `json:"verdict"`
	Efficiency  float64 `json:"efficiency"`
	PowerMW     float64 `json:"power_mw"`
	InterfaceMW float64 `json:"interface_mw"`
	Degraded    bool    `json:"degraded,omitempty"`
	// Estimated marks closed-form analytic answers (fast/auto fidelity
	// tiers and degraded-mode fallbacks), serialized the same omitempty
	// way Degraded is: absent means cycle-accurate.
	Estimated bool `json:"estimated,omitempty"`
}

// SweepResponse wraps the grid's points in request (row-major) order.
type SweepResponse struct {
	Points   []SimulateResponse `json:"points"`
	Degraded bool               `json:"degraded,omitempty"`
}

// BatchRequest is the POST /v1/batch body: an explicit slice of points
// answered under ONE admission-control and deadline envelope — the shard
// router's transport, costing one HTTP round trip per shard instead of
// one per point. Fidelity is the default tier for points that set none.
// With Warm, the shard computes (and disk-persists) every point but
// omits the result bodies from the response — the cache-priming mode,
// where the payload is the side effect, not the answer.
type BatchRequest struct {
	Points   []SimulateRequest `json:"points"`
	Fidelity string            `json:"fidelity,omitempty"`
	Warm     bool              `json:"warm,omitempty"`
}

// BatchResponse answers a batch in request order. Outcomes carries the
// per-point cache outcome (the X-Sim-Cache vocabulary: "hit", "joined",
// "simulated", "bypass") — per-point state the single-point endpoints
// report in a header, which a merged sweep body must not depend on, so
// it rides in the batch envelope instead. Shard echoes the serving
// shard's name when the daemon was started with one. Points is omitted
// for warm batches.
type BatchResponse struct {
	Points   []SimulateResponse `json:"points,omitempty"`
	Outcomes []string           `json:"outcomes"`
	Shard    string             `json:"shard,omitempty"`
	Degraded bool               `json:"degraded,omitempty"`
}

// WarmResponse summarizes a cache-warming fan-out: how many grid points
// were primed, how they spread across shards, and how each was answered
// ("simulated" on a cold store, "hit" when already warm). Both maps
// marshal with sorted keys, so the summary is deterministic.
type WarmResponse struct {
	Points   int            `json:"points"`
	Shards   map[string]int `json:"shards"`
	Outcomes map[string]int `json:"outcomes"`
}

// ErrorResponse is the body of every non-2xx answer. MaxBytes is set
// only on 413 (request body over the size limit) and carries the
// byte ceiling the client must stay under.
type ErrorResponse struct {
	Error    string `json:"error"`
	MaxBytes int64  `json:"max_bytes,omitempty"`
}

// DecodeJSON strictly decodes one JSON document from r into v: unknown
// fields and trailing garbage are errors (a typo'd knob can never
// silently simulate the default), and a body over MaxRequestBytes fails
// with ErrRequestTooLarge — distinguishable with errors.Is, so callers
// (the service handlers and the shard router alike) answer 413 instead
// of a generic 400.
func DecodeJSON(r io.Reader, v any) error {
	lr := &io.LimitedReader{R: r, N: MaxRequestBytes + 1}
	dec := json.NewDecoder(lr)
	dec.DisallowUnknownFields()
	consumed := func() int64 { return MaxRequestBytes + 1 - lr.N }
	if err := dec.Decode(v); err != nil {
		// A document truncated by the limit surfaces as a syntax error or
		// unexpected EOF; the consumed-byte count tells the cases apart.
		if consumed() > MaxRequestBytes {
			return fmt.Errorf("decoding request: %w", ErrRequestTooLarge)
		}
		return fmt.Errorf("decoding request: %w", err)
	}
	if consumed() > MaxRequestBytes {
		return fmt.Errorf("decoding request: %w", ErrRequestTooLarge)
	}
	if dec.More() {
		return fmt.Errorf("decoding request: trailing data after JSON document")
	}
	return nil
}

// parseMux maps the wire spelling onto mapping.Multiplexing.
func parseMux(s string) (mapping.Multiplexing, error) {
	switch strings.ToLower(s) {
	case "", "rbc":
		return mapping.RBC, nil
	case "brc":
		return mapping.BRC, nil
	default:
		return 0, fmt.Errorf("unknown mux %q (want \"rbc\" or \"brc\")", s)
	}
}

// Point lowers the request to the core types, reusing the same
// Workload/MemoryConfig validation every other entry point applies —
// the request decoder adds no second, weaker validation surface.
func (req *SimulateRequest) Point() (core.Workload, core.MemoryConfig, error) {
	w, err := core.WorkloadFor(req.Format)
	if err != nil {
		return core.Workload{}, core.MemoryConfig{}, err
	}
	w.SampleFraction = req.Fraction
	mux, err := parseMux(req.Mux)
	if err != nil {
		return core.Workload{}, core.MemoryConfig{}, err
	}
	// The registry's canonical parser: the service accepts exactly the
	// spellings the CLIs do, and its error lists the valid names.
	policy, err := controller.ParsePolicy(req.Policy)
	if err != nil {
		return core.Workload{}, core.MemoryConfig{}, err
	}
	mc := core.MemoryConfig{
		Channels:              req.Channels,
		Freq:                  units.Frequency(req.FreqMHz) * units.MHz,
		Mux:                   mux,
		Policy:                policy,
		Device:                req.Device,
		DisablePowerDown:      req.DisablePowerDown,
		WriteBufferDepth:      req.WriteBufferDepth,
		QueueDepth:            req.QueueDepth,
		RefreshPostpone:       req.RefreshPostpone,
		PrechargeOnIdle:       req.PrechargeOnIdle,
		InterleaveGranularity: req.InterleaveGranularity,
	}
	if err := w.Validate(); err != nil {
		return core.Workload{}, core.MemoryConfig{}, err
	}
	if err := mc.Validate(); err != nil {
		return core.Workload{}, core.MemoryConfig{}, err
	}
	return w, mc, nil
}

// Grid expands the sweep request into its points in row-major
// (format, channel, frequency) order — the order cmd/sweep emits — after
// validating every coordinate. maxPoints bounds the expansion so one
// request cannot monopolize the service.
func (req *SweepRequest) Grid(maxPoints int) ([]SimulateRequest, error) {
	if len(req.Formats) == 0 || len(req.Channels) == 0 || len(req.FreqsMHz) == 0 {
		return nil, fmt.Errorf("sweep request needs formats, channels and freqs_mhz")
	}
	n := len(req.Formats) * len(req.Channels) * len(req.FreqsMHz)
	if n > maxPoints {
		return nil, fmt.Errorf("sweep grid has %d points, limit %d", n, maxPoints)
	}
	points := make([]SimulateRequest, 0, n)
	for _, f := range req.Formats {
		for _, ch := range req.Channels {
			for _, freq := range req.FreqsMHz {
				points = append(points, SimulateRequest{
					Format:                f,
					Channels:              ch,
					FreqMHz:               freq,
					Fraction:              req.Fraction,
					Mux:                   req.Mux,
					Policy:                req.Policy,
					Device:                req.Device,
					DisablePowerDown:      req.DisablePowerDown,
					WriteBufferDepth:      req.WriteBufferDepth,
					QueueDepth:            req.QueueDepth,
					RefreshPostpone:       req.RefreshPostpone,
					PrechargeOnIdle:       req.PrechargeOnIdle,
					InterleaveGranularity: req.InterleaveGranularity,
				})
			}
		}
	}
	return points, nil
}

// CSVHeader is the header line cmd/sweep prints; rendering every
// SimulateResponse with CSVRow under it reproduces a sweep byte for byte.
const CSVHeader = "format,channels,freq_mhz,frame_bytes,required_gbps,access_ms,budget_ms,verdict,efficiency,power_mw,interface_mw,estimated"

// CSVRow renders the response exactly as cmd/sweep renders the same
// point — same verbs, same order — which is what makes the service (and
// the shard router fronting it) drop-in substitutable for a local run.
func (p SimulateResponse) CSVRow() string {
	return fmt.Sprintf("%s,%d,%d,%d,%.3f,%.3f,%.3f,%s,%.3f,%.1f,%.2f,%t",
		p.Format, p.Channels, p.FreqMHz, p.FrameBytes,
		p.RequiredGB, p.AccessMS, p.BudgetMS, p.Verdict,
		p.Efficiency, p.PowerMW, p.InterfaceMW, p.Estimated)
}

// responseFor renders a Result as the wire response for the request that
// produced it.
func responseFor(req SimulateRequest, res core.Result, degraded bool) SimulateResponse {
	return SimulateResponse{
		Format:      res.Format.Name,
		Channels:    req.Channels,
		FreqMHz:     req.FreqMHz,
		FrameBytes:  res.FrameBytes,
		RequiredGB:  res.RequiredBandwidth.GBps(),
		AccessMS:    res.AccessTime.Milliseconds(),
		BudgetMS:    res.FramePeriod.Milliseconds(),
		Verdict:     res.Verdict.String(),
		Efficiency:  res.Efficiency,
		PowerMW:     res.TotalPower.Milliwatts(),
		InterfaceMW: res.InterfacePower.Milliwatts(),
		Degraded:    degraded,
		Estimated:   res.Estimated,
	}
}
