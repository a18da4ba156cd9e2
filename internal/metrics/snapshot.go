package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
)

// Entry is one metric in a snapshot. Counters and gauges carry Value;
// histograms carry Count/Sum/Buckets (cumulative, Prometheus-style).
type Entry struct {
	Name   string  `json:"name"`
	Labels []Label `json:"labels,omitempty"`
	Type   string  `json:"type"`

	Value float64 `json:"value,omitempty"`

	Count   int64    `json:"count,omitempty"`
	Sum     float64  `json:"sum,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"`

	id string // sort key, not exported
}

// Bucket is one cumulative histogram bucket. Le is the rendered upper
// bound ("0.005", "+Inf") — a string so that +Inf survives JSON.
type Bucket struct {
	Le    string `json:"le"`
	Count int64  `json:"count"`
}

// Snapshot is a point-in-time copy of a registry, sorted by metric
// identity. Two snapshots of the same registry state encode
// byte-identically (both Prometheus text and JSON).
type Snapshot []Entry

// Snapshot copies the registry's current state. Values are read
// atomically per metric; the snapshot as a whole is not a cross-metric
// atomic cut (fine for run-level accounting). Nil registry returns nil.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	ids := append([]string(nil), r.order...)
	ms := make([]*registered, 0, len(ids))
	for _, id := range ids {
		ms = append(ms, r.metrics[id])
	}
	r.mu.Unlock()

	// Each slot's instrument was set before the slot was published under
	// r.mu (see lookup), so reading it here needs no lock.
	snap := make(Snapshot, 0, len(ms))
	for _, m := range ms {
		e := Entry{Name: m.name, Labels: m.labels, Type: m.kind.String(), id: m.id}
		switch m.kind {
		case kindCounter:
			e.Value = float64(m.counter.Value())
		case kindGauge:
			e.Value = float64(m.gauge.Value())
		case kindHistogram:
			h := m.hist
			e.Count = h.Count()
			e.Sum = h.Sum()
			e.Buckets = make([]Bucket, 0, len(h.bounds)+1)
			var cum int64
			for i, b := range h.bounds {
				cum += h.counts[i].Load()
				e.Buckets = append(e.Buckets, Bucket{Le: formatFloat(b), Count: cum})
			}
			cum += h.counts[len(h.bounds)].Load()
			e.Buckets = append(e.Buckets, Bucket{Le: "+Inf", Count: cum})
		}
		snap = append(snap, e)
	}
	sort.Slice(snap, func(i, j int) bool { return snap[i].id < snap[j].id })
	return snap
}

// formatFloat renders a float the same way everywhere (shortest
// round-trippable form), so snapshots are byte-deterministic.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelText renders a label set in Prometheus text syntax, with an extra
// le pair appended for histogram buckets ("" sentinel means none).
func labelText(labels []Label, le string) string {
	if len(labels) == 0 && le == "" {
		return ""
	}
	s := "{"
	for i, l := range labels {
		if i > 0 {
			s += ","
		}
		s += fmt.Sprintf("%s=%q", l.Key, l.Value)
	}
	if le != "" {
		if len(labels) > 0 {
			s += ","
		}
		s += fmt.Sprintf("le=%q", le)
	}
	return s + "}"
}

// WritePrometheus encodes the snapshot in the Prometheus text exposition
// format (version 0.0.4): one # TYPE line per metric family, then the
// samples. Deterministic: families appear in identity order.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	lastName := ""
	for _, e := range s {
		if e.Name != lastName {
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.Name, e.Type); err != nil {
				return err
			}
			lastName = e.Name
		}
		switch e.Type {
		case "histogram":
			for _, b := range e.Buckets {
				if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.Name, labelText(e.Labels, b.Le), b.Count); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.Name, labelText(e.Labels, ""), formatFloat(e.Sum)); err != nil {
				return err
			}
			if _, err := fmt.Fprintf(w, "%s_count%s %d\n", e.Name, labelText(e.Labels, ""), e.Count); err != nil {
				return err
			}
		default:
			if _, err := fmt.Fprintf(w, "%s%s %s\n", e.Name, labelText(e.Labels, ""), formatFloat(e.Value)); err != nil {
				return err
			}
		}
	}
	return nil
}

// WriteJSON encodes the snapshot as an indented JSON array (deterministic:
// entries are already sorted, structs encode in field order).
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(s)
}

// Find returns the entry with the given rendered identity (name, or
// name{k="v",...}) and whether it exists — convenience for tests and the
// stderr formatters.
func (s Snapshot) Find(id string) (Entry, bool) {
	for _, e := range s {
		if e.id == id || (e.id == "" && e.Name == id) {
			return e, true
		}
	}
	// Entries decoded from JSON have no id; fall back to matching the
	// rendered identity.
	for _, e := range s {
		name, _ := metricID(e.Name, e.Labels)
		if name == id {
			return e, true
		}
	}
	return Entry{}, false
}
