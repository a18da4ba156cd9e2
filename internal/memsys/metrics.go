package memsys

import (
	"sync/atomic"

	"repro/internal/metrics"
)

// meter holds the subsystem's instruments; counting happens once per Run,
// so the disabled cost is one pointer load per Run.
type meter struct {
	runs *metrics.Counter
}

// activeMeter is the process-wide meter, nil when disabled.
var activeMeter atomic.Pointer[meter]

// EnableMetrics registers the subsystem instruments in r and starts
// counting; nil disables. Normally called through core.EnableMetrics.
func EnableMetrics(r *metrics.Registry) {
	if r == nil {
		activeMeter.Store(nil)
		return
	}
	activeMeter.Store(&meter{runs: r.Counter("memsys_runs_total")})
}
