// Command simd serves the simulator as a service: POST /v1/simulate
// answers one (workload, memory config) point and POST /v1/sweep a grid,
// both content-addressed against the result cache with cross-request
// single-flight dedup, so a fleet of clients asking the same question
// costs one simulation.
//
// The daemon is built to stay up under abuse: admission control sheds
// load with 429 + Retry-After past -workers + -queue-limit, per-client
// token buckets (-rate/-burst) stop one client starving the rest,
// per-request deadlines (-deadline, capped by -max-deadline) propagate
// as context cancellation into the simulation loop, panics are isolated
// per request, and SIGINT/SIGTERM drains gracefully: the listener closes
// immediately, in-flight requests get -drain to finish, and past that
// they are canceled and unwound. With -degrade, saturated arrivals get
// the analytic closed-form estimate (flagged degraded in the response)
// instead of a 429 — the service-level analogue of the paper's
// quality-degradation ladder.
//
// Usage:
//
//	simd -addr 127.0.0.1:8080
//	simd -addr :0 -workers 4 -queue-limit 8 -rate 50 -degrade
//	simd -cache-dir /var/cache/simd -debug-addr 127.0.0.1:9090
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"repro/internal/cli"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/server"
)

func init() { cli.Name = "simd" }

func main() {
	fs := flag.CommandLine
	daemon := cli.DaemonFlags(fs, "127.0.0.1:8080")
	var (
		cache          cli.Cache
		fidelity       string
		workers        = flag.Int("workers", 0, "concurrent simulations (0 = one per CPU)")
		queueLimit     = flag.Int("queue-limit", 0, "admitted requests beyond the running ones before shedding (0 = 4x workers)")
		rate           = flag.Float64("rate", 0, "per-client rate limit in requests/second (0 = unlimited; clients keyed by X-Client-ID, else remote host)")
		burst          = flag.Int("burst", 0, "per-client burst size (0 = 2x rate, minimum 1)")
		deadline       = flag.Duration("deadline", 60*time.Second, "default per-request deadline when the client sets none")
		maxDeadline    = flag.Duration("max-deadline", 5*time.Minute, "cap on client-requested deadlines (X-Sim-Deadline header or ?deadline=)")
		degrade        = flag.Bool("degrade", false, "serve analytic estimates (flagged degraded) when the queue is saturated, instead of shedding with 429")
		maxSweepPoints = flag.Int("max-sweep-points", 1024, "largest grid one sweep request may expand to")
		shardName      = flag.String("shard-name", "", "stamp responses with this fleet-member name (X-Sim-Shard header) when serving behind simrouter")
	)
	cache.DirFlag(fs)
	cli.FidelityFlag(fs, &fidelity, "exact")
	flag.Parse()

	if *workers < 0 || *queueLimit < 0 || *burst < 0 || *maxSweepPoints < 1 {
		cli.Usage(fs, "-workers, -queue-limit and -burst must be >= 0 and -max-sweep-points >= 1")
	}
	if *rate < 0 {
		cli.Usage(fs, "-rate must be >= 0 (0 = unlimited), got %v", *rate)
	}
	if *deadline <= 0 || *maxDeadline <= 0 {
		cli.Usage(fs, "-deadline and -max-deadline must be positive")
	}
	tier, _ := core.ParseFidelity(fidelity) // validated while parsing
	if tier == core.FidelityAuto && core.EnabledEnvelope() == nil {
		fmt.Fprintln(os.Stderr, "simd: warning: no calibration envelope available; auto fidelity will simulate every point")
	}

	// The daemon always runs instrumented: unlike the batch CLIs there is
	// no byte-identical-output contract on a long-lived service, and the
	// queue/shed/latency metrics are the operator's only view inside it.
	reg := metrics.NewRegistry()
	core.EnableMetrics(reg)
	defer core.EnableMetrics(nil)

	srv := server.New(server.Config{
		Workers:         *workers,
		QueueLimit:      *queueLimit,
		MaxSweepPoints:  *maxSweepPoints,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		RateLimit:       *rate,
		RateBurst:       *burst,
		Degrade:         *degrade,
		Fidelity:        tier,
		Cache:           cache.Open(true),
		Metrics:         reg,
		ShardName:       *shardName,
	})
	daemon.Debug(reg)
	if err := srv.Start(daemon.Addr); err != nil {
		cli.Fatal(err)
	}
	// The resolved address (":0" picks a port) goes to stderr so tooling —
	// and the CI soak gate — can find the service.
	fmt.Fprintf(os.Stderr, "simd: listening on %s\n", srv.Addr())
	daemon.Wait(srv.Drain)
}
