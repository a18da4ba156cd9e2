// Command simrouter fronts a fleet of simd shards with a consistent-hash
// ring over the simulation cache keys: POST /v1/simulate forwards each
// point to the shard that owns its key (so every shard's cache stays hot
// for ITS slice of the keyspace and no result is computed twice anywhere
// in the fleet), and POST /v1/sweep fans the grid out as ONE batched
// sub-request per shard, merging the answers into a body byte-identical
// to what a single daemon — or the sweep CLI — would produce.
//
// A shard that fails a request or its background health poll is skipped
// by the failover walk: the request retries on the ring successor with
// jittered backoff, so killing a shard mid-sweep costs latency, never a
// wrong answer. 429 (backpressure) and 504 (the client's own deadline)
// are passed through, not retried. ?warm=1 on a sweep primes the fleet's
// caches without shipping result bodies back.
//
// Shards are named: placement follows the NAME, so a shard can move to a
// new address without reshuffling the keyspace, and every response says
// which shard answered (X-Sim-Shard; per-shard counts on merged sweeps).
//
// Usage:
//
//	simrouter -shard s1=http://127.0.0.1:8081 -shard s2=http://127.0.0.1:8082
//	simrouter -addr :0 -shard a=http://10.0.0.1:8080 -retries 3 -debug-addr 127.0.0.1:9091
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"repro/internal/cli"
	"repro/internal/metrics"
	"repro/internal/shard"
)

// shardFlags collects repeated -shard name=url definitions.
type shardFlags map[string]string

func (f shardFlags) String() string {
	parts := make([]string, 0, len(f))
	for name, url := range f {
		parts = append(parts, name+"="+url)
	}
	return strings.Join(parts, ",")
}

func (f shardFlags) Set(v string) error {
	name, url, ok := strings.Cut(v, "=")
	if !ok || name == "" || url == "" {
		return fmt.Errorf("want name=url, got %q", v)
	}
	if _, dup := f[name]; dup {
		return fmt.Errorf("shard %q defined twice", name)
	}
	f[name] = url
	return nil
}

func init() { cli.Name = "simrouter" }

func main() {
	fs := flag.CommandLine
	shards := shardFlags{}
	flag.Var(shards, "shard", "fleet member as name=url (repeatable; the name is the ring identity)")
	daemon := cli.DaemonFlags(fs, "127.0.0.1:8090")
	var (
		vnodes         = flag.Int("vnodes", shard.DefaultVNodes, "virtual nodes per shard on the placement ring")
		retries        = flag.Int("retries", 2, "ring successors to fail over to when a shard errors")
		retryBackoff   = flag.Duration("retry-backoff", 25*time.Millisecond, "base jittered delay between failover attempts")
		healthInterval = flag.Duration("health-interval", time.Second, "period of the background per-shard /healthz poll")
		shardTimeout   = flag.Duration("shard-timeout", 10*time.Minute, "cap on one proxied shard request")
		maxSweepPoints = flag.Int("max-sweep-points", 4096, "largest grid one routed sweep may expand to")
	)
	flag.Parse()

	if len(shards) == 0 {
		cli.Usage(fs, "at least one -shard name=url is required")
	}
	if *vnodes < 1 || *retries < 0 || *maxSweepPoints < 1 {
		cli.Usage(fs, "-vnodes and -max-sweep-points must be >= 1, -retries >= 0")
	}
	if *retryBackoff <= 0 || *healthInterval <= 0 || *shardTimeout <= 0 {
		cli.Usage(fs, "-retry-backoff, -health-interval and -shard-timeout must be positive")
	}

	reg := metrics.NewRegistry()
	rt, err := shard.NewRouter(shard.RouterConfig{
		Shards:         shards,
		VNodes:         *vnodes,
		Retries:        *retries,
		RetryBackoff:   *retryBackoff,
		HealthInterval: *healthInterval,
		ShardTimeout:   *shardTimeout,
		MaxSweepPoints: *maxSweepPoints,
		Metrics:        reg,
	})
	if err != nil {
		cli.Fatal(err)
	}
	daemon.Debug(reg)
	if err := rt.Start(daemon.Addr); err != nil {
		cli.Fatal(err)
	}
	// Same stderr announce contract as simd, so the CI gate and tooling
	// can scrape the resolved port.
	fmt.Fprintf(os.Stderr, "simrouter: listening on %s (%d shards)\n", rt.Addr(), len(shards))
	daemon.Wait(rt.Drain)
}
