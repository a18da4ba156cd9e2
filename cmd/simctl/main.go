// Command simctl is the client for the simd simulation service. It
// speaks the /v1 JSON API and renders answers in the same CSV the sweep
// CLI emits, so a sweep through the service is byte-identical to — and
// drop-in substitutable for — a local sweep run.
//
// Subcommands:
//
//	simctl simulate -format 1080p30 -channels 4 -freq 400   # one point
//	simctl sweep -formats 720p30 -channels 1,2 -freqs 200   # CSV grid
//	simctl warm -formats 720p30 -channels 1,2 -freqs 200    # prime caches
//	simctl soak -clients 16 -requests 8                     # load test
//
// Every subcommand works identically against one simd daemon or a
// simrouter-fronted fleet — the router speaks the same /v1 API.
//
// warm computes a grid without shipping the result bodies back: the
// payload is the side effect of filling the service's (or every
// shard's) cache, so a later sweep answers entirely from cache.
//
// soak hammers the service with concurrent clients mixing cache hits and
// misses and verifies the service's load contract: every request either
// succeeds (200, possibly flagged degraded) or is shed honestly (429
// with Retry-After) — never a 5xx, never a hang. A shed client honors
// the Retry-After it was given, sleeping a jittered multiple of it
// before its next request, and the summary attributes sheds per shard
// when the fleet stamps X-Sim-Shard. -allow-shutdown additionally
// tolerates connections cut by a mid-soak daemon drain, so CI can
// SIGTERM the daemon under load and still assert the contract.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cli"
	"repro/internal/server"
)

func init() { cli.Name = "simctl" }

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "simulate":
		runSimulate(os.Args[2:])
	case "sweep":
		runSweep(os.Args[2:])
	case "warm":
		runWarm(os.Args[2:])
	case "soak":
		runSoak(os.Args[2:])
	case "-h", "-help", "--help", "help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "simctl: unknown subcommand %q\n", os.Args[1])
		usage()
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: simctl <simulate|sweep|warm|soak> [flags]

  simulate  answer one point as a CSV row (or -json)
  sweep     answer a grid as sweep-compatible CSV
  warm      compute a grid to prime the service caches (no result bodies)
  soak      load-test the service's shed/degrade contract

run "simctl <subcommand> -h" for the subcommand's flags
`)
	os.Exit(2)
}

// conn holds the connection flags every subcommand takes.
type conn struct {
	server, clientID  string
	timeout, deadline time.Duration
}

// connFlags registers -server, -timeout (defaulting to timeout) and
// -deadline on fs.
func connFlags(fs *flag.FlagSet, timeout time.Duration) *conn {
	c := &conn{}
	fs.StringVar(&c.server, "server", "http://127.0.0.1:8080", "simd or simrouter base URL")
	fs.DurationVar(&c.timeout, "timeout", timeout, "client-side HTTP timeout (a request exceeding it fails)")
	fs.DurationVar(&c.deadline, "deadline", 0, "server-side deadline to request (0 = server default)")
	return c
}

// idFlag registers -client-id.
func (c *conn) idFlag(fs *flag.FlagSet) {
	fs.StringVar(&c.clientID, "client-id", "", "X-Client-ID to present (rate-limit identity)")
}

// client wraps the HTTP transport with the service conventions: JSON
// bodies, the per-request deadline header, and a hard client-side
// timeout so no call can hang past it.
type client struct {
	*conn
	id   string
	http *http.Client
}

// client returns a client presenting id as its X-Client-ID.
func (c *conn) client(id string) *client {
	return &client{conn: c, id: id, http: &http.Client{Timeout: c.timeout}}
}

// modelFlags registers what a simulate, sweep or warm request carries
// besides its points: -policy, -device, -fidelity and -fraction (0 = the
// full frame). An empty name leaves the choice to the server.
func modelFlags(fs *flag.FlagSet, fraction string) *cli.Model {
	m := cli.ModelFlags(fs, fraction, true)
	cli.FidelityFlag(fs, &m.Fidelity, "")
	return m
}

// post sends one API call and returns the status, body and response
// header. Transport errors come back as err; HTTP-level failures are the
// caller's to interpret.
func (c *client) post(path string, body any) (status int, data []byte, hdr http.Header, err error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, nil, nil, err
	}
	req, err := http.NewRequest(http.MethodPost, strings.TrimRight(c.server, "/")+path, bytes.NewReader(payload))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if c.id != "" {
		req.Header.Set("X-Client-ID", c.id)
	}
	if c.deadline > 0 {
		req.Header.Set("X-Sim-Deadline", c.deadline.String())
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	data, err = io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, data, resp.Header, nil
}

// call posts body to path and decodes the 200 answer into resp; a
// transport error, any other status or an undecodable body is fatal. It
// returns the raw body and the response header.
func (c *client) call(path string, body, resp any) ([]byte, http.Header) {
	status, data, hdr, err := c.post(path, body)
	if err != nil {
		cli.Fatal(err)
	}
	if status != http.StatusOK {
		cli.Fatal(apiError(status, data))
	}
	if err := json.Unmarshal(data, resp); err != nil {
		cli.Fatal(fmt.Errorf("decoding response: %w", err))
	}
	return data, hdr
}

// apiError renders a non-2xx answer for the terminal.
func apiError(status int, data []byte) error {
	var e server.ErrorResponse
	if json.Unmarshal(data, &e) == nil && e.Error != "" {
		return fmt.Errorf("server returned %d: %s", status, e.Error)
	}
	return fmt.Errorf("server returned %d: %s", status, strings.TrimSpace(string(data)))
}

func runSimulate(args []string) {
	fs := flag.NewFlagSet("simctl simulate", flag.ExitOnError)
	cn := connFlags(fs, 2*time.Minute)
	cn.idFlag(fs)
	pt := cli.PointFlags(fs, "1080p30", "1")
	m := modelFlags(fs, "0")
	asJSON := fs.Bool("json", false, "print the raw JSON response instead of a CSV row")
	fs.Parse(args)
	if pt.FreqMHz != math.Trunc(pt.FreqMHz) {
		cli.Usage(fs, "-freq %v: the service takes whole MHz", pt.FreqMHz)
	}

	c := cn.client(cn.clientID)
	req := server.SimulateRequest{Format: pt.Format, Channels: pt.Channels, FreqMHz: int(pt.FreqMHz), Fraction: m.Fraction, Fidelity: m.Fidelity, Policy: m.Policy, Device: m.Device}
	var resp server.SimulateResponse
	data, hdr := c.call("/v1/simulate", &req, &resp)
	if *asJSON {
		os.Stdout.Write(data)
		return
	}
	if resp.Degraded {
		fmt.Fprintln(os.Stderr, "simctl: warning: degraded (analytic) answer — the service was saturated")
	}
	if cache := hdr.Get("X-Sim-Cache"); cache != "" {
		fmt.Fprintf(os.Stderr, "simctl: cache: %s\n", cache)
	}
	fmt.Println(server.CSVHeader)
	fmt.Println(resp.CSVRow())
}

func runSweep(args []string) {
	fs := flag.NewFlagSet("simctl sweep", flag.ExitOnError)
	cn := connFlags(fs, 10*time.Minute)
	cn.idFlag(fs)
	g := cli.GridFlags(fs)
	m := modelFlags(fs, "0.1")
	fs.Parse(args)

	c := cn.client(cn.clientID)
	req := server.SweepRequest{Formats: g.Formats, Channels: g.Channels, FreqsMHz: g.FreqsMHz, Fraction: m.Fraction, Fidelity: m.Fidelity, Policy: m.Policy, Device: m.Device}
	var resp server.SweepResponse
	c.call("/v1/sweep", &req, &resp)
	if resp.Degraded {
		fmt.Fprintln(os.Stderr, "simctl: warning: degraded (analytic) answers — the service was saturated")
	}
	fmt.Println(server.CSVHeader)
	for _, p := range resp.Points {
		fmt.Println(p.CSVRow())
	}
}

// runWarm expands the grid client-side and ships it as one warm batch:
// the service (or every shard behind a router) computes and caches each
// point but sends no result bodies back, so priming a large grid costs
// the simulations once and the response stays tiny.
func runWarm(args []string) {
	fs := flag.NewFlagSet("simctl warm", flag.ExitOnError)
	cn := connFlags(fs, 10*time.Minute)
	cn.idFlag(fs)
	g := cli.GridFlags(fs)
	m := modelFlags(fs, "0.1")
	fs.Parse(args)

	var points []server.SimulateRequest
	for _, f := range g.Formats {
		for _, ch := range g.Channels {
			for _, freq := range g.FreqsMHz {
				points = append(points, server.SimulateRequest{
					Format: f, Channels: ch, FreqMHz: freq,
					Fraction: m.Fraction, Policy: m.Policy, Device: m.Device,
				})
			}
		}
	}

	c := cn.client(cn.clientID)
	req := server.BatchRequest{Points: points, Fidelity: m.Fidelity, Warm: true}
	var resp server.BatchResponse
	_, hdr := c.call("/v1/batch", &req, &resp)
	outcomes := map[string]int{}
	for _, o := range resp.Outcomes {
		outcomes[o]++
	}
	fmt.Printf("simctl: warm: primed %d points (%s)", len(resp.Outcomes), countList(outcomes))
	if shard := hdr.Get("X-Sim-Shard"); shard != "" {
		fmt.Printf(" shards: %s", shard)
	}
	fmt.Println()
}

// countList renders outcome counts as "hit=3 simulated=17" with sorted
// keys.
func countList(counts map[string]int) string {
	keys := make([]string, 0, len(counts))
	for k := range counts {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%d", k, counts[k])
	}
	return strings.Join(parts, " ")
}

// retryAfter parses a 429's Retry-After seconds value (0 on absence or
// garbage — the caller treats that as "back off a beat anyway").
func retryAfter(hdr http.Header) time.Duration {
	secs, err := strconv.Atoi(strings.TrimSpace(hdr.Get("Retry-After")))
	if err != nil || secs < 0 {
		return 0
	}
	return time.Duration(secs) * time.Second
}

func runSoak(args []string) {
	fs := flag.NewFlagSet("simctl soak", flag.ExitOnError)
	cn := connFlags(fs, 2*time.Minute)
	var fraction float64
	cli.FractionFlag(fs, &fraction, "0.02", true)
	var (
		clients       = fs.Int("clients", 8, "concurrent clients")
		requests      = fs.Int("requests", 8, "requests per client")
		allowShutdown = fs.Bool("allow-shutdown", false, "tolerate connections cut by a mid-soak daemon drain (counted, not failures)")
	)
	fs.Parse(args)
	if *clients < 1 || *requests < 1 {
		cli.Usage(fs, "-clients and -requests must be >= 1")
	}

	var ok, degraded, shed, cut, failed atomic.Int64
	var mu sync.Mutex
	shedByShard := map[string]int{}
	fail := func(format string, args ...any) {
		failed.Add(1)
		fmt.Fprintf(os.Stderr, "simctl: soak: FAIL: %s\n", fmt.Sprintf(format, args...))
	}
	var wg sync.WaitGroup
	for i := 0; i < *clients; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c := cn.client("soak-" + strconv.Itoa(id))
			for r := 0; r < *requests; r++ {
				// Even requests hammer one hot point (cache hits and
				// single-flight joins); odd ones walk distinct frequencies
				// across the device's supported range (misses), so the soak
				// exercises both paths at once.
				req := server.SimulateRequest{Format: "720p30", Channels: 1, FreqMHz: 400, Fraction: fraction}
				if r%2 == 1 {
					req.FreqMHz = 200 + (id**requests+r)%334
				}
				status, data, hdr, err := c.post("/v1/simulate", &req)
				switch {
				case err != nil:
					if *allowShutdown {
						cut.Add(1)
					} else {
						fail("client %d: %v", id, err)
					}
				case status == http.StatusOK:
					var resp server.SimulateResponse
					if jerr := json.Unmarshal(data, &resp); jerr != nil {
						fail("client %d: bad 200 body: %v", id, jerr)
						break
					}
					if resp.Degraded {
						degraded.Add(1)
					}
					ok.Add(1)
				case status == http.StatusTooManyRequests:
					if hdr.Get("Retry-After") == "" {
						fail("client %d: 429 without Retry-After", id)
						break
					}
					shed.Add(1)
					mu.Lock()
					shedByShard[shardKey(hdr)]++
					mu.Unlock()
					// Honor the server's backpressure: sleep the advertised
					// Retry-After plus up to 50% jitter, so a shed fleet of
					// clients spreads out instead of re-stampeding in sync.
					if wait := retryAfter(hdr); wait > 0 {
						time.Sleep(wait + time.Duration(rand.Int63n(int64(wait)/2+1)))
					}
				case status == http.StatusServiceUnavailable && *allowShutdown:
					// The drain cut this request off mid-flight.
					cut.Add(1)
				default:
					fail("client %d: status %d: %s", id, status, strings.TrimSpace(string(data)))
				}
			}
		}(i)
	}
	wg.Wait()

	fmt.Printf("simctl: soak: ok=%d degraded=%d shed=%d cut=%d failed=%d\n",
		ok.Load(), degraded.Load(), shed.Load(), cut.Load(), failed.Load())
	if len(shedByShard) > 0 {
		// Attribute the sheds: against a router-fronted fleet each 429
		// carries the shedding shard's X-Sim-Shard; "-" collects answers
		// from an unnamed (single-daemon) service.
		fmt.Printf("simctl: soak: shed by shard: %s\n", countList(shedByShard))
	}
	if failed.Load() > 0 {
		os.Exit(1)
	}
}

// shardKey attributes a response to the shard that stamped it ("-" when
// the service is not shard-named).
func shardKey(hdr http.Header) string {
	if s := hdr.Get("X-Sim-Shard"); s != "" {
		return s
	}
	return "-"
}
