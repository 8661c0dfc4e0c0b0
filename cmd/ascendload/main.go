// Command ascendload is the load generator for ascendd: it replays the
// built-in model workloads (or the whole operator registry) against a
// live daemon, measuring a cold pass and then an open-loop warm phase
// at a target QPS. The cold/warm latency split is the serving layer's
// value proposition made measurable — warm requests ride the engine
// cache and request coalescing.
//
// With -cluster it becomes the cluster sweep driver instead: for each
// backend count it spawns that many in-process serving stacks behind a
// consistent-hash router sharing one L2 cache tier, drives Zipf-skewed
// mixed traffic through the router in a closed loop, optionally kills
// a backend mid-load (-kill), and finishes each entry with a
// cold-restart pass measuring shared-tier retention.
//
// Usage:
//
//	ascendload -base http://127.0.0.1:8372
//	ascendload -base http://... -endpoint roofline -qps 500 -duration 5s
//	ascendload -base http://... -json BENCH_serve.json \
//	    -maxerrors 0 -minhitrate 0.5 -maxwarmp50 1ms   # CI assertions
//	ascendload -cluster 1,2,4 -kill -json BENCH_cluster.json
//	ascendload -cluster 1,2 -kill -maxerrors 0 -minfailover 1 -minl2 0.5
//	ascendload -cluster attach -backends http://h1:8372,http://h2:8372
//
// The assertion flags turn the run into a pass/fail gate: the process
// exits nonzero when the measured report violates any bound.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"ascendperf/internal/cliutil"
	"ascendperf/internal/cluster"
	"ascendperf/internal/serve"
)

func main() {
	var (
		base        = flag.String("base", "http://127.0.0.1:8372", "ascendd base URL")
		endpoint    = flag.String("endpoint", "model", `request mix: "model" (11 built-in workloads) or "roofline" (every registry operator)`)
		chip        = flag.String("chip", "training", "chip preset named in every request")
		topN        = flag.Int("topn", 0, "with -endpoint model: optimize the N hottest operator types per request (0 = analysis only)")
		qps         = flag.Float64("qps", 100, "warm-phase target request rate")
		duration    = flag.Duration("duration", 2*time.Second, "warm-phase length (cluster mode: measured phase per entry)")
		concurrency = flag.Int("concurrency", 0, "max in-flight requests (0 = 4*GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		jsonPath    = flag.String("json", "", "write the FORMATS.md §8 (or §9 in cluster mode) JSON report to this file")
		maxErrors   = flag.Int("maxerrors", -1, "fail when client-observed errors exceed this (-1 disables)")
		minHitRate  = flag.Float64("minhitrate", -1, "fail when the server's response cache hit rate is below this fraction (-1 disables)")
		minSpeedup  = flag.Float64("minspeedup", -1, "fail when warm p50 is not at least this many times faster than cold p50 (-1 disables)")
		maxWarmP50  = flag.Duration("maxwarmp50", 0, "fail when warm p50 exceeds this latency (0 disables)")
		clusterArg  = flag.String("cluster", "", `cluster sweep mode: comma-separated backend counts (e.g. "1,2,4") or "attach" with -backends`)
		backends    = flag.String("backends", "", "with -cluster attach: comma-separated ascendd base URLs to drive")
		zipfS       = flag.Float64("zipf", 1.1, "cluster mode: Zipf popularity skew exponent (0 = uniform)")
		zipfN       = flag.Int("zipfn", 0, "cluster mode: cap the distinct-request population (0 = full mix)")
		seed        = flag.Uint64("seed", 42, "cluster mode: deterministic sampler seed")
		kill        = flag.Bool("kill", false, "cluster mode: close one backend at half-duration and keep driving load")
		minFailover = flag.Int("minfailover", -1, "cluster mode: fail unless a killed entry records at least this many failovers (-1 disables)")
		minL2       = flag.Float64("minl2", -1, "cluster mode: fail when any entry's L2 restart hit rate is below this fraction (-1 disables)")
		minScaling2 = flag.Float64("minscaling2", -1, "cluster mode: fail when 2-backend throughput is not this many times the 1-backend throughput (-1 disables)")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendload"))
		return
	}

	if *clusterArg != "" {
		runCluster(*clusterArg, *backends, *chip, *duration, *concurrency, *timeout,
			*zipfS, *zipfN, *seed, *kill, *jsonPath, *maxErrors, *minFailover, *minL2, *minScaling2)
		return
	}

	rep, err := serve.RunLoad(serve.LoadConfig{
		BaseURL:     *base,
		Endpoint:    *endpoint,
		Chip:        *chip,
		TopN:        *topN,
		QPS:         *qps,
		Duration:    *duration,
		Concurrency: *concurrency,
		Timeout:     *timeout,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascendload:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
	if *jsonPath != "" {
		writeJSON(*jsonPath, rep)
	}

	if fails := gates(rep, *maxErrors, *minHitRate, *minSpeedup, *maxWarmP50); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "ascendload: FAIL:", f)
		}
		os.Exit(1)
	}
}

// runCluster executes the sweep mode and applies its gates.
func runCluster(counts, backends, chip string, duration time.Duration, concurrency int,
	timeout time.Duration, zipfS float64, zipfN int, seed uint64, kill bool,
	jsonPath string, maxErrors, minFailover int, minL2, minScaling2 float64) {
	cfg := cluster.LoadConfig{
		Chip:        chip,
		Duration:    duration,
		Concurrency: concurrency,
		ZipfS:       zipfS,
		ZipfN:       zipfN,
		Seed:        seed,
		Kill:        kill,
		Timeout:     timeout,
		Out:         os.Stderr,
	}
	if counts == "attach" {
		if backends == "" {
			fmt.Fprintln(os.Stderr, "ascendload: -cluster attach requires -backends")
			os.Exit(2)
		}
		cfg.Attach = strings.Split(backends, ",")
	} else {
		for _, f := range strings.Split(counts, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "ascendload: bad -cluster count %q\n", f)
				os.Exit(2)
			}
			cfg.Counts = append(cfg.Counts, n)
		}
	}
	rep, err := cluster.RunCluster(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascendload:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
	if jsonPath != "" {
		writeJSON(jsonPath, rep)
	}
	if fails := clusterGates(rep, maxErrors, minFailover, minL2, minScaling2); len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, "ascendload: FAIL:", f)
		}
		os.Exit(1)
	}
}

// gates evaluates the CI assertion flags against a measured report and
// returns the violated bounds (a negative bound, or a zero maxWarmP50,
// disables its check).
func gates(rep *serve.LoadReport, maxErrors int, minHitRate, minSpeedup float64, maxWarmP50 time.Duration) []string {
	var fails []string
	if maxErrors >= 0 && rep.Errors > maxErrors {
		fails = append(fails, fmt.Sprintf("%d errors > limit %d", rep.Errors, maxErrors))
	}
	if minHitRate >= 0 && rep.RespCacheHitRate < minHitRate {
		fails = append(fails, fmt.Sprintf("response cache hit rate %.3f < floor %.3f", rep.RespCacheHitRate, minHitRate))
	}
	if minSpeedup >= 0 && rep.WarmSpeedupP50 < minSpeedup {
		fails = append(fails, fmt.Sprintf("warm speedup %.1fx < floor %.1fx", rep.WarmSpeedupP50, minSpeedup))
	}
	if maxWarmP50 > 0 && time.Duration(rep.WarmP50NS) > maxWarmP50 {
		fails = append(fails, fmt.Sprintf("warm p50 %v > limit %v", time.Duration(rep.WarmP50NS), maxWarmP50))
	}
	return fails
}

// clusterGates evaluates the cluster-mode assertion flags.
func clusterGates(rep *cluster.Report, maxErrors, minFailover int, minL2, minScaling2 float64) []string {
	var fails []string
	for _, e := range rep.Entries {
		if maxErrors >= 0 && e.Errors > maxErrors {
			fails = append(fails, fmt.Sprintf("%d backends: %d errors > limit %d", e.Backends, e.Errors, maxErrors))
		}
		if minFailover >= 0 && e.Killed && e.Failovers < uint64(minFailover) {
			fails = append(fails, fmt.Sprintf("%d backends: %d failovers < floor %d on a killed entry", e.Backends, e.Failovers, minFailover))
		}
		if minL2 >= 0 && e.L2 != nil && e.L2RestartHitRate < minL2 {
			fails = append(fails, fmt.Sprintf("%d backends: L2 restart hit rate %.3f < floor %.3f", e.Backends, e.L2RestartHitRate, minL2))
		}
	}
	if minScaling2 >= 0 && rep.Scaling2 < minScaling2 {
		fails = append(fails, fmt.Sprintf("2-backend scaling %.2fx < floor %.2fx", rep.Scaling2, minScaling2))
	}
	return fails
}

// writeJSON writes an indented report, exiting on failure.
func writeJSON(path string, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascendload:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(path, append(body, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "ascendload:", err)
		os.Exit(1)
	}
	fmt.Println("wrote", path)
}
