// Command ascendload is the load driver for ascendd and the cluster
// layer. Every run takes the same steps per entry: a timed cold pass
// that issues each distinct request once, a measured phase that draws
// requests from seeded Zipf samplers, and one /v1/stats scrape of the
// front URL. It writes one report format (FORMATS.md §8.5).
//
// Without -cluster it drives the daemon at -base open-loop at -qps:
// the cold/measured latency split is the serving layer's value made
// measurable, since measured requests ride the response cache and
// request coalescing. To load a running cluster, point -base at
// ascendrouter, whose /v1/stats sums its backends.
//
// With -cluster N,M,... it spawns, per entry, that many in-process
// serving stacks behind a consistent-hash router sharing one L2 cache
// tier and drives them closed-loop. -kill closes one backend mid-load,
// and each entry ends with a cold-restart pass measuring shared-tier
// retention.
//
// Usage:
//
//	ascendload -base http://127.0.0.1:8372
//	ascendload -base http://... -endpoint roofline -qps 500 -duration 5s
//	ascendload -base http://... -endpoint model -topn 3 -json BENCH_serve.json \
//	    -maxerrors 0 -minhitrate 0.5 -maxwarmp50 1ms   # CI assertions
//	ascendload -cluster 1,2,4 -kill -json BENCH_cluster.json
//	ascendload -cluster 1,2 -kill -maxerrors 0 -minfailover 1 -minl2 0.5
//
// The assertion flags turn the run into a pass/fail gate: the process
// exits nonzero when any entry violates any bound.
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
)

func main() {
	var (
		base        = flag.String("base", "http://127.0.0.1:8372", "ascendd or ascendrouter base URL to drive (unless -cluster)")
		endpoint    = flag.String("endpoint", "mixed", `request mix: "mixed" (model analyses, then each operator's roofline and simulate), "model" (11 built-in workloads) or "roofline" (every registry operator)`)
		chip        = flag.String("chip", "training", "chip preset named in every request")
		topN        = flag.Int("topn", 0, "optimize the N hottest operator types per /v1/model request (0 = analysis only)")
		qps         = flag.Float64("qps", 100, "open-loop request rate against -base (-cluster entries run closed-loop)")
		duration    = flag.Duration("duration", 2*time.Second, "measured phase per entry")
		concurrency = flag.Int("concurrency", 0, "workers, the bound on in-flight requests (0 = 4*GOMAXPROCS)")
		timeout     = flag.Duration("timeout", 60*time.Second, "per-request client timeout")
		jsonPath    = flag.String("json", "", "write the FORMATS.md §8.5 JSON report to this file")
		maxErrors   = flag.Int("maxerrors", -1, "fail when any entry's client-observed errors exceed this (-1 disables)")
		minHitRate  = flag.Float64("minhitrate", -1, "fail when any entry's response cache hit rate is below this fraction (-1 disables)")
		minSpeedup  = flag.Float64("minspeedup", -1, "fail when any entry's measured p50 is not at least this many times faster than its cold p50 (-1 disables)")
		maxWarmP50  = flag.Duration("maxwarmp50", 0, "fail when any entry's measured p50 exceeds this latency (0 disables)")
		clusterArg  = flag.String("cluster", "", `spawn backends instead of driving -base: comma-separated backend counts, one entry each (e.g. "1,2,4")`)
		zipfS       = flag.Float64("zipf", 1.1, "Zipf popularity skew exponent (0 = uniform)")
		zipfN       = flag.Int("zipfn", 0, "cap the distinct-request population (0 = full mix)")
		seed        = flag.Uint64("seed", 42, "deterministic sampler seed")
		kill        = flag.Bool("kill", false, "with -cluster: close one backend at half-duration and keep driving load")
		minFailover = flag.Int("minfailover", -1, "fail unless every killed entry records at least this many failovers (-1 disables)")
		minL2       = flag.Float64("minl2", -1, "fail when any spawned entry's L2 restart hit rate is below this fraction (-1 disables)")
		minScaling2 = flag.Float64("minscaling2", -1, "fail when 2-backend throughput is not this many times the 1-backend throughput (-1 disables)")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendload"))
		return
	}

	cfg := cluster.LoadConfig{
		BaseURL:     *base,
		Endpoint:    *endpoint,
		Chip:        *chip,
		TopN:        *topN,
		QPS:         *qps,
		Duration:    *duration,
		Concurrency: *concurrency,
		ZipfS:       *zipfS,
		ZipfN:       *zipfN,
		Seed:        *seed,
		Kill:        *kill,
		Timeout:     *timeout,
		Out:         os.Stderr,
	}
	if *clusterArg != "" {
		for _, f := range strings.Split(*clusterArg, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(f))
			if err != nil || n <= 0 {
				fmt.Fprintf(os.Stderr, "ascendload: bad -cluster count %q\n", f)
				os.Exit(2)
			}
			cfg.Counts = append(cfg.Counts, n)
		}
	}
	rep, err := cluster.Run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ascendload:", err)
		os.Exit(1)
	}
	fmt.Print(rep.Format())
	if *jsonPath != "" {
		writeJSON(*jsonPath, rep)
	}
	fails := gates(rep, limits{
		maxErrors:   *maxErrors,
		minHitRate:  *minHitRate,
		minSpeedup:  *minSpeedup,
		maxWarmP50:  *maxWarmP50,
		minFailover: *minFailover,
		minL2:       *minL2,
		minScaling2: *minScaling2,
	})
	for _, f := range fails {
		fmt.Fprintln(os.Stderr, "ascendload: FAIL:", f)
	}
	if len(fails) > 0 {
		os.Exit(1)
	}
}

// limits holds the assertion flags. A negative bound, or a zero
// maxWarmP50, disables its check.
type limits struct {
	maxErrors   int
	minHitRate  float64
	minSpeedup  float64
	maxWarmP50  time.Duration
	minFailover int
	minL2       float64
	minScaling2 float64
}

// gates evaluates the assertion flags against every entry of a report
// and returns the violated bounds.
func gates(rep *cluster.Report, l limits) []string {
	var fails []string
	for i := range rep.Entries {
		e := &rep.Entries[i]
		fail := func(format string, args ...any) {
			fails = append(fails, e.Label()+": "+fmt.Sprintf(format, args...))
		}
		if l.maxErrors >= 0 && e.Errors > l.maxErrors {
			fail("%d errors > limit %d", e.Errors, l.maxErrors)
		}
		if l.minHitRate >= 0 && e.RespCacheHitRate < l.minHitRate {
			fail("response cache hit rate %.3f < floor %.3f", e.RespCacheHitRate, l.minHitRate)
		}
		if l.minSpeedup >= 0 && e.SpeedupP50() < l.minSpeedup {
			fail("measured p50 speedup %.1fx < floor %.1fx", e.SpeedupP50(), l.minSpeedup)
		}
		if l.maxWarmP50 > 0 && time.Duration(e.Measured.P50NS) > l.maxWarmP50 {
			fail("measured p50 %v > limit %v", time.Duration(e.Measured.P50NS), l.maxWarmP50)
		}
		if l.minFailover >= 0 && e.Killed && e.Failovers < uint64(l.minFailover) {
			fail("%d failovers < floor %d on a killed entry", e.Failovers, l.minFailover)
		}
		if l.minL2 >= 0 && e.L2 != nil && e.L2RestartHitRate < l.minL2 {
			fail("L2 restart hit rate %.3f < floor %.3f", e.L2RestartHitRate, l.minL2)
		}
	}
	if l.minScaling2 >= 0 && rep.Scaling2 < l.minScaling2 {
		fails = append(fails, fmt.Sprintf("2-backend scaling %.2fx < floor %.2fx", rep.Scaling2, l.minScaling2))
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
