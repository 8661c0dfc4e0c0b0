package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"ascendperf/internal/cliutil"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/serve"
)

// LoadConfig configures one load run. Every entry of the run takes the
// same steps: a timed cold pass issuing each distinct request once, a
// measured phase drawing requests from seeded Zipf samplers, and one
// /v1/stats scrape of the front URL. With Counts empty the run has one
// entry, the daemon or router already listening at BaseURL, driven
// open-loop at QPS. With Counts set, each entry spawns that many
// in-process serving stacks behind a router sharing one L2 cache tier,
// drives them closed-loop, optionally kills one backend mid-load, and
// ends with a cold-restart pass measuring what the shared tier kept.
type LoadConfig struct {
	// BaseURL is the front to drive when Counts is empty, e.g.
	// "http://127.0.0.1:8372".
	BaseURL string
	// Counts are the backend counts to spawn, e.g. [1, 2, 4].
	Counts []int
	// Endpoint selects the request mix (default "mixed"; see buildMix).
	Endpoint string
	// Chip is the preset named in every request (default training).
	Chip string
	// TopN is passed through to /v1/model requests (0 = analysis only).
	TopN int
	// QPS is the open-loop issue rate against BaseURL (default 100).
	// Spawned entries run closed-loop: their question is capacity, not
	// latency at a fixed rate.
	QPS float64
	// Duration is the measured phase per entry (default 2s).
	Duration time.Duration
	// Concurrency is the worker count, the bound on in-flight requests
	// (default 4*GOMAXPROCS).
	Concurrency int
	// ZipfS is the popularity skew exponent, taken as given: 0 is
	// uniform, a negative or NaN skew is an error.
	ZipfS float64
	// ZipfN caps the distinct-request population (0 = the full mix).
	ZipfN int
	// Seed feeds the samplers, so request sequences repeat run to run.
	Seed uint64
	// Kill, on spawned entries of >= 2 backends, closes one backend at
	// the half-duration mark and keeps driving load.
	Kill bool
	// Timeout is the per-request client timeout (default 60s).
	Timeout time.Duration
	// Out receives progress lines (nil = discard).
	Out io.Writer
}

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Endpoint == "" {
		c.Endpoint = "mixed"
	}
	if c.Chip == "" {
		c.Chip = "training"
	}
	if c.QPS <= 0 {
		c.QPS = 100
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Second
	}
	if c.Concurrency <= 0 {
		c.Concurrency = 4 * runtime.GOMAXPROCS(0)
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	return c
}

// SchemaLoad identifies the FORMATS.md §8.5 report format.
const SchemaLoad = "ascendperf/bench-load/v1"

// Report is one load run: BENCH_serve.json (a running daemon) and
// BENCH_cluster.json (a spawned sweep), FORMATS.md §8.5.
type Report struct {
	cliutil.BenchHeader
	Endpoint string  `json:"endpoint"`
	ZipfS    float64 `json:"zipf_s"`
	// ZipfN is the distinct-request population sampled.
	ZipfN       int     `json:"zipf_n"`
	DurationMS  float64 `json:"duration_ms"`
	Concurrency int     `json:"concurrency"`
	// TargetQPS is the open-loop issue rate (0 = closed loop).
	TargetQPS float64 `json:"target_qps"`
	// Scaling2 is throughput at 2 backends over throughput at 1 (absent
	// when the sweep lacks either entry). In-process backends share one
	// machine: below ~4 cores it measures cache behaviour, not parallel
	// capacity.
	Scaling2 float64 `json:"scaling_2,omitempty"`
	Entries  []Entry `json:"entries"`
}

// Latency summarizes one phase's successful requests.
type Latency struct {
	N     int   `json:"n"`
	P50NS int64 `json:"p50_ns"`
	P99NS int64 `json:"p99_ns"`
	MaxNS int64 `json:"max_ns"`
}

// latency sorts the samples and summarizes them.
func latency(samples []time.Duration) Latency {
	slices.Sort(samples)
	at := func(p float64) int64 {
		if len(samples) == 0 {
			return 0
		}
		return samples[int(p*float64(len(samples)-1))].Nanoseconds()
	}
	return Latency{N: len(samples), P50NS: at(0.5), P99NS: at(0.99), MaxNS: at(1)}
}

// Entry is one measured front: the daemon at BaseURL, or one spawned
// backend count.
type Entry struct {
	// Backends is the spawned backend count (0 = the front at BaseURL).
	Backends int `json:"backends"`
	// Requests counts every request attempted in the cold pass and the
	// measured phase: Cold.N + Measured.N + Errors.
	Requests int     `json:"requests"`
	Errors   int     `json:"errors"`
	Cold     Latency `json:"cold"`
	Measured Latency `json:"measured"`
	// ThroughputQPS is the measured phase's successful requests per
	// wall second.
	ThroughputQPS float64 `json:"throughput_qps"`

	// Scraped from the front's /v1/stats after the measured phase; a
	// router serves the sum over its backends.
	RespCacheHits      uint64  `json:"resp_cache_hits"`
	RespCacheMisses    uint64  `json:"resp_cache_misses"`
	RespCacheHitRate   float64 `json:"resp_cache_hit_rate"`
	EngineCacheHitRate float64 `json:"engine_cache_hit_rate"`
	CoalesceLeaders    uint64  `json:"coalesce_leaders"`
	CoalesceFollowers  uint64  `json:"coalesce_followers"`
	ServerErrors       uint64  `json:"server_errors"`

	// Spawned entries only. Killed reports whether a backend was closed
	// mid-load; Failovers and Unavailable are the router's counters.
	Killed      bool          `json:"killed,omitempty"`
	Failovers   uint64        `json:"failovers,omitempty"`
	Unavailable uint64        `json:"unavailable,omitempty"`
	Shards      []ShardReport `json:"shards,omitempty"`
	// L2 is the shared cache server's state after the measured phase.
	L2 *CacheServerStats `json:"l2,omitempty"`
	// L2RestartHitRate is a second cold pass against freshly spawned
	// backends (empty local LRUs) sharing the same L2 directory: the
	// fraction of their L2 lookups the shared tier answered.
	L2RestartHitRate float64 `json:"l2_restart_hit_rate,omitempty"`
}

// Label names the entry in reports and gate failures.
func (e *Entry) Label() string {
	if e.Backends == 0 {
		return "daemon"
	}
	return fmt.Sprintf("%d backend(s)", e.Backends)
}

// SpeedupP50 is the cold p50 over the measured p50 (0 without samples).
func (e *Entry) SpeedupP50() float64 {
	if e.Measured.P50NS == 0 {
		return 0
	}
	return float64(e.Cold.P50NS) / float64(e.Measured.P50NS)
}

// ShardReport is one spawned backend's share of an entry.
type ShardReport struct {
	// Routed counts requests the router sent this backend (including
	// failover retries that landed here).
	Routed uint64 `json:"routed"`
	// Killed marks the backend the driver closed mid-load.
	Killed bool `json:"killed,omitempty"`
	// RespCacheHitRate is the backend's local response-LRU hit rate.
	RespCacheHitRate float64 `json:"resp_cache_hit_rate"`
	// L2Hits/L2Misses are the backend's shared-tier lookups.
	L2Hits   uint64 `json:"l2_hits"`
	L2Misses uint64 `json:"l2_misses"`
}

// request is one replayable request.
type request struct {
	path string
	body []byte
}

// buildMix assembles the request population in popularity-rank order,
// Zipf rank 0 first. "model" is the built-in workloads through
// /v1/model; "roofline" every registry operator, by name, through
// /v1/roofline; "mixed" the model requests first (the expensive
// whole-net analyses, the realistic hot set) and then each operator's
// roofline and simulate requests. capN > 0 keeps the first capN.
func buildMix(endpoint, chip string, topN, capN int) ([]request, error) {
	models := endpoint == "model" || endpoint == "mixed"
	ops := endpoint == "roofline" || endpoint == "mixed"
	if !models && !ops {
		return nil, fmt.Errorf("cluster: load: unknown endpoint %q (mixed, model, roofline)", endpoint)
	}
	type item struct {
		path string
		v    any
	}
	var items []item
	if models {
		for _, m := range model.All() {
			items = append(items, item{"/v1/model", serve.ModelRequest{Chip: chip, Model: m.Name, TopN: topN}})
		}
	}
	if ops {
		reg := kernels.Registry()
		names := make([]string, 0, len(reg))
		for n := range reg {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			op := serve.RooflineRequest{Chip: chip, Op: n}
			items = append(items, item{"/v1/roofline", op})
			if endpoint == "mixed" {
				items = append(items, item{"/v1/simulate", op})
			}
		}
	}
	if capN > 0 && capN < len(items) {
		items = items[:capN]
	}
	out := make([]request, len(items))
	for i, it := range items {
		body, err := json.Marshal(it.v)
		if err != nil {
			return nil, err
		}
		out[i] = request{path: it.path, body: body}
	}
	return out, nil
}

// send POSTs one request and returns its latency; any status but 200
// is an error.
func send(client *http.Client, front string, r request) (time.Duration, error) {
	start := time.Now()
	resp, err := client.Post(front+r.path, "application/json", bytes.NewReader(r.body))
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return 0, fmt.Errorf("%s: HTTP %d", r.path, resp.StatusCode)
	}
	return time.Since(start), nil
}

// coldPass issues each request once, serially, and returns the
// successful latencies and the failure count.
func coldPass(client *http.Client, front string, mix []request) ([]time.Duration, int) {
	var lat []time.Duration
	errs := 0
	for _, r := range mix {
		d, err := send(client, front, r)
		if err != nil {
			errs++
			continue
		}
		lat = append(lat, d)
	}
	return lat, errs
}

// drive runs the measured phase: one worker per sampler, each drawing
// Zipf ranks and POSTing to front until d has passed. With qps > 0
// the workers take turns off one ticker: an open loop whose issue rate
// does not wait for responses, up to the worker bound (past it, ticks
// are dropped), so a front that cannot keep up shows as throughput
// below the target. With qps = 0 each worker issues its next request
// when the previous one returns: a closed loop. kill, if set, runs at
// the half-duration mark and has returned when drive does.
func drive(client *http.Client, front string, mix []request, samplers []*Zipf, d time.Duration, qps float64, kill func()) ([]time.Duration, int, time.Duration) {
	var tick <-chan time.Time
	if qps > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / qps))
		defer t.Stop()
		tick = t.C
	}
	start := time.Now()
	ctx, cancel := context.WithDeadline(context.Background(), start.Add(d))
	defer cancel()
	var killed chan struct{}
	if kill != nil {
		killed = make(chan struct{})
		time.AfterFunc(d/2, func() {
			kill()
			close(killed)
		})
	}
	var (
		mu     sync.Mutex
		lat    []time.Duration
		failed int
		wg     sync.WaitGroup
	)
	for _, z := range samplers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var local []time.Duration
			localErrs := 0
			for ctx.Err() == nil {
				if tick != nil {
					select {
					case <-tick:
					case <-ctx.Done():
						continue
					}
				}
				took, err := send(client, front, mix[z.Next()])
				if err != nil {
					localErrs++
					continue
				}
				local = append(local, took)
			}
			mu.Lock()
			lat = append(lat, local...)
			failed += localErrs
			mu.Unlock()
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if killed != nil {
		<-killed
	}
	return lat, failed, elapsed
}

// measure runs one entry's shared steps against front: the cold pass,
// the measured phase and the /v1/stats scrape.
func measure(cfg LoadConfig, client *http.Client, front string, mix []request, qps float64, kill func()) (*Entry, error) {
	// One sampler per worker, each on its own seed: the workers draw
	// different sequences, and every entry draws the same ones.
	samplers := make([]*Zipf, cfg.Concurrency)
	for w := range samplers {
		z, err := NewZipf(len(mix), cfg.ZipfS, cfg.Seed+uint64(w)*0x9E3779B97F4A7C15)
		if err != nil {
			return nil, err
		}
		samplers[w] = z
	}

	cold, coldErrs := coldPass(client, front, mix)
	lat, errs, elapsed := drive(client, front, mix, samplers, cfg.Duration, qps, kill)
	e := &Entry{
		Errors:   coldErrs + errs,
		Cold:     latency(cold),
		Measured: latency(lat),
	}
	e.Requests = e.Cold.N + e.Measured.N + e.Errors
	if elapsed > 0 {
		e.ThroughputQPS = float64(len(lat)) / elapsed.Seconds()
	}

	// Cache effectiveness and coalescing are server-side facts the
	// client cannot infer.
	resp, err := client.Get(front + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("cluster: load: stats scrape: %w", err)
	}
	defer resp.Body.Close()
	var st serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return nil, fmt.Errorf("cluster: load: stats decode: %w", err)
	}
	e.RespCacheHits = st.Serve.RespCacheHits
	e.RespCacheMisses = st.Serve.RespCacheMisses
	if total := e.RespCacheHits + e.RespCacheMisses; total > 0 {
		e.RespCacheHitRate = float64(e.RespCacheHits) / float64(total)
	}
	e.EngineCacheHitRate = st.Engine.CacheHitRate
	e.CoalesceLeaders = st.Serve.CoalesceLeaders
	e.CoalesceFollowers = st.Serve.CoalesceFollowers
	e.ServerErrors = st.Serve.Errors
	return e, nil
}

// shardSet is one generation of spawned backends sharing an L2 tier.
type shardSet struct {
	servers []*httptest.Server
	urls    []string
}

func spawnShards(n int, l2 serve.L2Cache) *shardSet {
	s := &shardSet{}
	for i := 0; i < n; i++ {
		srv := httptest.NewServer(serve.New(serve.Config{L2: l2}))
		s.servers = append(s.servers, srv)
		s.urls = append(s.urls, srv.URL)
	}
	return s
}

func (s *shardSet) close() {
	for _, srv := range s.servers {
		if srv != nil {
			srv.Close()
		}
	}
}

// kill closes backend i abruptly (open connections dropped).
func (s *shardSet) kill(i int) {
	srv := s.servers[i]
	s.servers[i] = nil
	srv.CloseClientConnections()
	srv.Close()
}

// startRouter fronts backends with an in-process router. It probes
// once at Start and not again within the run: the interval exceeds any
// cold pass plus measured phase, so a backend killed mid-load is found
// by a failed forward (the failover -kill exists to exercise) instead
// of being marked down by a probe before traffic reaches it.
func startRouter(cfg LoadConfig, backends []string) (*Router, *httptest.Server, error) {
	rt, err := NewRouter(RouterConfig{
		Backends:      backends,
		ProbeInterval: time.Minute + 2*cfg.Duration,
		ProbeTimeout:  2 * time.Second,
		Timeout:       cfg.Timeout,
	})
	if err != nil {
		return nil, nil, err
	}
	rt.Start()
	return rt, httptest.NewServer(rt.Handler()), nil
}

// scrapeShards fills per-backend reports from the router's status view.
func scrapeShards(rt *Router, killed string) []ShardReport {
	st := rt.Status()
	out := make([]ShardReport, 0, len(st.Backends))
	for _, b := range st.Backends {
		sr := ShardReport{Routed: b.Routed, Killed: b.URL == killed}
		if b.Stats != nil {
			s := b.Stats.Serve
			if total := s.RespCacheHits + s.RespCacheMisses; total > 0 {
				sr.RespCacheHitRate = float64(s.RespCacheHits) / float64(total)
			}
			sr.L2Hits = s.L2Hits
			sr.L2Misses = s.L2Misses
		}
		out = append(out, sr)
	}
	return out
}

// runSpawned measures one backend count with driver-owned backends.
func runSpawned(cfg LoadConfig, client *http.Client, mix []request, n int) (*Entry, error) {
	l2dir, err := os.MkdirTemp("", "ascend-l2-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(l2dir)
	cacheServer, err := NewCacheServer(l2dir, 0)
	if err != nil {
		return nil, err
	}
	cacheSrv := httptest.NewServer(cacheServer)
	defer cacheSrv.Close()
	l2 := NewL2Client(cacheSrv.URL, cfg.Timeout)

	shards := spawnShards(n, l2)
	defer shards.close()
	rt, front, err := startRouter(cfg, shards.urls)
	if err != nil {
		return nil, err
	}
	defer rt.Stop()
	defer front.Close()

	// The victim is the last shard, so index 0 survives every entry.
	var killed string
	var kill func()
	if cfg.Kill && n >= 2 {
		victim := n - 1
		killed = shards.urls[victim]
		kill = func() { shards.kill(victim) }
	}
	e, err := measure(cfg, client, front.URL, mix, 0, kill)
	if err != nil {
		return nil, err
	}
	e.Backends = n
	e.Killed = kill != nil
	e.Failovers = rt.Failovers()
	e.Unavailable = rt.Unavailable()
	e.Shards = scrapeShards(rt, killed)
	l2stats := cacheServer.Stats()
	e.L2 = &l2stats

	// Cold-restart pass: fresh shards (empty local LRUs), same L2
	// directory. Every answer the shared tier retained is an L2 hit
	// instead of a re-simulation.
	front.Close()
	rt.Stop()
	shards.close()
	fresh := spawnShards(n, l2)
	defer fresh.close()
	rt2, front2, err := startRouter(cfg, fresh.urls)
	if err != nil {
		return nil, err
	}
	defer rt2.Stop()
	defer front2.Close()
	if _, errs := coldPass(client, front2.URL, mix); errs > 0 {
		return nil, fmt.Errorf("cluster: load: restart pass: %d of %d requests failed", errs, len(mix))
	}
	var hits, misses uint64
	for _, b := range rt2.Status().Backends {
		if b.Stats != nil {
			hits += b.Stats.Serve.L2Hits
			misses += b.Stats.Serve.L2Misses
		}
	}
	if total := hits + misses; total > 0 {
		e.L2RestartHitRate = float64(hits) / float64(total)
	}
	return e, nil
}

// Run executes the load run and returns its report.
func Run(cfg LoadConfig) (*Report, error) {
	cfg = cfg.withDefaults()
	mix, err := buildMix(cfg.Endpoint, cfg.Chip, cfg.TopN, cfg.ZipfN)
	if err != nil {
		return nil, err
	}
	rep := &Report{
		BenchHeader: cliutil.NewBenchHeader(SchemaLoad, cfg.Chip, cfg.Seed),
		Endpoint:    cfg.Endpoint,
		ZipfS:       cfg.ZipfS,
		ZipfN:       len(mix),
		DurationMS:  float64(cfg.Duration.Milliseconds()),
		Concurrency: cfg.Concurrency,
	}
	// Default transports keep two idle connections per host; a measured
	// phase would then time TCP handshakes, not the server. Size the
	// keep-alive pool to the worker count.
	client := &http.Client{
		Timeout: cfg.Timeout,
		Transport: &http.Transport{
			MaxIdleConns:        cfg.Concurrency + 4,
			MaxIdleConnsPerHost: cfg.Concurrency + 4,
		},
	}
	defer client.CloseIdleConnections()

	if len(cfg.Counts) == 0 {
		if cfg.BaseURL == "" {
			return nil, fmt.Errorf("cluster: load: neither a base URL nor backend counts given")
		}
		rep.TargetQPS = cfg.QPS
		e, err := measure(cfg, client, cfg.BaseURL, mix, cfg.QPS, nil)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, *e)
		return rep, nil
	}
	for _, n := range cfg.Counts {
		if n <= 0 {
			return nil, fmt.Errorf("cluster: load: invalid backend count %d", n)
		}
	}

	// In-process backends share the engine package's process-wide
	// caches (simulation LRU, disk tier). Pre-warm them once with the
	// full mix so every entry measures an equally warm engine;
	// otherwise the first entry would pay all the cold simulations and
	// the sweep would overstate scaling. EXPERIMENTS.md documents this.
	fmt.Fprintf(cfg.Out, "load: pre-warming engine caches (%d distinct requests)\n", len(mix))
	warm := httptest.NewServer(serve.New(serve.Config{}))
	_, errs := coldPass(client, warm.URL, mix)
	warm.Close()
	if errs > 0 {
		return nil, fmt.Errorf("cluster: load: pre-warm: %d of %d requests failed", errs, len(mix))
	}

	var t1, t2 float64
	for _, n := range cfg.Counts {
		fmt.Fprintf(cfg.Out, "load: measuring %d backend(s)...\n", n)
		e, err := runSpawned(cfg, client, mix, n)
		if err != nil {
			return nil, err
		}
		rep.Entries = append(rep.Entries, *e)
		switch n {
		case 1:
			t1 = e.ThroughputQPS
		case 2:
			t2 = e.ThroughputQPS
		}
	}
	if t1 > 0 && t2 > 0 {
		rep.Scaling2 = t2 / t1
	}
	return rep, nil
}

// Format renders the report for the terminal.
func (r *Report) Format() string {
	var b strings.Builder
	loop := "closed loop"
	if r.TargetQPS > 0 {
		loop = fmt.Sprintf("open loop at %.0f qps", r.TargetQPS)
	}
	fmt.Fprintf(&b, "load: %d distinct %s/%s requests, zipf s=%.2f seed=%d, %d workers, %s; %d cores, GOMAXPROCS %d\n",
		r.ZipfN, r.Endpoint, r.Chip, r.ZipfS, r.Seed, r.Concurrency, loop, r.Cores, r.GOMAXPROCS)
	phase := func(name string, l Latency) {
		ms := func(ns int64) float64 { return float64(ns) / 1e6 }
		fmt.Fprintf(&b, "    %-8s (%6d): p50 %8.3f ms  p99 %8.3f ms  max %8.3f ms\n",
			name, l.N, ms(l.P50NS), ms(l.P99NS), ms(l.MaxNS))
	}
	for i := range r.Entries {
		e := &r.Entries[i]
		fmt.Fprintf(&b, "  %s: %d requests, %d errors, %.0f qps", e.Label(), e.Requests, e.Errors, e.ThroughputQPS)
		if e.Killed {
			fmt.Fprintf(&b, "  [killed 1, %d failovers]", e.Failovers)
		}
		if e.L2 != nil {
			fmt.Fprintf(&b, "  L2 restart hit rate %.2f", e.L2RestartHitRate)
		}
		b.WriteByte('\n')
		phase("cold", e.Cold)
		phase("measured", e.Measured)
		fmt.Fprintf(&b, "    measured p50 %.1fx faster than cold; server: response cache hit rate %.1f%%, engine cache %.1f%%, coalesced %d/%d, errors %d\n",
			e.SpeedupP50(), 100*e.RespCacheHitRate, 100*e.EngineCacheHitRate,
			e.CoalesceFollowers, e.CoalesceFollowers+e.CoalesceLeaders, e.ServerErrors)
	}
	if r.Scaling2 > 0 {
		fmt.Fprintf(&b, "  throughput scaling at 2 backends: %.2fx\n", r.Scaling2)
	}
	return b.String()
}
