package cluster

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ascendperf/internal/engine"
	"ascendperf/internal/serve"
	"ascendperf/internal/stats"
)

// RouterConfig configures a cluster router.
type RouterConfig struct {
	// Backends are the ascendd base URLs to shard across (required).
	Backends []string
	// Replicas is the virtual-node count per backend on the hash ring
	// (0 = DefaultReplicas).
	Replicas int
	// ProbeInterval is the mean /readyz probe period per backend, each
	// probe jittered into [0.7, 1.3) of it (0 = 1s).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe (0 = 2s).
	ProbeTimeout time.Duration
	// Timeout bounds one proxied request attempt (0 = 60s).
	Timeout time.Duration
	// L2Dir, when non-empty, embeds the shared L2 cache server in this
	// router at /l2/ backed by that directory — one process fewer to
	// operate for small clusters. Backends point their -l2 flag at this
	// router's address.
	L2Dir string
	// L2MaxBytes caps the embedded L2 directory's resident bytes; PUTs
	// past the cap evict least-recently-used entries (0 = unbounded).
	L2MaxBytes int64
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.ProbeInterval <= 0 {
		c.ProbeInterval = time.Second
	}
	if c.ProbeTimeout <= 0 {
		c.ProbeTimeout = 2 * time.Second
	}
	if c.Timeout <= 0 {
		c.Timeout = 60 * time.Second
	}
	return c
}

// maxProxyResponse bounds buffered proxied response bodies (traces run
// to tens of MB). Request bodies are read under the shard's own limit
// (serve.ReadBody).
const maxProxyResponse = 64 << 20

// Router is the cluster frontend: it canonicalizes analysis requests
// with the exact normalization the shards use, consistent-hashes the
// canonical key across backends so each shard's coalescing flights and
// response LRU stay hot for its slice of the keyspace, and fails over
// to the next ring node — once — when the owner is down or draining.
// Create with NewRouter, call Start to launch health probing, mount
// Handler, and Stop on shutdown.
type Router struct {
	cfg    RouterConfig
	ring   *Ring
	health *health
	client *http.Client
	mux    *http.ServeMux
	l2     *CacheServer

	flights proxyFlights // in-flight dedup on canonical key

	routed      []atomic.Uint64 // upstream responses obtained, per backend
	failovers   atomic.Uint64   // responses served by a non-primary backend
	unavailable atomic.Uint64   // requests no backend could answer
	deduped     atomic.Uint64   // requests served by attaching to an identical in-flight one
}

// NewRouter builds a router over cfg.Backends.
func NewRouter(cfg RouterConfig) (*Router, error) {
	cfg = cfg.withDefaults()
	backends := make([]string, 0, len(cfg.Backends))
	for _, b := range cfg.Backends {
		backends = append(backends, strings.TrimSuffix(b, "/"))
	}
	ring, err := NewRing(backends, cfg.Replicas)
	if err != nil {
		return nil, err
	}
	rt := &Router{
		cfg:    cfg,
		ring:   ring,
		health: newHealth(backends, cfg.ProbeInterval, cfg.ProbeTimeout),
		client: &http.Client{Timeout: cfg.Timeout},
		mux:    http.NewServeMux(),
		routed: make([]atomic.Uint64, len(backends)),
	}
	if cfg.L2Dir != "" {
		l2, err := NewCacheServer(cfg.L2Dir, cfg.L2MaxBytes)
		if err != nil {
			return nil, err
		}
		rt.l2 = l2
		rt.mux.Handle("/l2/", l2)
		rt.mux.Handle("/l2stats", l2)
	}
	for _, ep := range serve.AnalysisEndpoints() {
		rt.mux.HandleFunc("/v1/"+ep, rt.analysisProxy(ep))
	}
	for _, p := range []string{"/v1/ops", "/v1/models", "/v1/chips"} {
		rt.mux.HandleFunc(p, rt.passthrough)
	}
	rt.mux.HandleFunc("/v1/stats", rt.handleStats)
	rt.mux.HandleFunc("/v1/cluster", rt.handleCluster)
	rt.mux.HandleFunc("/healthz", rt.handleHealthz)
	rt.mux.HandleFunc("/readyz", rt.handleReadyz)
	rt.mux.HandleFunc("/metrics", rt.handleMetrics)
	return rt, nil
}

// Start launches health probing (one synchronous round first, so
// routing decisions begin from observed state).
func (rt *Router) Start() { rt.health.Start() }

// Stop halts the probers.
func (rt *Router) Stop() { rt.health.Stop() }

// Handler returns the router's HTTP handler.
func (rt *Router) Handler() http.Handler { return rt.mux }

// Backends returns the backend URLs in ring-construction order.
func (rt *Router) Backends() []string { return rt.ring.Nodes() }

// Failovers returns the count of responses served by a non-primary
// backend after the key's owner failed.
func (rt *Router) Failovers() uint64 { return rt.failovers.Load() }

// Unavailable returns the count of requests that exhausted every
// backend attempt and were answered with the 503 "unavailable"
// envelope.
func (rt *Router) Unavailable() uint64 { return rt.unavailable.Load() }

// Deduped returns the count of requests served by attaching to an
// identical in-flight request instead of calling a backend.
func (rt *Router) Deduped() uint64 { return rt.deduped.Load() }

// writeEnvelope mirrors the shard error envelope (FORMATS.md §8.3) so
// clients see one error shape whether a response came from a shard or
// from the router itself.
func writeEnvelope(w http.ResponseWriter, status int, code, format string, args ...any) {
	body, _ := json.Marshal(map[string]any{
		"error": map[string]string{"code": code, "message": fmt.Sprintf(format, args...)},
	})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

// tryOrder returns the backends to attempt for key: the ring failover
// sequence with healthy nodes first (ring order preserved within each
// class). Unhealthy nodes stay in the list — when everything looks
// down, trying the owner anyway beats shedding, and a wrongly
// pessimistic health bit heals on the first success path via the
// prober.
func (rt *Router) tryOrder(key [32]byte) []string {
	seq := rt.ring.Sequence(key)
	order := make([]string, 0, len(seq))
	for _, b := range seq {
		if rt.health.healthy(rt.health.index(b)) {
			order = append(order, b)
		}
	}
	for _, b := range seq {
		if !rt.health.healthy(rt.health.index(b)) {
			order = append(order, b)
		}
	}
	return order
}

// forwardedHeaders are the response headers copied from shard to
// client; everything else is router-owned.
var forwardedHeaders = []string{"Content-Type", "X-Ascendd-Cache", "X-Ascendd-Coalesced", "X-Ascendd-L2", "X-Ascendd-Surrogate", "Retry-After"}

// analysisProxy proxies one POST analysis endpoint with consistent-hash
// placement and bounded (single-retry) failover.
func (rt *Router) analysisProxy(endpoint string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			writeEnvelope(w, http.StatusMethodNotAllowed, "bad_request", "POST required")
			return
		}
		body, err := serve.ReadBody(w, r)
		if err != nil {
			writeEnvelope(w, http.StatusBadRequest, "bad_request", "read body: %v", err)
			return
		}
		// The shard would fold the query into the body before keying
		// it; fold it here, so the key covers it and the folded body
		// forwards it.
		if body, err = serve.FoldQuery(endpoint, body, r.URL.Query()); err != nil {
			writeEnvelope(w, http.StatusBadRequest, "bad_request", "%v", err)
			return
		}
		// Canonicalize with the shards' own normalization so equal
		// workloads hash equally regardless of field order or
		// whitespace. A body the shards would reject still routes (on
		// the digest of its raw bytes) so the owning shard produces the
		// canonical error response.
		key, err := serve.CanonicalKey(endpoint, body)
		if err != nil {
			key = sha256.Sum256(append([]byte(endpoint+"\x00"), body...))
		}

		// Deduplicate identical concurrent requests before spending a
		// backend attempt on each: the first arrival leads and forwards,
		// later ones attach to the same flight and replay its response.
		call, leader := rt.flights.join(key)
		if !leader {
			rt.deduped.Add(1)
			select {
			case <-call.done:
			case <-r.Context().Done():
				return // client gone; the leader's flight continues
			}
			rt.writeResult(w, call.res, true)
			return
		}
		res := rt.attempt(endpoint, r.URL.Path, key, body)
		rt.flights.finish(key, call, res)
		rt.writeResult(w, res, false)
	}
}

// attempt runs the bounded failover loop for one deduplicated flight
// and buffers the outcome. It deliberately runs detached from the
// initiating request's context: other clients may be attached to this
// flight, so the leader's disconnect must not abort their answer (the
// client timeout still bounds each upstream call).
func (rt *Router) attempt(endpoint, path string, key [32]byte, body []byte) *proxyResult {
	order := rt.tryOrder(key)
	attempts := len(order)
	if attempts > 2 {
		attempts = 2 // primary plus a single bounded retry
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		backend := order[i]
		status, hdr, respBody, err := rt.forward(path, backend, body)
		if err != nil {
			// Transport failure: the shard never answered. Mark it
			// down now (failover must not wait out a probe
			// interval) and try the next ring node.
			rt.health.markDown(rt.health.index(backend))
			lastErr = err
			continue
		}
		if status == http.StatusServiceUnavailable && isDraining(respBody) {
			// A draining shard rejected the work before starting
			// it; re-running elsewhere is safe and invisible.
			rt.health.markDown(rt.health.index(backend))
			lastErr = fmt.Errorf("%s is draining", backend)
			continue
		}
		// Any other status — including the shard's own 4xx/5xx — is
		// authoritative: the owner answered, so replaying elsewhere
		// would only duplicate work or mask real errors.
		res := &proxyResult{ok: true, status: status, header: map[string]string{},
			body: respBody, backend: backend, failover: i > 0}
		for _, h := range forwardedHeaders {
			if v := hdr.Get(h); v != "" {
				res.header[h] = v
			}
		}
		if res.failover {
			rt.failovers.Add(1)
		}
		rt.routed[rt.health.index(backend)].Add(1)
		return res
	}
	rt.unavailable.Add(1)
	return &proxyResult{errMsg: fmt.Sprintf("no backend available for %s: %v", endpoint, lastErr)}
}

// writeResult replays a buffered flight outcome to one client.
func (rt *Router) writeResult(w http.ResponseWriter, res *proxyResult, deduped bool) {
	if !res.ok {
		writeEnvelope(w, http.StatusServiceUnavailable, "unavailable", "%s", res.errMsg)
		return
	}
	for h, v := range res.header {
		w.Header().Set(h, v)
	}
	w.Header().Set("X-Ascendd-Route", res.backend)
	if res.failover {
		w.Header().Set("X-Ascendd-Failover", "1")
	}
	if deduped {
		w.Header().Set("X-Ascendd-Deduped", "1")
	}
	w.WriteHeader(res.status)
	w.Write(res.body)
}

// forward sends one buffered request attempt to backend and buffers the
// response, so a failed attempt can be retried from the same bytes.
func (rt *Router) forward(path, backend string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, backend+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := rt.client.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	defer resp.Body.Close()
	respBody, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
	if err != nil {
		return 0, nil, nil, err
	}
	return resp.StatusCode, resp.Header, respBody, nil
}

// isDraining reports whether a 503 body is the shard drain envelope.
func isDraining(body []byte) bool {
	var env struct {
		Error struct {
			Code string `json:"code"`
		} `json:"error"`
	}
	return json.Unmarshal(body, &env) == nil && env.Error.Code == "draining"
}

// passthrough forwards a read-only GET (ops/models/chips — identical on
// every shard) to the first healthy backend, retrying once.
func (rt *Router) passthrough(w http.ResponseWriter, r *http.Request) {
	order := rt.tryOrder(sha256.Sum256([]byte(r.URL.Path)))
	attempts := len(order)
	if attempts > 2 {
		attempts = 2
	}
	var lastErr error
	for i := 0; i < attempts; i++ {
		backend := order[i]
		resp, err := rt.client.Get(backend + r.URL.Path)
		if err != nil {
			rt.health.markDown(rt.health.index(backend))
			lastErr = err
			continue
		}
		body, err := io.ReadAll(io.LimitReader(resp.Body, maxProxyResponse))
		resp.Body.Close()
		if err != nil {
			lastErr = err
			continue
		}
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.Header().Set("X-Ascendd-Route", backend)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	rt.unavailable.Add(1)
	writeEnvelope(w, http.StatusServiceUnavailable, "unavailable", "no backend available: %v", lastErr)
}

// scrapeStats fetches one backend's /v1/stats.
func (rt *Router) scrapeStats(backend string) (*serve.StatsResponse, error) {
	resp, err := rt.health.client.Get(backend + "/v1/stats")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return nil, fmt.Errorf("stats: HTTP %d", resp.StatusCode)
	}
	var stats serve.StatsResponse
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		return nil, err
	}
	return &stats, nil
}

// handleStats serves the cluster-wide sum of every reachable backend's
// /v1/stats, so tools written against a single daemon (ascendload's
// scrape included) work unchanged against a cluster.
func (rt *Router) handleStats(w http.ResponseWriter, _ *http.Request) {
	var agg serve.StatsResponse
	for _, b := range rt.ring.Nodes() {
		if st, err := rt.scrapeStats(b); err == nil {
			stats.Add(&agg, st)
		}
	}
	agg.Engine.CacheHitRate = engine.CacheStats{Hits: agg.Engine.CacheHits, Misses: agg.Engine.CacheMisses}.HitRate()
	body, _ := json.MarshalIndent(agg, "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// BackendStatus is one backend's row in the /v1/cluster payload.
type BackendStatus struct {
	URL           string `json:"url"`
	Healthy       bool   `json:"healthy"`
	Routed        uint64 `json:"routed"`
	Probes        uint64 `json:"probes"`
	ProbeFailures uint64 `json:"probe_failures"`
	// Stats is the backend's own /v1/stats snapshot, null when the
	// backend is unreachable at scrape time.
	Stats *serve.StatsResponse `json:"stats,omitempty"`
}

// ClusterStatus is the /v1/cluster payload: the router's own routing
// and failover counters plus a live scrape of each backend.
type ClusterStatus struct {
	Backends    []BackendStatus   `json:"backends"`
	Replicas    int               `json:"replicas"`
	Failovers   uint64            `json:"failovers"`
	Unavailable uint64            `json:"unavailable"`
	Deduped     uint64            `json:"deduped"`
	L2          *CacheServerStats `json:"l2,omitempty"`
}

// Status assembles the live cluster view (also served at /v1/cluster).
func (rt *Router) Status() ClusterStatus {
	st := ClusterStatus{
		Replicas:    rt.ring.replicas,
		Failovers:   rt.failovers.Load(),
		Unavailable: rt.unavailable.Load(),
		Deduped:     rt.deduped.Load(),
	}
	for i, b := range rt.ring.Nodes() {
		row := BackendStatus{
			URL:           b,
			Healthy:       rt.health.healthy(i),
			Routed:        rt.routed[i].Load(),
			Probes:        rt.health.probes[i].Load(),
			ProbeFailures: rt.health.failures[i].Load(),
		}
		if stats, err := rt.scrapeStats(b); err == nil {
			row.Stats = stats
		}
		st.Backends = append(st.Backends, row)
	}
	if rt.l2 != nil {
		s := rt.l2.Stats()
		st.L2 = &s
	}
	return st
}

func (rt *Router) handleCluster(w http.ResponseWriter, _ *http.Request) {
	body, _ := json.MarshalIndent(rt.Status(), "", "  ")
	w.Header().Set("Content-Type", "application/json")
	w.Write(append(body, '\n'))
}

// handleHealthz reports router liveness.
func (rt *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 while at least one backend is
// healthy, 503 otherwise — a router with no live shards should be
// pulled from its own load balancer.
func (rt *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	for i := range rt.ring.Nodes() {
		if rt.health.healthy(i) {
			fmt.Fprintln(w, "ready")
			return
		}
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	fmt.Fprintln(w, "no healthy backends")
}

// handleMetrics renders the router's Prometheus exposition page.
func (rt *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	var b strings.Builder
	b.WriteString("# HELP ascendrouter_routed_total Responses served, by backend.\n")
	b.WriteString("# TYPE ascendrouter_routed_total counter\n")
	for i, backend := range rt.ring.Nodes() {
		fmt.Fprintf(&b, "ascendrouter_routed_total{backend=%q} %d\n", backend, rt.routed[i].Load())
	}
	b.WriteString("# HELP ascendrouter_failovers_total Responses served by a non-primary backend.\n")
	b.WriteString("# TYPE ascendrouter_failovers_total counter\n")
	fmt.Fprintf(&b, "ascendrouter_failovers_total %d\n", rt.failovers.Load())
	b.WriteString("# HELP ascendrouter_unavailable_total Requests no backend could answer.\n")
	b.WriteString("# TYPE ascendrouter_unavailable_total counter\n")
	fmt.Fprintf(&b, "ascendrouter_unavailable_total %d\n", rt.unavailable.Load())
	b.WriteString("# HELP ascendrouter_deduped_total Requests served by attaching to an identical in-flight request.\n")
	b.WriteString("# TYPE ascendrouter_deduped_total counter\n")
	fmt.Fprintf(&b, "ascendrouter_deduped_total %d\n", rt.deduped.Load())
	b.WriteString("# HELP ascendrouter_backend_healthy Last known backend health (1 up, 0 down).\n")
	b.WriteString("# TYPE ascendrouter_backend_healthy gauge\n")
	for i, backend := range rt.ring.Nodes() {
		up := 0
		if rt.health.healthy(i) {
			up = 1
		}
		fmt.Fprintf(&b, "ascendrouter_backend_healthy{backend=%q} %d\n", backend, up)
	}
	b.WriteString("# HELP ascendrouter_probe_failures_total Failed /readyz probes plus passive markdowns, by backend.\n")
	b.WriteString("# TYPE ascendrouter_probe_failures_total counter\n")
	for i, backend := range rt.ring.Nodes() {
		fmt.Fprintf(&b, "ascendrouter_probe_failures_total{backend=%q} %d\n", backend, rt.health.failures[i].Load())
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, b.String())
}
