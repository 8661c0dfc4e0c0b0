package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ascendperf/internal/engine"
	"ascendperf/internal/stats"
)

// Config bounds the daemon's serving behaviour.
type Config struct {
	// Concurrency is the maximum number of simultaneously executing
	// analyses (admission slots); 0 defaults to GOMAXPROCS. Each
	// analysis fans out internally over the engine worker pool, so one
	// slot already saturates multiple cores on a cold whole-model run.
	Concurrency int

	// QueueDepth is the maximum number of flight leaders waiting for a
	// slot before new work is shed with 429; 0 defaults to 64.
	QueueDepth int

	// Timeout is the per-request deadline covering queue wait and
	// execution; 0 defaults to 30s.
	Timeout time.Duration

	// ResponseCache is the response-level LRU capacity in entries:
	// encoded 200 bodies keyed by canonical request, so repeats of a
	// completed request skip re-analysis and admission entirely. 0
	// defaults to 512; negative disables the cache.
	ResponseCache int

	// L2 is an optional shared second-level response cache (the cluster
	// tier): consulted on local response-LRU miss before simulating and
	// filled after a successful analysis. Nil disables the tier.
	L2 L2Cache
}

// L2Cache is a shared second-level response cache sitting between the
// per-shard response LRU and the simulator: encoded 200 bodies keyed by
// the request's canonical-key digest (FORMATS.md §9.2). Lookups and
// fills happen inside the coalescing flight, so a cold popular key is
// fetched — or simulated and stored — once per shard no matter how many
// clients race it; with a consistent-hashing router in front, once
// cluster-wide.
// Implementations must be safe for concurrent use. A failed lookup is a
// miss and a failed store is dropped: the tier is an accelerator, never
// a correctness dependency.
type L2Cache interface {
	Get(key [32]byte) ([]byte, bool)
	Put(key [32]byte, body []byte)
}

// withDefaults resolves zero fields.
func (c Config) withDefaults() Config {
	if c.Concurrency <= 0 {
		c.Concurrency = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.Timeout <= 0 {
		c.Timeout = 30 * time.Second
	}
	if c.ResponseCache == 0 {
		c.ResponseCache = 512
	}
	return c
}

// maxBodyBytes bounds request bodies; workload files are a few KB, so
// 4 MiB leaves generous room for large inline programs.
const maxBodyBytes = 4 << 20

// Server is the analysis service: an http.Handler exposing the full
// pipeline as JSON endpoints with coalescing, admission control and
// live metrics. Create with New, mount via Handler, stop with Drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	metrics  *metricsRegistry
	flights  *flightGroup
	adm      *admission
	resp     *respCache
	draining atomic.Bool
	inflight *inflightGauge
	// live holds the errors and l2_* counters; write it only with
	// atomic.AddUint64.
	live ServeStats
}

// New builds a server with the given config.
func New(cfg Config) *Server {
	s := &Server{
		cfg:      cfg.withDefaults(),
		mux:      http.NewServeMux(),
		metrics:  newMetricsRegistry(),
		flights:  newFlightGroup(),
		inflight: newInflightGauge(),
	}
	s.adm = newAdmission(s.cfg.Concurrency, s.cfg.QueueDepth)
	s.resp = newRespCache(s.cfg.ResponseCache)

	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	s.mux.HandleFunc("/v1/ops", s.handleOps)
	s.mux.HandleFunc("/v1/models", s.handleModels)
	s.mux.HandleFunc("/v1/chips", s.handleChips)
	for name, parse := range analysisParsers {
		s.mux.HandleFunc("/v1/"+name, s.analysis(name, parse))
	}
	return s
}

// FoldQuery returns the body an analysis endpoint parses. For optimize
// it folds the search query parameters (?search=1&beam=N&budget=M) into
// the JSON body, so the request key — computed from the body alone, in
// the shard and in the cluster router — covers the search mode; every
// other endpoint takes no query parameters and gets body unchanged. A
// body that is not a JSON object, or a parameter that is not a boolean
// or integer, is a bad_request error.
func FoldQuery(endpoint string, body []byte, query url.Values) ([]byte, error) {
	if endpoint != "optimize" || query.Get("search") == "" && query.Get("beam") == "" && query.Get("budget") == "" {
		return body, nil
	}
	merged := map[string]json.RawMessage{}
	if len(bytes.TrimSpace(body)) > 0 {
		if err := json.Unmarshal(body, &merged); err != nil {
			return nil, badRequest("body is not a JSON object: %v", err)
		}
	}
	set := func(key, val string, numeric bool) bool {
		if val == "" {
			return true
		}
		if numeric {
			if _, err := strconv.Atoi(val); err != nil {
				return false
			}
			merged[key] = json.RawMessage(val)
			return true
		}
		on, err := strconv.ParseBool(val)
		if err != nil {
			return false
		}
		merged[key] = json.RawMessage(strconv.FormatBool(on))
		return true
	}
	if !set("search", query.Get("search"), false) ||
		!set("beam", query.Get("beam"), true) ||
		!set("budget", query.Get("budget"), true) {
		return nil, badRequest("search/beam/budget query parameters must be boolean/integer")
	}
	// Every value in merged is valid JSON, decoded or built above, so
	// the map always encodes.
	out, _ := json.Marshal(merged)
	return out, nil
}

// ReadBody reads a request body of at most the size every analysis
// endpoint accepts into one buffer, presized from Content-Length when
// the client sent one: a large inline program is read without the
// repeated doubling of io.ReadAll. A Content-Length that understates the
// body only costs a regrowth; one that overstates it, or exceeds the
// limit, presizes no more than the limit allows.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := int64(512)
	if r.ContentLength >= 0 {
		size = min(r.ContentLength, maxBodyBytes) + 1 // +1: room to read EOF without growing
	}
	rd := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	buf := make([]byte, 0, size)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := rd.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return nil, err
		}
	}
}

// AnalysisEndpoints returns the sorted names of the POST analysis
// endpoints (each served at /v1/<name>): the request set a cluster
// router must canonicalize and consistent-hash.
func AnalysisEndpoints() []string { return sortedKeys(analysisParsers) }

// CanonicalKey parses and canonicalizes an analysis request body for
// the named endpoint, returning the digest of its endpoint-qualified
// canonical form: the exact key the serving layer coalesces and caches
// under. Two bodies differing only in JSON field order or whitespace
// yield equal keys, which is what lets a router hash equal workloads to
// the same shard. A malformed body returns the same error the shard
// itself would answer with.
func CanonicalKey(endpoint string, body []byte) ([32]byte, error) {
	parse, ok := analysisParsers[endpoint]
	if !ok {
		return [32]byte{}, fmt.Errorf("serve: unknown analysis endpoint %q", endpoint)
	}
	preq, err := parse(endpoint, body)
	if err != nil {
		return [32]byte{}, err
	}
	return preq.key, nil
}

// Handler returns the service's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// Drain flips the server into draining mode — /readyz starts failing
// and new analysis requests are shed with 503 — then waits for every
// in-flight request to finish or ctx to expire. Call before shutting
// down the listening http.Server so load balancers stop routing first.
func (s *Server) Drain(ctx context.Context) error {
	s.draining.Store(true)
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return fmt.Errorf("serve: drain: %w", ctx.Err())
	}
}

// Draining reports whether Drain has been initiated.
func (s *Server) Draining() bool { return s.draining.Load() }

// inflightGauge counts requests in flight and supports waiting for
// zero while new requests keep arriving. sync.WaitGroup forbids that
// use (Add concurrent with Wait is misuse); during a drain late
// requests still enter handlers — to be shed with the draining 503 —
// so the counter must tolerate Add racing Wait.
type inflightGauge struct {
	mu   sync.Mutex
	cond *sync.Cond
	n    int64
}

func newInflightGauge() *inflightGauge {
	g := &inflightGauge{}
	g.cond = sync.NewCond(&g.mu)
	return g
}

// Add adjusts the counter, waking waiters when it reaches zero.
func (g *inflightGauge) Add(d int64) {
	g.mu.Lock()
	g.n += d
	if g.n == 0 {
		g.cond.Broadcast()
	}
	g.mu.Unlock()
}

// Done decrements the counter.
func (g *inflightGauge) Done() { g.Add(-1) }

// Wait blocks until the counter is zero.
func (g *inflightGauge) Wait() {
	g.mu.Lock()
	for g.n != 0 {
		g.cond.Wait()
	}
	g.mu.Unlock()
}

// parsedRequest is a validated analysis request: its key, the digest of
// its canonical form (FORMATS.md §9.2) under which it is coalesced and
// cached, plus the work closure. run returns the already-encoded
// response body so a coalesced result can be shared between followers
// without any aliasing hazard, plus whether the body carries a
// learned-surrogate estimate (approx results bypass every response
// cache tier).
type parsedRequest struct {
	key [32]byte
	run func() ([]byte, bool, error)
}

// parser decodes and validates the body of one analysis endpoint.
type parser func(endpoint string, body []byte) (*parsedRequest, error)

// flightResult is what one analysis flight produces: the encoded body
// plus whether it came from the shared L2 tier (leader and followers
// alike surface the X-Ascendd-L2 header) and whether it is a surrogate
// estimate (X-Ascendd-Surrogate, never cached).
type flightResult struct {
	body   []byte
	l2     bool
	approx bool
}

// analysis wraps one POST endpoint with the serving mechanisms:
// draining check, body limit, strict parse, per-request timeout,
// coalescing, admission, error envelope and metrics.
func (s *Server) analysis(endpoint string, parse parser) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.inflight.Add(1)
		defer s.inflight.Done()

		if r.Method != http.MethodPost {
			s.writeError(w, endpoint, start, false,
				&apiError{status: http.StatusMethodNotAllowed, code: "bad_request", message: "POST required"})
			return
		}
		if s.draining.Load() {
			s.metrics.observeShed("draining")
			s.writeError(w, endpoint, start, false, errDraining)
			return
		}
		body, err := ReadBody(w, r)
		if err != nil {
			s.writeError(w, endpoint, start, false, badRequest("read body: %v", err))
			return
		}
		if body, err = FoldQuery(endpoint, body, r.URL.Query()); err != nil {
			s.writeError(w, endpoint, start, false, err)
			return
		}
		preq, err := parse(endpoint, body)
		if err != nil {
			s.writeError(w, endpoint, start, false, err)
			return
		}

		key := preq.key
		if cached, ok := s.resp.get(key); ok {
			w.Header().Set("X-Ascendd-Cache", "hit")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusOK)
			w.Write(cached)
			s.metrics.observe(endpoint, http.StatusOK, time.Since(start).Seconds(), false)
			return
		}

		ctx, cancel := context.WithTimeout(r.Context(), s.cfg.Timeout)
		defer cancel()
		val, shared, err := s.flights.Do(ctx, key, func() (any, error) {
			// The flight keeps going when its leader's client drops:
			// followers still wait on it. Its own deadline bounds the
			// admission wait instead.
			ctx, cancel := context.WithTimeout(context.WithoutCancel(ctx), s.cfg.Timeout)
			defer cancel()
			// The L2 lookup lives inside the flight: a burst of identical
			// cold requests pays one shared-cache round trip, and on miss
			// one simulation, then one fill — cluster-wide, when a
			// consistent-hashing router pins the key to this shard.
			if s.cfg.L2 != nil {
				if body, ok := s.cfg.L2.Get(key); ok {
					atomic.AddUint64(&s.live.L2Hits, 1)
					return flightResult{body: body, l2: true}, nil
				}
				atomic.AddUint64(&s.live.L2Misses, 1)
			}
			if err := s.adm.acquire(ctx.Done()); err != nil {
				return nil, err
			}
			defer s.adm.release()
			body, approx, err := preq.run()
			if err != nil {
				return nil, err
			}
			// Surrogate estimates are never written to the shared tier:
			// every cache layer serves exact results only, so a later
			// exact request can never be answered with an approximation.
			if s.cfg.L2 != nil && !approx {
				s.cfg.L2.Put(key, body)
				atomic.AddUint64(&s.live.L2Puts, 1)
			}
			return flightResult{body: body, approx: approx}, nil
		})
		if err != nil {
			if errors.Is(err, errQueueFull) {
				s.metrics.observeShed("queue_full")
			} else if errors.Is(err, errTimeout) || errors.Is(err, context.DeadlineExceeded) {
				s.metrics.observeShed("timeout")
			}
			s.writeError(w, endpoint, start, shared, err)
			return
		}
		res := val.(flightResult)
		if !res.approx {
			s.resp.put(key, res.body)
		}
		if shared {
			w.Header().Set("X-Ascendd-Coalesced", "1")
		}
		if res.l2 {
			w.Header().Set("X-Ascendd-L2", "hit")
		}
		if res.approx {
			w.Header().Set("X-Ascendd-Surrogate", "1")
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusOK)
		w.Write(res.body)
		s.metrics.observe(endpoint, http.StatusOK, time.Since(start).Seconds(), shared)
	}
}

// writeError renders the uniform error envelope and records metrics.
func (s *Server) writeError(w http.ResponseWriter, endpoint string, start time.Time, shared bool, err error) {
	status, code := http.StatusInternalServerError, "internal"
	switch {
	case errors.Is(err, errQueueFull):
		status, code = http.StatusTooManyRequests, "queue_full"
		w.Header().Set("Retry-After", "1")
	case errors.Is(err, errDraining):
		status, code = http.StatusServiceUnavailable, "draining"
		// A draining shard is gone for good as far as this process is
		// concerned: tell clients (and the cluster router) to go
		// elsewhere rather than hammer the retry.
		w.Header().Set("Retry-After", "5")
	case errors.Is(err, errTimeout), errors.Is(err, context.DeadlineExceeded), errors.Is(err, context.Canceled):
		status, code = http.StatusServiceUnavailable, "timeout"
	default:
		var ae *apiError
		if errors.As(err, &ae) {
			status, code = ae.status, ae.code
		}
	}
	atomic.AddUint64(&s.live.Errors, 1)
	body, _ := json.Marshal(errorEnvelope{Error: errorDetail{Code: code, Message: err.Error()}})
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	s.metrics.observe(endpoint, status, time.Since(start).Seconds(), shared)
}

// handleHealthz reports liveness: the process is up and serving HTTP.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports readiness: 200 while accepting work, 503 once
// draining so load balancers stop routing before shutdown.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if s.draining.Load() {
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		return
	}
	fmt.Fprintln(w, "ready")
}

// handleMetrics renders the Prometheus exposition page.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.metrics.Render(s.StatsSnapshot()))
}

// StatsSnapshot returns the machine-readable counterpart of /metrics.
func (s *Server) StatsSnapshot() StatsResponse {
	st := stats.Load(&s.live)
	st.Requests, st.Shed = s.metrics.totals()
	st.CoalesceLeaders, st.CoalesceFollowers = s.flights.Stats()
	st.RespCacheHits, st.RespCacheMisses, st.RespCacheEntries = s.resp.Stats()
	st.InFlight, st.Queued = s.adm.InFlight(), s.adm.Waiting()
	if s.draining.Load() {
		st.Draining = 1
	}
	return StatsResponse{Serve: st, Engine: engine.Stats()}
}

// handleStats serves StatsSnapshot as JSON.
func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.StatsSnapshot())
}

// writeJSON marshals v (indented, for human inspection with curl) and
// writes it with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	body, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(append(body, '\n'))
}
