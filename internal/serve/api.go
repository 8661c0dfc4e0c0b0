// Package serve exposes the analysis pipeline — simulate, component
// roofline, optimize, trace export, whole-workload runs — as a
// long-running HTTP service (cmd/ascendd). Everything the one-shot CLIs
// compute is reachable as a JSON endpoint layered on internal/engine,
// with three serving mechanisms the CLIs never needed:
//
//   - request coalescing: identical concurrent requests share a single
//     simulation (flightGroup);
//   - admission control: a bounded concurrency/queue gate that sheds
//     overload with 429/503 instead of queuing without bound;
//   - live observability: /metrics (Prometheus text format) exports
//     request counters and latency histograms alongside the engine's
//     cache and scheduler counters, and /v1/stats returns the same as
//     JSON.
//
// The request/response schemas are documented in FORMATS.md §8 and
// locked by a golden-file test.
package serve

import (
	"encoding/json"
	"fmt"
	"net/http"

	"ascendperf/internal/engine"
	"ascendperf/internal/opt"
)

// apiError is an error with an HTTP status and a stable machine code;
// handlers return it to drive the error envelope.
type apiError struct {
	status  int
	code    string
	message string
}

func (e *apiError) Error() string { return e.message }

// badRequest builds a 400 apiError.
func badRequest(format string, args ...any) *apiError {
	return &apiError{status: http.StatusBadRequest, code: "bad_request", message: fmt.Sprintf(format, args...)}
}

// notFound builds a 404 apiError.
func notFound(format string, args ...any) *apiError {
	return &apiError{status: http.StatusNotFound, code: "not_found", message: fmt.Sprintf(format, args...)}
}

// errorEnvelope is the uniform error response body (FORMATS.md §8).
type errorEnvelope struct {
	Error errorDetail `json:"error"`
}

type errorDetail struct {
	// Code is a stable machine-readable identifier: bad_request,
	// not_found, queue_full, draining, timeout, internal.
	Code string `json:"code"`
	// Message is the human-readable detail.
	Message string `json:"message"`
}

// SimulateRequest selects a chip preset and a program to simulate:
// either a library operator (with optional fully-optimized variant) or
// an inline program in the FORMATS.md §4 text format.
type SimulateRequest struct {
	// Chip is a preset name: training, inference or tpu. The service
	// deliberately resolves presets only — it never opens server-side
	// files on behalf of a request.
	Chip string `json:"chip"`
	// Op names a registry operator (mutually exclusive with Program).
	Op string `json:"op,omitempty"`
	// Optimized builds the fully optimized variant instead of the
	// shipped baseline.
	Optimized bool `json:"optimized,omitempty"`
	// Program is an inline program text (FORMATS.md §4), the service
	// form of `ascendprof -asm`.
	Program string `json:"program,omitempty"`
	// DisableHazards turns off spatial-dependency modelling.
	DisableHazards bool `json:"disable_hazards,omitempty"`
}

// ComponentTime is one component's execution summary.
type ComponentTime struct {
	Component string  `json:"component"`
	BusyNS    float64 `json:"busy_ns"`
	Instrs    int     `json:"instrs"`
}

// SimulateResponse summarizes one simulation.
type SimulateResponse struct {
	Name        string          `json:"name"`
	Chip        string          `json:"chip"`
	TotalTimeNS float64         `json:"total_time_ns"`
	Components  []ComponentTime `json:"components"`
	// Approx is set when total_time_ns is a learned-surrogate estimate
	// rather than an exact simulation (ascendd -surrogate). Component
	// aggregates are exact either way. Omitted for exact results, so
	// existing clients and goldens are unaffected.
	Approx bool `json:"approx,omitempty"`
}

// RooflineRequest is SimulateRequest for the analysis endpoint.
type RooflineRequest = SimulateRequest

// ComponentRoofline is one component's roofline statistics (Eqs. 1-9).
type ComponentRoofline struct {
	Component   string  `json:"component"`
	Work        float64 `json:"work"`
	BusyNS      float64 `json:"busy_ns"`
	IdealNS     float64 `json:"ideal_ns"`
	Actual      float64 `json:"actual"`
	Ideal       float64 `json:"ideal"`
	Utilization float64 `json:"utilization"`
	TimeRatio   float64 `json:"time_ratio"`
}

// RooflineResponse is the component-based roofline analysis of one
// simulation.
type RooflineResponse struct {
	Name        string  `json:"name"`
	Chip        string  `json:"chip"`
	TotalTimeNS float64 `json:"total_time_ns"`
	// Cause is the classified bottleneck cause; CauseAbbrev the
	// figure-legend abbreviation (IP, MB, CB, IM, IC, ID).
	Cause       string `json:"cause"`
	CauseAbbrev string `json:"cause_abbrev"`
	// Bound names the bounding component for compute/MTE-bound causes;
	// Culprit the inefficient component for inefficiency causes.
	Bound   string `json:"bound,omitempty"`
	Culprit string `json:"culprit,omitempty"`
	// MaxUtil/MaxRatio are the paper's headline component statistics.
	MaxUtil      float64 `json:"max_util"`
	MaxUtilComp  string  `json:"max_util_component"`
	MaxRatio     float64 `json:"max_ratio"`
	MaxRatioComp string  `json:"max_ratio_component"`
	// HeadroomX is the speed-of-light speedup still available.
	HeadroomX  float64             `json:"headroom_x"`
	Components []ComponentRoofline `json:"components"`
}

// OptimizeRequest runs the advisor-driven optimization loop on one
// operator — or, with Search, the beam search of internal/opt. The
// search fields may also arrive as query parameters
// (?search=1&beam=N&budget=M); the server folds them into the body
// before parsing so the coalescing key covers them.
type OptimizeRequest struct {
	Chip string `json:"chip"`
	Op   string `json:"op"`
	// Search tunes by beam search over the joint strategy × tile space
	// instead of the greedy advisor loop.
	Search bool `json:"search,omitempty"`
	// Beam is the search beam width (0 = default); Budget caps the
	// exact simulations one search may issue (0 = unlimited) — the
	// request's evaluation budget.
	Beam   int `json:"beam,omitempty"`
	Budget int `json:"budget,omitempty"`
}

// OptimizeStep is one accepted loop iteration.
type OptimizeStep struct {
	Iteration int     `json:"iteration"`
	Cause     string  `json:"cause"`
	Applied   string  `json:"applied"`
	BeforeNS  float64 `json:"before_ns"`
	AfterNS   float64 `json:"after_ns"`
}

// OptimizeResponse is the outcome of the optimization loop. In search
// mode the loop fields describe the search outcome (baseline, best,
// winning strategies; no advisor steps or causes) and Search carries
// the full §11 search result.
type OptimizeResponse struct {
	Kernel        string         `json:"kernel"`
	Chip          string         `json:"chip"`
	InitialTimeNS float64        `json:"initial_time_ns"`
	FinalTimeNS   float64        `json:"final_time_ns"`
	Speedup       float64        `json:"speedup"`
	InitialCause  string         `json:"initial_cause"`
	FinalCause    string         `json:"final_cause"`
	Steps         []OptimizeStep `json:"steps"`
	Applied       []string       `json:"applied"`
	// Search is the beam-search result (FORMATS.md §11); set only for
	// search-mode requests.
	Search *opt.SearchResult `json:"search,omitempty"`
}

// TraceRequest exports the Perfetto timeline of one simulation
// (FORMATS.md §6); the response body is the trace document itself.
type TraceRequest = SimulateRequest

// ModelRequest analyzes a whole workload: a built-in Table 2 model by
// name, or an inline workload file (FORMATS.md §3).
type ModelRequest struct {
	Chip string `json:"chip"`
	// Model names a built-in workload (mutually exclusive with
	// Workload).
	Model string `json:"model,omitempty"`
	// Workload is an inline workload JSON document.
	Workload json.RawMessage `json:"workload,omitempty"`
	// TopN optimizes the N longest-running operator types (the paper's
	// prioritization rule); 0 analyzes the shipped baseline only, -1
	// optimizes everything.
	TopN int `json:"top_n,omitempty"`
}

// ModelOp is one operator row of a workload run.
type ModelOp struct {
	Name          string   `json:"name"`
	Count         int      `json:"count"`
	BaselineNS    float64  `json:"baseline_ns"`
	OptimizedNS   float64  `json:"optimized_ns"`
	Speedup       float64  `json:"speedup"`
	BaselineCause string   `json:"baseline_cause"`
	FinalCause    string   `json:"final_cause"`
	Applied       []string `json:"applied,omitempty"`
}

// ModelResponse is the outcome of a workload run.
type ModelResponse struct {
	Model                string             `json:"model"`
	Chip                 string             `json:"chip"`
	Operators            int                `json:"operators"`
	BaselineComputeNS    float64            `json:"baseline_compute_ns"`
	OptimizedComputeNS   float64            `json:"optimized_compute_ns"`
	OverheadNS           float64            `json:"overhead_ns"`
	ComputeSpeedup       float64            `json:"compute_speedup"`
	OverallSpeedup       float64            `json:"overall_speedup"`
	BaselineDistribution map[string]float64 `json:"baseline_distribution"`
	FinalDistribution    map[string]float64 `json:"final_distribution"`
	Ops                  []ModelOp          `json:"ops"`
}

// GraphRequest schedules a whole workload as a dependency graph across
// multiple AICores (FORMATS.md §12); the 200 response body is the
// graph-report/v1 document itself, exactly as `ascendgraph -json`
// emits it.
type GraphRequest struct {
	Chip string `json:"chip"`
	// Model names a built-in workload (mutually exclusive with
	// Workload).
	Model string `json:"model,omitempty"`
	// Workload is an inline workload JSON document (FORMATS.md §3),
	// optionally carrying explicit edges.
	Workload json.RawMessage `json:"workload,omitempty"`
	// Cores is the number of AICores to schedule across (default 4,
	// max 64).
	Cores int `json:"cores,omitempty"`
}

// ServeStats is the serving-layer counter snapshot inside
// StatsResponse. Each field is the one declaration of its counter (see
// internal/stats). The maps are served on /metrics as the labelled
// families ascendd_requests_total{endpoint,code} and
// ascendd_shed_total{reason}; followers per endpoint as
// ascendd_coalesced_total{endpoint}.
type ServeStats struct {
	Requests          map[string]uint64 `json:"requests" kind:"counter" help:"Completed requests per endpoint."`
	Errors            uint64            `json:"errors" metric:"ascendd_errors_total" kind:"counter" help:"Requests answered with status >= 400."`
	CoalesceLeaders   uint64            `json:"coalesce_leaders" metric:"ascendd_coalesce_leaders_total" kind:"counter" help:"Analysis executions started (flight leaders)."`
	CoalesceFollowers uint64            `json:"coalesce_followers" kind:"counter" help:"Requests answered by attaching to an identical in-flight request."`
	RespCacheHits     uint64            `json:"resp_cache_hits" metric:"ascendd_response_cache_hits_total" kind:"counter" help:"Requests answered from the encoded-response LRU."`
	RespCacheMisses   uint64            `json:"resp_cache_misses" metric:"ascendd_response_cache_misses_total" kind:"counter" help:"Requests that had to execute (or join) an analysis."`
	RespCacheEntries  int               `json:"resp_cache_entries" metric:"ascendd_response_cache_entries" kind:"gauge" help:"Encoded responses currently cached."`
	L2Hits            uint64            `json:"l2_hits" metric:"ascendd_l2_cache_hits_total" kind:"counter" help:"Flights answered from the shared L2 cache tier."`
	L2Misses          uint64            `json:"l2_misses" metric:"ascendd_l2_cache_misses_total" kind:"counter" help:"Flights that consulted the L2 tier without an answer."`
	L2Puts            uint64            `json:"l2_puts" metric:"ascendd_l2_cache_puts_total" kind:"counter" help:"Successful fills of the L2 tier."`
	Shed              map[string]uint64 `json:"shed,omitempty" kind:"counter" help:"Requests rejected by admission control, by reason."`
	InFlight          int               `json:"in_flight" metric:"ascendd_inflight_requests" kind:"gauge" help:"Analysis executions currently holding an admission slot."`
	Queued            int64             `json:"queued" metric:"ascendd_queued_requests" kind:"gauge" help:"Flight leaders waiting for an admission slot."`
	Draining          int               `json:"draining" metric:"ascendd_draining" kind:"gauge" help:"Whether the server is draining (1) or serving (0)."`
}

// EngineStats is the engine block of /v1/stats, declared by
// engine.Snapshot.
type EngineStats = engine.Snapshot

// StatsResponse is the /v1/stats payload: the serving counters plus the
// engine.Stats() snapshot.
type StatsResponse struct {
	Serve  ServeStats  `json:"serve"`
	Engine EngineStats `json:"engine"`
}
