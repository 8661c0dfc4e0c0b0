package serve

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"hash"
	"io"
	"net/http"
	"sort"

	"ascendperf/internal/core"
	"ascendperf/internal/critpath"
	"ascendperf/internal/engine"
	"ascendperf/internal/graph"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/opt"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
	"ascendperf/internal/trace"
)

// chipPresets maps the names the service accepts to one shared chip
// each. The service resolves presets only — unlike the CLIs it never
// opens server-side files from request input. Every request on a preset
// gets the same pointer, which hw.Chip's immutability makes safe, so
// the per-chip memos (engine chip fingerprints, simulator chip tables)
// hit across requests instead of filling up with equal copies.
var chipPresets = map[string]*hw.Chip{
	"training":  hw.TrainingChip(),
	"inference": hw.InferenceChip(),
	"tpu":       hw.TPUStyleChip(),
}

// chipByPreset resolves a preset name, defaulting to training.
func chipByPreset(name string) (*hw.Chip, error) {
	if name == "" {
		name = "training"
	}
	chip, ok := chipPresets[name]
	if !ok {
		return nil, notFound("unknown chip %q (presets: inference, tpu, training)", name)
	}
	return chip, nil
}

// decodeStrict unmarshals body into v rejecting unknown fields, so a
// typoed request field fails loudly instead of silently analyzing the
// wrong thing.
func decodeStrict(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return badRequest("decode request: %v", err)
	}
	// A second document in the body is almost certainly a client bug,
	// and so is any other trailing byte but whitespace (dec.More alone
	// would let a stray ']' or '}' through).
	if len(bytes.TrimLeft(body[dec.InputOffset():], " \t\r\n")) > 0 {
		return badRequest("decode request: trailing data after JSON document")
	}
	return nil
}

// requestKey digests the canonical form of a decoded request: SHA-256
// of endpoint + "\x00" + the request re-marshalled as compact JSON
// (FORMATS.md §9.2). Two requests differing only in field order,
// whitespace or escaping get the same key. The JSON streams into the
// hash from encoding/json's pooled buffer, so no copy of a large inline
// program is built or kept; the flight map, the response LRU, the ring
// and the L2 tier all use this one digest.
func requestKey(endpoint string, canon any) [32]byte {
	h := sha256.New()
	io.WriteString(h, endpoint)
	h.Write([]byte{0})
	// A value decoded by encoding/json always re-encodes, so the error
	// is not checked.
	json.NewEncoder(hashJSON{h}).Encode(canon)
	var key [32]byte
	h.Sum(key[:0])
	return key
}

// hashJSON feeds a json.Encoder's output to a hash without the newline
// Encode appends. Compact JSON holds no raw newline byte, so trimming
// one from the end of each write drops exactly that one.
type hashJSON struct{ h hash.Hash }

func (w hashJSON) Write(p []byte) (int, error) {
	w.h.Write(bytes.TrimSuffix(p, []byte{'\n'}))
	return len(p), nil
}

// buildProgram resolves the (chip, program) pair of a SimulateRequest.
func buildProgram(chip *hw.Chip, req SimulateRequest) (*isa.Program, error) {
	switch {
	case req.Op != "" && req.Program != "":
		return nil, badRequest("op and program are mutually exclusive")
	case req.Op == "" && req.Program == "":
		return nil, badRequest("one of op or program is required")
	case req.Op != "":
		k := kernels.Registry()[req.Op]
		if k == nil {
			return nil, notFound("unknown operator %q (GET /v1/ops lists them)", req.Op)
		}
		opts := k.Baseline()
		if req.Optimized {
			opts = kernels.FullyOptimized(k)
		}
		prog, err := k.Build(chip, opts)
		if err != nil {
			return nil, badRequest("build %s: %v", req.Op, err)
		}
		return prog, nil
	default:
		prog, err := isa.ParseString("request", req.Program)
		if err != nil {
			return nil, badRequest("parse program: %v", err)
		}
		if err := prog.Validate(chip); err != nil {
			return nil, badRequest("validate program: %v", err)
		}
		return prog, nil
	}
}

// simulateFor runs the (cached, coalesced) simulation of a request.
func simulateFor(chip *hw.Chip, req SimulateRequest, keepSpans bool) (*isa.Program, *profile.Profile, error) {
	prog, err := buildProgram(chip, req)
	if err != nil {
		return nil, nil, err
	}
	p, err := engine.Simulate(chip, prog, sim.Options{DisableHazards: req.DisableHazards, KeepSpans: keepSpans})
	if err != nil {
		return nil, nil, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
	}
	return prog, p, nil
}

// encode marshals a response body in the indented form every endpoint
// uses (and the golden file locks).
func encode(v any) ([]byte, error) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// simulateParser returns the parser of an endpoint that takes a
// SimulateRequest (simulate, roofline and trace): one decoder gives the
// request and its key, and run answers it on the resolved chip preset.
func simulateParser(run func(chip *hw.Chip, req SimulateRequest) ([]byte, bool, error)) parser {
	return func(endpoint string, body []byte) (*parsedRequest, error) {
		req, key, err := decodeSimulateRequest(endpoint, body)
		if err != nil {
			return nil, err
		}
		return &parsedRequest{
			key: key,
			run: func() ([]byte, bool, error) {
				chip, err := chipByPreset(req.Chip)
				if err != nil {
					return nil, false, err
				}
				return run(chip, req)
			},
		}, nil
	}
}

// runSimulate answers POST /v1/simulate.
func runSimulate(chip *hw.Chip, req SimulateRequest) ([]byte, bool, error) {
	prog, err := buildProgram(chip, req)
	if err != nil {
		return nil, false, err
	}
	// Simulate is the one surrogate-eligible endpoint: a configured
	// predictor may answer with a learned estimate (p.Approx) instead of
	// an exact simulation. Approx bodies bypass the response and L2
	// caches upstream.
	p, err := engine.SimulateApprox(chip, prog, sim.Options{DisableHazards: req.DisableHazards})
	if err != nil {
		return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
	}
	resp := SimulateResponse{Name: p.Name, Chip: chip.Name, TotalTimeNS: p.TotalTime, Approx: p.Approx}
	for c := 0; c < int(hw.NumComponents); c++ {
		if p.Busy[c] == 0 && p.InstrCount[c] == 0 {
			continue
		}
		resp.Components = append(resp.Components, ComponentTime{
			Component: hw.Component(c).String(),
			BusyNS:    p.Busy[c],
			Instrs:    p.InstrCount[c],
		})
	}
	b, err := encode(resp)
	return b, p.Approx, err
}

// runRoofline answers POST /v1/roofline.
func runRoofline(chip *hw.Chip, req RooflineRequest) ([]byte, bool, error) {
	_, p, err := simulateFor(chip, req, false)
	if err != nil {
		return nil, false, err
	}
	a := core.Analyze(p, chip, core.DefaultThresholds())
	resp := RooflineResponse{
		Name:         a.Name,
		Chip:         chip.Name,
		TotalTimeNS:  a.TotalTime,
		Cause:        a.Cause.String(),
		CauseAbbrev:  a.Cause.Abbrev(),
		MaxUtil:      a.MaxUtil,
		MaxUtilComp:  a.MaxUtilComp.String(),
		MaxRatio:     a.MaxRatio,
		MaxRatioComp: a.MaxRatioComp.String(),
		HeadroomX:    a.Headroom(),
	}
	switch a.Cause {
	case core.CauseComputeBound, core.CauseMTEBound:
		resp.Bound = a.Bound.String()
	case core.CauseInefficientCompute, core.CauseInefficientMTE:
		resp.Culprit = a.Culprit.String()
	}
	for _, st := range a.Components {
		resp.Components = append(resp.Components, ComponentRoofline{
			Component:   st.Comp.String(),
			Work:        st.Work,
			BusyNS:      st.BusyTime,
			IdealNS:     st.IdealTime,
			Actual:      st.Actual,
			Ideal:       st.Ideal,
			Utilization: st.Utilization,
			TimeRatio:   st.TimeRatio,
		})
	}
	b, err := encode(resp)
	return b, false, err
}

// parseOptimize handles POST /v1/optimize.
func parseOptimize(endpoint string, body []byte) (*parsedRequest, error) {
	var req OptimizeRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	if req.Op == "" {
		return nil, badRequest("op is required")
	}
	return &parsedRequest{
		key: requestKey(endpoint, req),
		run: func() ([]byte, bool, error) {
			chip, err := chipByPreset(req.Chip)
			if err != nil {
				return nil, false, err
			}
			k := kernels.Registry()[req.Op]
			if k == nil {
				return nil, false, notFound("unknown operator %q (GET /v1/ops lists them)", req.Op)
			}
			if req.Search {
				sr, err := opt.New(chip).Search(k, opt.SearchConfig{Beam: req.Beam, Budget: req.Budget})
				if err != nil {
					return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
				}
				resp := OptimizeResponse{
					Kernel:        sr.Kernel,
					Chip:          chip.Name,
					InitialTimeNS: sr.BaselineNS,
					FinalTimeNS:   sr.BestNS,
					Speedup:       sr.Speedup,
					Steps:         []OptimizeStep{},
					Applied:       append([]string{}, sr.Strategies...),
					Search:        sr,
				}
				b, err := encode(resp)
				return b, false, err
			}
			res, err := opt.New(chip).Optimize(k)
			if err != nil {
				return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
			}
			resp := OptimizeResponse{
				Kernel:        res.Kernel,
				Chip:          chip.Name,
				InitialTimeNS: res.InitialTime,
				FinalTimeNS:   res.FinalTime,
				Speedup:       res.Speedup(),
				InitialCause:  res.InitialAnalysis.Cause.String(),
				FinalCause:    res.FinalAnalysis.Cause.String(),
				Applied:       []string{},
			}
			for _, st := range res.Steps {
				resp.Steps = append(resp.Steps, OptimizeStep{
					Iteration: st.Iteration,
					Cause:     st.Analysis.Cause.String(),
					Applied:   st.Applied.String(),
					BeforeNS:  st.TimeBefore,
					AfterNS:   st.TimeAfter,
				})
				resp.Applied = append(resp.Applied, st.Applied.String())
			}
			b, err := encode(resp)
			return b, false, err
		},
	}, nil
}

// runTrace answers POST /v1/trace: the body of a 200 response is the
// FORMATS.md §6 Perfetto trace document with the critical path
// highlighted, ready to load in chrome://tracing.
func runTrace(chip *hw.Chip, req TraceRequest) ([]byte, bool, error) {
	prog, p, err := simulateFor(chip, req, true)
	if err != nil {
		return nil, false, err
	}
	cp, err := critpath.Compute(chip, prog, p)
	if err != nil {
		return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
	}
	body, err := trace.Append(nil, chip, prog, p, trace.Options{CritPath: cp})
	if err != nil {
		return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
	}
	return body, false, nil
}

// parseModel handles POST /v1/model: a whole-workload run, the service
// form of `ascendopt -model` / `-workload`.
func parseModel(endpoint string, body []byte) (*parsedRequest, error) {
	var req ModelRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	switch {
	case req.Model != "" && len(req.Workload) > 0:
		return nil, badRequest("model and workload are mutually exclusive")
	case req.Model == "" && len(req.Workload) == 0:
		return nil, badRequest("one of model or workload is required")
	}
	return &parsedRequest{
		key: requestKey(endpoint, req),
		run: func() ([]byte, bool, error) {
			chip, err := chipByPreset(req.Chip)
			if err != nil {
				return nil, false, err
			}
			m, err := resolveModel(req.Model, req.Workload)
			if err != nil {
				return nil, false, err
			}
			r := model.NewRunner(chip)
			var res *model.RunResult
			switch {
			case req.TopN < 0:
				res, err = r.Optimize(m)
			case req.TopN == 0:
				res, err = r.Run(m)
			default:
				res, err = r.OptimizeTop(m, req.TopN)
			}
			if err != nil {
				return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
			}
			resp := ModelResponse{
				Model:                res.Model.Name,
				Chip:                 res.Chip,
				Operators:            len(res.Ops),
				BaselineComputeNS:    res.BaselineComputeTime,
				OptimizedComputeNS:   res.OptimizedComputeTime,
				OverheadNS:           res.OverheadTime,
				ComputeSpeedup:       res.ComputeSpeedup(),
				OverallSpeedup:       res.OverallSpeedup(),
				BaselineDistribution: distributionJSON(res.BaselineDistribution),
				FinalDistribution:    distributionJSON(res.OptimizedDistribution),
			}
			for _, op := range res.Ops {
				row := ModelOp{
					Name:          op.Name,
					Count:         op.Count,
					BaselineNS:    op.BaselineTime,
					OptimizedNS:   op.OptimizedTime,
					Speedup:       op.Speedup(),
					BaselineCause: op.BaselineCause.String(),
					FinalCause:    op.OptimizedCause.String(),
				}
				for _, st := range op.Applied {
					row.Applied = append(row.Applied, st.String())
				}
				resp.Ops = append(resp.Ops, row)
			}
			b, err := encode(resp)
			return b, false, err
		},
	}, nil
}

// resolveModel looks up a built-in workload by name or parses an
// inline one — the shared (model, workload) half of the model and
// graph endpoints.
func resolveModel(name string, workload json.RawMessage) (*model.Model, error) {
	if name != "" {
		for _, cand := range model.Extended() {
			if cand.Name == name {
				return cand, nil
			}
		}
		return nil, notFound("unknown model %q (GET /v1/models lists them)", name)
	}
	m, err := model.ReadWorkloadNamed("request workload", bytes.NewReader(workload))
	if err != nil {
		return nil, badRequest("%v", err)
	}
	return m, nil
}

// parseGraph handles POST /v1/graph: whole-graph multi-core
// scheduling, the service form of `ascendgraph -json`. The 200
// response body is the graph-report/v1 document (FORMATS.md §12).
func parseGraph(endpoint string, body []byte) (*parsedRequest, error) {
	var req GraphRequest
	if err := decodeStrict(body, &req); err != nil {
		return nil, err
	}
	switch {
	case req.Model != "" && len(req.Workload) > 0:
		return nil, badRequest("model and workload are mutually exclusive")
	case req.Model == "" && len(req.Workload) == 0:
		return nil, badRequest("one of model or workload is required")
	case req.Cores < 0 || req.Cores > 64:
		return nil, badRequest("cores must be in 1..64 (got %d)", req.Cores)
	}
	if req.Cores == 0 {
		req.Cores = 4
	}
	return &parsedRequest{
		key: requestKey(endpoint, req),
		run: func() ([]byte, bool, error) {
			chip, err := chipByPreset(req.Chip)
			if err != nil {
				return nil, false, err
			}
			m, err := resolveModel(req.Model, req.Workload)
			if err != nil {
				return nil, false, err
			}
			s, err := graph.Run(chip, m, graph.Options{Cores: req.Cores})
			if err != nil {
				return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
			}
			var buf bytes.Buffer
			if err := graph.NewReport(s).WriteJSON(&buf); err != nil {
				return nil, false, &apiError{status: http.StatusInternalServerError, code: "internal", message: err.Error()}
			}
			return buf.Bytes(), false, nil
		},
	}, nil
}

// analysisParsers maps analysis endpoint names to their request
// parsers. New registers each as a POST handler under /v1/<name>, and
// CanonicalKey dispatches through the same table, so a cluster router
// canonicalizes request bodies exactly as the shard it routes them to.
var analysisParsers = map[string]parser{
	"simulate": simulateParser(runSimulate),
	"roofline": simulateParser(runRoofline),
	"optimize": parseOptimize,
	"trace":    simulateParser(runTrace),
	"model":    parseModel,
	"graph":    parseGraph,
}

// distributionJSON keys a cause histogram by figure-legend abbreviation.
func distributionJSON(d model.Distribution) map[string]float64 {
	out := make(map[string]float64, len(d))
	for _, c := range core.Causes() {
		if v, ok := d[c]; ok {
			out[c.Abbrev()] = v
		}
	}
	return out
}

// handleOps lists the registry operators.
func (s *Server) handleOps(w http.ResponseWriter, _ *http.Request) {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	writeJSON(w, http.StatusOK, map[string]any{"ops": names})
}

// handleModels lists the built-in workloads: the Table 2 set plus the
// extended (inference) workloads.
func (s *Server) handleModels(w http.ResponseWriter, _ *http.Request) {
	var names []string
	for _, m := range model.Extended() {
		names = append(names, m.Name)
	}
	writeJSON(w, http.StatusOK, map[string]any{"models": names})
}

// handleChips lists the chip presets.
func (s *Server) handleChips(w http.ResponseWriter, _ *http.Request) {
	names := sortedKeys(chipPresets)
	writeJSON(w, http.StatusOK, map[string]any{"chips": names})
}
