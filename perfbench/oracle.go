package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"math"
	"reflect"

	"ascendperf/internal/core"
	"ascendperf/internal/critpath"
	"ascendperf/internal/graph"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/opt"
	"ascendperf/internal/profile"
	"ascendperf/internal/serve"
	"ascendperf/internal/sim"
	"ascendperf/internal/trace"
)

// The answer oracle recomputes every expected answer by calling the
// public functions directly on the generator's in-memory input: kernels
// are built with Kernel.Build and inline programs are used as generated
// (never re-parsed), then simulated with sim.RunOpts, skipping the
// engine cache; optimize, model and graph answers come from opt, model
// and graph. It runs outside every timed phase.

// expected is the oracle's answer to one request.
type expected struct {
	// want is the expected response decoded into its serve type (nil for
	// trace, which is compared by digest).
	want any
	// digest is the SHA-256 of the expected trace document.
	digest [32]byte
	// exactNS is the exact simulated makespan of roofline, simulate and
	// trace requests.
	exactNS float64
}

// sum is a digest of the expected answer.
func (e *expected) sum() [32]byte {
	b, _ := json.Marshal(e.want)
	return sha256.Sum256(fmt.Appendf(b, "\x00%x\x00%v", e.digest, e.exactNS))
}

// verdict is the oracle's judgement of one response body.
type verdict struct {
	ok      bool
	approx  bool    // a surrogate estimate (simulate only)
	relErr  float64 // |answer - exact| / exact of total_time_ns (simulate only)
	speedup float64 // initial/final (optimize) or serial/makespan (graph); 0 otherwise
	detail  string  // why a response failed
}

// programFor resolves the program a roofline/simulate/trace request
// names, exactly as the daemon would, without any cache.
func programFor(r *request, chip *hw.Chip) (*isa.Program, error) {
	if r.Prog != nil {
		return r.Prog, nil
	}
	k := kernels.Registry()[r.Op]
	if k == nil {
		return nil, fmt.Errorf("unknown operator %q", r.Op)
	}
	opts := k.Baseline()
	if r.Optimized {
		opts = kernels.FullyOptimized(k)
	}
	return k.Build(chip, opts)
}

// resolveWorkload returns the built-in or inline workload of a
// model/graph request.
func resolveWorkload(r *request) (*model.Model, error) {
	if r.Model == "" {
		return model.ReadWorkloadNamed("request workload", bytes.NewReader(r.Workload))
	}
	for _, m := range model.Extended() {
		if m.Name == r.Model {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown model %q", r.Model)
}

// componentTimes lists a profile's non-idle components as /v1/simulate
// reports them.
func componentTimes(p *profile.Profile) []serve.ComponentTime {
	var out []serve.ComponentTime
	for c := 0; c < int(hw.NumComponents); c++ {
		if p.Busy[c] == 0 && p.InstrCount[c] == 0 {
			continue
		}
		out = append(out, serve.ComponentTime{Component: hw.Component(c).String(), BusyNS: p.Busy[c], Instrs: p.InstrCount[c]})
	}
	return out
}

// normalize round-trips v through JSON into a fresh value of its type,
// so expected and received values compare equal exactly when their
// encodings carry the same content (nil and empty slices alike).
func normalize(v any) (any, error) {
	b, err := json.Marshal(v)
	if err != nil {
		return nil, err
	}
	return decodeAs(reflect.TypeOf(v).Elem(), b)
}

// decodeAs decodes body into a new value of type t and returns the
// pointer.
func decodeAs(t reflect.Type, body []byte) (any, error) {
	ptr := reflect.New(t).Interface()
	if err := json.Unmarshal(body, ptr); err != nil {
		return nil, err
	}
	return ptr, nil
}

// expect computes the expected answer of one request.
func expect(r *request) (*expected, error) {
	chip := chipByName(r.Chip)
	switch r.Endpoint {
	case "roofline", "simulate", "trace":
		prog, err := programFor(r, chip)
		if err != nil {
			return nil, err
		}
		p, err := sim.RunOpts(chip, prog, sim.Options{KeepSpans: r.Endpoint == "trace"})
		if err != nil {
			return nil, err
		}
		e := &expected{exactNS: p.TotalTime}
		switch r.Endpoint {
		case "trace":
			cp, err := critpath.Compute(chip, prog, p)
			if err != nil {
				return nil, err
			}
			var buf bytes.Buffer
			if err := trace.Write(&buf, chip, prog, p, trace.Options{CritPath: cp}); err != nil {
				return nil, err
			}
			e.digest = sha256.Sum256(buf.Bytes())
			return e, nil
		case "simulate":
			e.want, err = normalize(&serve.SimulateResponse{Name: p.Name, Chip: chip.Name, TotalTimeNS: p.TotalTime, Components: componentTimes(p)})
			return e, err
		}
		e.want, err = normalize(rooflineResponse(chip, p))
		return e, err
	case "optimize":
		k := kernels.Registry()[r.Op]
		if k == nil {
			return nil, fmt.Errorf("unknown operator %q", r.Op)
		}
		resp, err := optimizeResponse(chip, k, r)
		if err != nil {
			return nil, err
		}
		want, err := normalize(resp)
		return &expected{want: want}, err
	case "model":
		m, err := resolveWorkload(r)
		if err != nil {
			return nil, err
		}
		runner := model.NewRunner(chip)
		var res *model.RunResult
		if r.TopN == 0 {
			res, err = runner.Run(m)
		} else {
			res, err = runner.OptimizeTop(m, r.TopN)
		}
		if err != nil {
			return nil, err
		}
		want, err := normalize(modelResponse(res))
		return &expected{want: want}, err
	case "graph":
		m, err := resolveWorkload(r)
		if err != nil {
			return nil, err
		}
		s, err := graph.Run(chip, m, graph.Options{Cores: r.Cores})
		if err != nil {
			return nil, err
		}
		want, err := normalize(graph.NewReport(s))
		return &expected{want: want}, err
	}
	return nil, fmt.Errorf("no oracle for endpoint %q", r.Endpoint)
}

// rooflineResponse is the /v1/roofline answer to a profile.
func rooflineResponse(chip *hw.Chip, p *profile.Profile) *serve.RooflineResponse {
	return rooflineFromAnalysis(chip, core.Analyze(p, chip, core.DefaultThresholds()))
}

// rooflineFromAnalysis renders a component-roofline analysis as the
// /v1/roofline answer.
func rooflineFromAnalysis(chip *hw.Chip, a *core.Analysis) *serve.RooflineResponse {
	resp := &serve.RooflineResponse{
		Name: a.Name, Chip: chip.Name, TotalTimeNS: a.TotalTime,
		Cause: a.Cause.String(), CauseAbbrev: a.Cause.Abbrev(),
		MaxUtil: a.MaxUtil, MaxUtilComp: a.MaxUtilComp.String(),
		MaxRatio: a.MaxRatio, MaxRatioComp: a.MaxRatioComp.String(),
		HeadroomX: a.Headroom(),
	}
	switch a.Cause {
	case core.CauseComputeBound, core.CauseMTEBound:
		resp.Bound = a.Bound.String()
	case core.CauseInefficientCompute, core.CauseInefficientMTE:
		resp.Culprit = a.Culprit.String()
	}
	for _, st := range a.Components {
		resp.Components = append(resp.Components, serve.ComponentRoofline{
			Component: st.Comp.String(), Work: st.Work, BusyNS: st.BusyTime, IdealNS: st.IdealTime,
			Actual: st.Actual, Ideal: st.Ideal, Utilization: st.Utilization, TimeRatio: st.TimeRatio,
		})
	}
	return resp
}

// optimizeResponse is the /v1/optimize answer: beam search or the
// advisor loop.
func optimizeResponse(chip *hw.Chip, k kernels.Kernel, r *request) (*serve.OptimizeResponse, error) {
	if r.Search {
		sr, err := opt.New(chip).Search(k, opt.SearchConfig{Beam: r.Beam, Budget: r.Budget})
		if err != nil {
			return nil, err
		}
		return &serve.OptimizeResponse{
			Kernel: sr.Kernel, Chip: chip.Name, InitialTimeNS: sr.BaselineNS, FinalTimeNS: sr.BestNS,
			Speedup: sr.Speedup, Steps: []serve.OptimizeStep{}, Applied: append([]string{}, sr.Strategies...), Search: sr,
		}, nil
	}
	res, err := opt.New(chip).Optimize(k)
	if err != nil {
		return nil, err
	}
	resp := &serve.OptimizeResponse{
		Kernel: res.Kernel, Chip: chip.Name, InitialTimeNS: res.InitialTime, FinalTimeNS: res.FinalTime,
		Speedup: res.Speedup(), InitialCause: res.InitialAnalysis.Cause.String(), FinalCause: res.FinalAnalysis.Cause.String(),
		Applied: []string{},
	}
	for _, st := range res.Steps {
		resp.Steps = append(resp.Steps, serve.OptimizeStep{
			Iteration: st.Iteration, Cause: st.Analysis.Cause.String(), Applied: st.Applied.String(),
			BeforeNS: st.TimeBefore, AfterNS: st.TimeAfter,
		})
		resp.Applied = append(resp.Applied, st.Applied.String())
	}
	return resp, nil
}

// modelResponse is the /v1/model answer to a workload run.
func modelResponse(res *model.RunResult) *serve.ModelResponse {
	dist := func(d model.Distribution) map[string]float64 {
		out := map[string]float64{}
		for _, c := range core.Causes() {
			if v, ok := d[c]; ok {
				out[c.Abbrev()] = v
			}
		}
		return out
	}
	resp := &serve.ModelResponse{
		Model: res.Model.Name, Chip: res.Chip, Operators: len(res.Ops),
		BaselineComputeNS: res.BaselineComputeTime, OptimizedComputeNS: res.OptimizedComputeTime,
		OverheadNS: res.OverheadTime, ComputeSpeedup: res.ComputeSpeedup(), OverallSpeedup: res.OverallSpeedup(),
		BaselineDistribution: dist(res.BaselineDistribution), FinalDistribution: dist(res.OptimizedDistribution),
	}
	for _, op := range res.Ops {
		row := serve.ModelOp{
			Name: op.Name, Count: op.Count, BaselineNS: op.BaselineTime, OptimizedNS: op.OptimizedTime,
			Speedup: op.Speedup(), BaselineCause: op.BaselineCause.String(), FinalCause: op.OptimizedCause.String(),
		}
		for _, st := range op.Applied {
			row.Applied = append(row.Applied, st.String())
		}
		resp.Ops = append(resp.Ops, row)
	}
	return resp
}

// judge compares one 200 response body (trace documents: its digest)
// with the expected answer.
// Simulate answers marked approx pass when their component aggregates
// are exact and their total is finite and positive; their relative
// error is reported.
func judge(r *request, e *expected, body []byte, digest [32]byte) verdict {
	if r.Endpoint == "trace" {
		if digest != e.digest {
			return verdict{detail: "trace document differs from the oracle's"}
		}
		return verdict{ok: true}
	}
	got, err := decodeAs(reflect.TypeOf(e.want).Elem(), body)
	if err != nil {
		return verdict{detail: fmt.Sprintf("decode response: %v", err)}
	}
	v := verdict{ok: true}
	switch g := got.(type) {
	case *serve.SimulateResponse:
		if g.Approx {
			want := *e.want.(*serve.SimulateResponse)
			want.TotalTimeNS, want.Approx = g.TotalTimeNS, true
			if !reflect.DeepEqual(g, &want) || !(g.TotalTimeNS > 0) || math.IsInf(g.TotalTimeNS, 0) {
				return verdict{detail: "approx answer's aggregates are not exact or its total is not finite and positive"}
			}
			return verdict{ok: true, approx: true, relErr: math.Abs(g.TotalTimeNS-e.exactNS) / e.exactNS}
		}
	case *serve.OptimizeResponse:
		v.speedup = g.InitialTimeNS / g.FinalTimeNS
	case *graph.Report:
		v.speedup = g.SerialNS / g.MakespanNS
	}
	if !reflect.DeepEqual(got, e.want) {
		return verdict{detail: "answer differs from the oracle's"}
	}
	return v
}
