package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"ascendperf/internal/cluster"
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
	"ascendperf/internal/serve"
	"ascendperf/internal/sim"
	"ascendperf/internal/surrogate"
	"ascendperf/internal/trace"
)

// The traced run replays a sample of the workload's requests in this
// process, calling each layer's public functions in the order the
// daemon's handler does, with a span around every call. Spans stay in
// memory and are written at the end as a Chrome-trace file Perfetto
// loads. A layer's self time is its span minus the time its child spans
// cover. Layers the sample does not reach, and the hit paths a replay
// cannot show (response cache, router hop, engine cache), are measured
// by small probes on the same sample.

// span is one timed layer call.
type span struct {
	name       string
	start, end time.Duration // since the replay began
	parent     int           // index of the enclosing span, -1 for a request root
	req        int           // request id shared by a request's spans
	instrs     int           // program size, for per-instruction rates
}

// tracer records spans when on; off, it only runs the calls.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
	req   int
}

// span runs fn inside a span named name.
func (t *tracer) span(name string, fn func() error) error {
	if !t.on {
		return fn()
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	idx := len(t.spans)
	t.spans = append(t.spans, span{name: name, start: time.Since(t.t0), parent: parent, req: t.req})
	t.stack = append(t.stack, idx)
	err := fn()
	t.spans[idx].end = time.Since(t.t0)
	t.stack = t.stack[:len(t.stack)-1]
	return err
}

// setInstrs annotates the innermost open span with a program size.
func (t *tracer) setInstrs(n int) {
	if t.on && len(t.stack) > 0 {
		t.spans[t.stack[len(t.stack)-1]].instrs = n
	}
}

// replayOne runs one request through the layers.
func replayOne(t *tracer, r *request) error {
	return t.span("request/"+r.Endpoint, func() error {
		if err := t.span("serve.CanonicalKey", func() (err error) {
			_, err = serve.CanonicalKey(r.Endpoint, r.Body)
			return err
		}); err != nil {
			return err
		}
		var chip *hw.Chip
		var out any
		var err error
		switch r.Endpoint {
		case "roofline", "simulate", "trace":
			var req serve.SimulateRequest
			t.span("serve.decode", func() error { chip = chipByName(r.Chip); return json.Unmarshal(r.Body, &req) })
			var prog *isa.Program
			if req.Op != "" {
				err = t.span("kernels.Build", func() (err error) {
					k := kernels.Registry()[req.Op]
					opts := k.Baseline()
					if req.Optimized {
						opts = kernels.FullyOptimized(k)
					}
					prog, err = k.Build(chip, opts)
					return err
				})
			} else {
				err = t.span("isa.Parse", func() (err error) {
					if prog, err = isa.Parse("request", strings.NewReader(req.Program)); err != nil {
						return err
					}
					t.setInstrs(prog.Len())
					return prog.Validate(chip)
				})
			}
			if err != nil {
				return err
			}
			var p *profile.Profile
			switch r.Endpoint {
			case "roofline":
				err = t.span("engine.Simulate", func() (err error) { p, err = engine.Simulate(chip, prog, sim.Options{}); return err })
				if err == nil {
					var a *core.Analysis
					t.span("core.Analyze", func() error { a = core.Analyze(p, chip, core.DefaultThresholds()); return nil })
					out = rooflineFromAnalysis(chip, a)
				}
			case "simulate":
				err = t.span("engine.SimulateApprox", func() (err error) { p, err = engine.SimulateApprox(chip, prog, sim.Options{}); return err })
				if err == nil {
					out = &serve.SimulateResponse{Name: p.Name, Chip: chip.Name, TotalTimeNS: p.TotalTime, Components: componentTimes(p), Approx: p.Approx}
				}
			case "trace":
				err = t.span("engine.Simulate", func() (err error) { p, err = engine.Simulate(chip, prog, sim.Options{KeepSpans: true}); return err })
				if err == nil {
					return t.span("trace.export", func() error {
						cp, err := critpath.Compute(chip, prog, p)
						if err != nil {
							return err
						}
						return trace.Write(io.Discard, chip, prog, p, trace.Options{CritPath: cp})
					})
				}
			}
		case "optimize":
			var req serve.OptimizeRequest
			t.span("serve.decode", func() error { chip = chipByName(r.Chip); return json.Unmarshal(r.Body, &req) })
			k := kernels.Registry()[req.Op]
			if req.Search {
				err = t.span("opt.Search", func() (err error) {
					out, err = opt.New(chip).Search(k, opt.SearchConfig{Beam: req.Beam, Budget: req.Budget})
					return err
				})
			} else {
				err = t.span("opt.Optimize", func() (err error) {
					var res *opt.Result
					res, err = opt.New(chip).Optimize(k)
					if err == nil {
						out = res.Summary()
					}
					return err
				})
			}
		case "model", "graph":
			var m *model.Model
			t.span("serve.decode", func() error { chip = chipByName(r.Chip); return nil })
			if r.Model != "" {
				m, err = resolveWorkload(r)
			} else {
				err = t.span("model.ReadWorkload", func() (err error) { m, err = resolveWorkload(r); return err })
			}
			if err != nil {
				return err
			}
			if r.Endpoint == "graph" {
				var s *graph.Schedule
				if err := t.span("graph.Run", func() (err error) { s, err = graph.Run(chip, m, graph.Options{Cores: r.Cores}); return err }); err != nil {
					return err
				}
				return t.span("graph.Report", func() error { return graph.NewReport(s).WriteJSON(io.Discard) })
			}
			name := "model.Run"
			if r.TopN > 0 {
				name = "model.OptimizeTop"
			}
			err = t.span(name, func() (err error) {
				var res *model.RunResult
				runner := model.NewRunner(chip)
				if r.TopN > 0 {
					res, err = runner.OptimizeTop(m, r.TopN)
				} else {
					res, err = runner.Run(m)
				}
				if err == nil {
					out = modelResponse(res)
				}
				return err
			})
		}
		if err != nil || out == nil {
			return err
		}
		return t.span("serve.encode", func() error { _, err := json.MarshalIndent(out, "", "  "); return err })
	})
}

// replay runs the sample once with fresh engine caches, from a freshly
// collected heap, and returns its wall time.
func replay(t *tracer, sample []request) (time.Duration, error) {
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	runtime.GC()
	t.t0 = time.Now()
	for i := range sample {
		t.req = i
		if err := replayOne(t, &sample[i]); err != nil {
			return 0, fmt.Errorf("replay request %d (%s): %w", i, sample[i].Endpoint, err)
		}
	}
	return time.Since(t.t0), nil
}

// layerStat aggregates one span name.
type layerStat struct {
	name        string
	count       int
	total, self time.Duration
	durs        []float64 // µs
	instrs      int
}

// selfTimes aggregates spans by name; roots (whole requests) keep only
// the glue between their layer calls as self time.
func selfTimes(spans []span) map[string]*layerStat {
	covered := make([]time.Duration, len(spans))
	for _, s := range spans {
		if s.parent >= 0 {
			covered[s.parent] += s.end - s.start
		}
	}
	out := map[string]*layerStat{}
	for i, s := range spans {
		st := out[s.name]
		if st == nil {
			st = &layerStat{name: s.name}
			out[s.name] = st
		}
		d := s.end - s.start
		st.count++
		st.total += d
		st.self += d - covered[i]
		st.durs = append(st.durs, float64(d)/1e3)
		st.instrs += s.instrs
	}
	return out
}

// writeChromeTrace writes spans as a Chrome-trace document.
func writeChromeTrace(path string, spans []span) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		TS   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		PID  int            `json:"pid"`
		TID  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	events := make([]event, 0, len(spans))
	for _, s := range spans {
		parent := ""
		if s.parent >= 0 {
			parent = spans[s.parent].name
		}
		cat, _, _ := strings.Cut(s.name, ".")
		events = append(events, event{Name: s.name, Cat: cat, Ph: "X",
			TS: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, PID: 1, TID: 1,
			Args: map[string]any{"request": s.req, "parent": parent}})
	}
	b, err := json.Marshal(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedRun is the outcome of the traced replay.
type tracedRun struct {
	layers   map[string]*layerStat
	wall     time.Duration
	coverage float64
	overhead float64
	file     string
}

// minCoverage is the share of the replay's wall time the layers' self
// times must cover; below it, the per-layer split misses too much.
const minCoverage = 0.90

// overheadPairs is the number of traced/untraced replay pairs the
// overhead is the median over.
const overheadPairs = 5

// runTraced replays the sample: one untimed pass, then overheadPairs
// pairs of one traced and one untraced pass, in the order traced,
// untraced, untraced, traced, ..., so that a drift in the machine's
// speed favours neither side. Overhead is the median over pairs of
// traced wall ÷ untraced wall − 1. Coverage is the last traced pass's
// layer self time over that pass's wall time, as replay measured it; a
// run below minCoverage fails.
func runTraced(cfg *config, sample []request) (*tracedRun, error) {
	if _, err := replay(&tracer{}, sample); err != nil {
		return nil, err
	}
	var on, off [overheadPairs]time.Duration
	var last *tracer
	for pass := 0; pass < 2*overheadPairs; pass++ {
		t := &tracer{on: pass%4 == 0 || pass%4 == 3}
		wall, err := replay(t, sample)
		if err != nil {
			return nil, err
		}
		if t.on {
			on[pass/2], last = wall, t
		} else {
			off[pass/2] = wall
		}
	}
	ratios := make([]float64, overheadPairs)
	for i := range ratios {
		ratios[i] = float64(on[i]) / float64(off[i])
	}
	lastWall := on[overheadPairs-1]
	tr := &tracedRun{layers: selfTimes(last.spans), wall: lastWall, overhead: median(ratios) - 1}
	var layerSelf time.Duration
	for _, st := range tr.layers {
		if !strings.HasPrefix(st.name, "request/") {
			layerSelf += st.self
		}
	}
	tr.coverage = ratio(float64(layerSelf), float64(lastWall))
	if tr.coverage < minCoverage {
		return nil, fmt.Errorf("tracing.coverage %.4f: layer self time covers less than %.2f of the replay wall", tr.coverage, minCoverage)
	}
	tr.file = filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload.name, cfg.seed))
	if err := writeChromeTrace(tr.file, last.spans); err != nil {
		return nil, err
	}
	return tr, nil
}

// meanUS is the mean duration of a span name in µs, or 0 when absent.
func (tr *tracedRun) meanUS(name string) float64 {
	st := tr.layers[name]
	if st == nil {
		return 0
	}
	return float64(st.total) / float64(st.count) / 1e3
}

// probePrograms returns the sample's programs, or, when the sample has
// none, the baseline programs of eight seeded registry operators.
func probePrograms(seed int64, sample []request) ([]*hw.Chip, []*isa.Program, error) {
	var chips []*hw.Chip
	var progs []*isa.Program
	for i := range sample {
		r := &sample[i]
		if r.Endpoint == "optimize" || r.Prog == nil && r.Op == "" {
			continue
		}
		chip := chipByName(r.Chip)
		p, err := programFor(r, chip)
		if err != nil {
			return nil, nil, err
		}
		chips, progs = append(chips, chip), append(progs, p)
		if len(progs) == 16 {
			break
		}
	}
	if len(progs) > 0 {
		return chips, progs, nil
	}
	ops := registryOps()
	rng := rand.New(rand.NewSource(seed))
	for i, j := range rng.Perm(len(ops))[:8] {
		chip := chipByName(chipNames[i%len(chipNames)])
		k := kernels.Registry()[ops[j]]
		p, err := k.Build(chip, k.Baseline())
		if err != nil {
			return nil, nil, err
		}
		chips, progs = append(chips, chip), append(progs, p)
	}
	return chips, progs, nil
}

// timeIt returns fn's duration in µs.
func timeIt(fn func() error) (float64, error) {
	t0 := time.Now()
	err := fn()
	return float64(time.Since(t0)) / 1e3, err
}

// runProbes measures the hit paths and the layers the replay did not
// reach, and takes the rest from the replay. It returns per-layer metric
// values and where each came from.
func runProbes(cfg *config, sample []request, tr *tracedRun) (vals map[string]float64, sources map[string]string, err error) {
	vals, sources = map[string]float64{}, map[string]string{}
	chips, progs, err := probePrograms(cfg.seed, sample)
	if err != nil {
		return nil, nil, err
	}
	// Simulator speed and allocations.
	var instrs int
	var simUS float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	for i, p := range progs {
		us, err := timeIt(func() error { _, err := sim.RunOpts(chips[i], p, sim.Options{}); return err })
		if err != nil {
			return nil, nil, err
		}
		simUS += us
		instrs += p.Len()
	}
	runtime.ReadMemStats(&ms1)
	vals["sim.ns_per_instr"] = simUS * 1e3 / float64(instrs)
	vals["sim.allocs_per_run"] = float64(ms1.Mallocs-ms0.Mallocs) / float64(len(progs))

	// Engine cache hit.
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	var hits []float64
	for i, p := range progs {
		if _, err := engine.Simulate(chips[i], p, sim.Options{}); err != nil {
			return nil, nil, err
		}
		for j := 0; j < 5; j++ {
			us, _ := timeIt(func() error { _, err := engine.Simulate(chips[i], p, sim.Options{}); return err })
			hits = append(hits, us)
		}
	}
	vals["engine.hit_us"] = median(hits)

	// Surrogate predict on a cold predictor (static analysis included,
	// as a novel request pays it).
	m, err := surrogate.LoadModel(cfg.surrogatePath)
	if err != nil {
		return nil, nil, err
	}
	pred := surrogate.NewPredictor(m, "")
	var predUS []float64
	for i, p := range progs {
		us, _ := timeIt(func() error { pred.Predict(chips[i], p, sim.Options{}); return nil })
		predUS = append(predUS, us)
	}
	vals["surrogate.predict_us"] = mean(predUS)

	// Layers the replay reached keep its numbers; the rest are probed.
	fromReplay := func(metric, span string, probe func() (float64, error)) (err error) {
		if v := tr.meanUS(span); v > 0 {
			vals[metric], sources[metric] = v, "replay"
			return nil
		}
		vals[metric], err = probe()
		sources[metric] = "probe"
		return err
	}
	chip, prog := chips[0], progs[0]
	if st := tr.layers["isa.Parse"]; st != nil && st.instrs > 0 {
		vals["isa.parse_us_per_kinstr"] = float64(st.total) / 1e3 / float64(st.instrs) * 1000
		sources["isa.parse_us_per_kinstr"] = "replay"
	} else {
		var us float64
		var n int
		for i, p := range progs {
			text := p.Disassemble()
			d, err := timeIt(func() error {
				q, err := isa.Parse("request", strings.NewReader(text))
				if err != nil {
					return err
				}
				return q.Validate(chips[i])
			})
			if err != nil {
				return nil, nil, err
			}
			us, n = us+d, n+p.Len()
		}
		vals["isa.parse_us_per_kinstr"] = us / float64(n) * 1000
		sources["isa.parse_us_per_kinstr"] = "probe"
	}
	ops := registryOps()
	n := int64(len(ops))
	k := kernels.Registry()[ops[(cfg.seed%n+n)%n]]
	if err := fromReplay("kernels.build_us", "kernels.Build", func() (float64, error) {
		return timeIt(func() error { _, err := k.Build(chip, k.Baseline()); return err })
	}); err != nil {
		return nil, nil, err
	}
	prof, err := sim.RunOpts(chip, prog, sim.Options{KeepSpans: true})
	if err != nil {
		return nil, nil, err
	}
	if err := fromReplay("core.analyze_us", "core.Analyze", func() (float64, error) {
		return timeIt(func() error { core.Analyze(prof, chip, core.DefaultThresholds()); return nil })
	}); err != nil {
		return nil, nil, err
	}
	if err := fromReplay("trace.export_us", "trace.export", func() (float64, error) {
		return timeIt(func() error {
			cp, err := critpath.Compute(chip, prog, prof)
			if err != nil {
				return err
			}
			return trace.Write(io.Discard, chip, prog, prof, trace.Options{CritPath: cp})
		})
	}); err != nil {
		return nil, nil, err
	}
	if err := fromReplay("opt.search_us", "opt.Search", func() (float64, error) {
		return timeIt(func() error { _, err := opt.New(chip).Search(k, opt.SearchConfig{}); return err })
	}); err != nil {
		return nil, nil, err
	}
	if err := fromReplay("opt.optimize_us", "opt.Optimize", func() (float64, error) {
		return timeIt(func() error { _, err := opt.New(chip).Optimize(k); return err })
	}); err != nil {
		return nil, nil, err
	}
	synth := tuneRequest(cfg.seed, 1) // a seeded synthetic workload
	wm, err := resolveWorkload(&synth)
	if err != nil {
		return nil, nil, err
	}
	if err := fromReplay("model.optimize_top_us", "model.OptimizeTop", func() (float64, error) {
		return timeIt(func() error { _, err := model.NewRunner(chip).OptimizeTop(wm, 3); return err })
	}); err != nil {
		return nil, nil, err
	}
	if err := fromReplay("graph.schedule_us", "graph.Run", func() (float64, error) {
		return timeIt(func() error { _, err := graph.Run(chip, wm, graph.Options{Cores: 4}); return err })
	}); err != nil {
		return nil, nil, err
	}

	// Response-cache hits and the router hop, over loopback HTTP.
	if vals["serve.hit_us"], vals["cluster.router_hop_us"], err = probeServing(sample); err != nil {
		return nil, nil, err
	}
	for _, k := range []string{"sim.ns_per_instr", "sim.allocs_per_run", "engine.hit_us", "surrogate.predict_us", "serve.hit_us", "cluster.router_hop_us"} {
		sources[k] = "probe"
	}
	return vals, sources, nil
}

// cacheableSample picks up to n sample requests whose answers the
// response cache keeps (surrogate estimates are never cached).
func cacheableSample(sample []request, n int) []request {
	var out []request
	seen := map[string]bool{}
	for _, r := range sample {
		if r.Endpoint == "simulate" || seen[r.key()] {
			continue
		}
		seen[r.key()] = true
		out = append(out, r)
		if len(out) == n {
			break
		}
	}
	if len(out) == 0 {
		out = append(out, opRequest("roofline", "training", "add_relu", false))
	}
	return out
}

// probeServing measures a warmed response-cache hit through
// (*serve.Server).ServeHTTP, and the router hop: the same hit through
// cluster.Router.Handler minus the hit sent straight to the backend.
func probeServing(sample []request) (hitUS, hopUS float64, err error) {
	reqs := cacheableSample(sample, 8)
	srv := serve.New(serve.Config{})
	var hits []float64
	for _, r := range reqs {
		for j := 0; j < 11; j++ {
			w := httptest.NewRecorder()
			hr := httptest.NewRequest(http.MethodPost, "/v1/"+r.Endpoint, bytes.NewReader(r.Body))
			us, _ := timeIt(func() error { srv.ServeHTTP(w, hr); return nil })
			if w.Code != http.StatusOK {
				return 0, 0, fmt.Errorf("probe %s: status %d", r.Endpoint, w.Code)
			}
			if j > 0 && w.Header().Get("X-Ascendd-Cache") == "hit" {
				hits = append(hits, us)
			}
		}
	}
	backend := httptest.NewServer(srv)
	defer backend.Close()
	rt, err := cluster.NewRouter(cluster.RouterConfig{Backends: []string{backend.URL}})
	if err != nil {
		return 0, 0, err
	}
	rt.Start()
	defer rt.Stop()
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	client := &http.Client{Timeout: 60 * time.Second}
	post := func(base string, r request) (float64, error) {
		return timeIt(func() error {
			resp, err := client.Post(base+"/v1/"+r.Endpoint, "application/json", bytes.NewReader(r.Body))
			if err != nil {
				return err
			}
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				return fmt.Errorf("status %d", resp.StatusCode)
			}
			return nil
		})
	}
	var direct, routed []float64
	for _, r := range reqs {
		for j := 0; j < 10; j++ {
			d, err := post(backend.URL, r)
			if err != nil {
				return 0, 0, err
			}
			v, err := post(front.URL, r)
			if err != nil {
				return 0, 0, err
			}
			direct, routed = append(direct, d), append(routed, v)
		}
	}
	return median(hits), median(routed) - median(direct), nil
}

// perLayerUnits names every per-layer metric with its unit, as
// BENCHMARK.json lists them.
var perLayerUnits = map[string]string{
	"serve.resp_cache_hit_ratio":    "fraction",
	"serve.hit_us":                  "us",
	"serve.canonical_key_us":        "us",
	"cluster.router_hop_us":         "us",
	"engine.cache_hit_ratio":        "fraction",
	"engine.cache_evictions":        "count",
	"engine.hit_us":                 "us",
	"isa.parse_us_per_kinstr":       "us",
	"sim.ns_per_instr":              "ns",
	"sim.runs":                      "count",
	"sim.events_per_run":            "count",
	"sim.allocs_per_run":            "count",
	"surrogate.predict_us":          "us",
	"surrogate.accept_ratio":        "fraction",
	"kernels.build_us":              "us",
	"core.analyze_us":               "us",
	"trace.export_us":               "us",
	"trace.bytes_per_response":      "bytes",
	"opt.search_us":                 "us",
	"opt.optimize_us":               "us",
	"opt.exact_sims_per_search":     "count",
	"opt.surrogate_scored_share":    "fraction",
	"model.optimize_top_us":         "us",
	"graph.schedule_us":             "us",
	"graph.serial_fallback_ratio":   "fraction",
	"process.cpu_ms_per_req":        "ms",
	"tracing.coverage":              "fraction",
	"tracing.overhead":              "fraction",
	"answers.error_rate":            "fraction",
	"answers.rel_error":             "fraction",
	"answers.tuned_speedup_geomean": "x",
	"answers.graph_speedup_geomean": "x",
}

// perLayer runs the traced replay and the probes and assembles every
// per-layer metric, printing the self-time table on the way.
func perLayer(cfg *config, gen func(int) request, meas *phase, a *answers, before, after serve.StatsResponse, cpu0, cpu1 procSample) (map[string]metric, error) {
	w := cfg.workload
	sample := make([]request, w.sample)
	for i := range sample {
		sample[i] = gen(w.warmup + i)
	}
	tr, err := runTraced(cfg, sample)
	if err != nil {
		return nil, err
	}
	vals, sources, err := runProbes(cfg, sample, tr)
	if err != nil {
		return nil, err
	}
	printLayers(tr, len(sample))

	d := func(f func(s *serve.StatsResponse) uint64) float64 { return float64(f(&after) - f(&before)) }
	attempted := float64(len(meas.outcomes))
	searches := d(func(s *serve.StatsResponse) uint64 { return s.Engine.SearchSearches })
	scored := d(func(s *serve.StatsResponse) uint64 { return s.Engine.SearchSurrogateScored })
	proxy := d(func(s *serve.StatsResponse) uint64 { return s.Engine.SearchProxyScored })
	runs := d(func(s *serve.StatsResponse) uint64 { return s.Engine.SchedRuns })
	predicted := d(func(s *serve.StatsResponse) uint64 { return s.Engine.SurrogatePredicted })
	gated := d(func(s *serve.StatsResponse) uint64 { return s.Engine.SurrogateGated })
	respHits := d(func(s *serve.StatsResponse) uint64 { return s.Serve.RespCacheHits })
	respMisses := d(func(s *serve.StatsResponse) uint64 { return s.Serve.RespCacheMisses })
	cacheHits := d(func(s *serve.StatsResponse) uint64 { return s.Engine.CacheHits })
	cacheMisses := d(func(s *serve.StatsResponse) uint64 { return s.Engine.CacheMisses })

	groups := map[string]map[string]float64{
		"stats": {
			"serve.resp_cache_hit_ratio":  ratio(respHits, respHits+respMisses),
			"engine.cache_hit_ratio":      ratio(cacheHits, cacheHits+cacheMisses),
			"engine.cache_evictions":      d(func(s *serve.StatsResponse) uint64 { return s.Engine.CacheEvictions }),
			"sim.runs":                    runs,
			"sim.events_per_run":          ratio(d(func(s *serve.StatsResponse) uint64 { return s.Engine.SchedEvents }), runs),
			"surrogate.accept_ratio":      ratio(predicted, predicted+gated),
			"opt.exact_sims_per_search":   ratio(d(func(s *serve.StatsResponse) uint64 { return s.Engine.SearchExactSims }), searches),
			"opt.surrogate_scored_share":  ratio(scored, scored+proxy),
			"graph.serial_fallback_ratio": ratio(d(func(s *serve.StatsResponse) uint64 { return s.Engine.GraphSerialFallbacks }), d(func(s *serve.StatsResponse) uint64 { return s.Engine.GraphSchedules })),
		},
		"proc": {
			"process.cpu_ms_per_req": ratio(float64(cpu1.cpuTicks-cpu0.cpuTicks)*1000/clockTicks, attempted),
		},
		"client": {
			"trace.bytes_per_response":      mean(a.traceBytes),
			"answers.error_rate":            ratio(float64(a.failed), attempted),
			"answers.rel_error":             mean(a.relErrs),
			"answers.tuned_speedup_geomean": geomean(a.tuned),
			"answers.graph_speedup_geomean": geomean(a.graphs),
		},
		"replay": {
			"serve.canonical_key_us": median(spanDurs(tr, "serve.CanonicalKey")),
			"tracing.coverage":       tr.coverage,
			"tracing.overhead":       tr.overhead,
		},
	}
	for src, group := range groups {
		for k, v := range group {
			vals[k], sources[k] = v, src
		}
	}
	m := map[string]metric{}
	for k, v := range vals {
		unit, ok := perLayerUnits[k]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s has no unit", k)
		}
		m[k] = metric{v, unit}
	}
	if len(m) != len(perLayerUnits) {
		return nil, fmt.Errorf("measured %d per-layer metrics, BENCHMARK.json lists %d", len(m), len(perLayerUnits))
	}
	fmt.Println("per-layer metrics (source: stats delta, /proc, client, traced replay or probe):")
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		fmt.Printf("  %-32s %16.6f %-8s %s\n", k, m[k].Value, m[k].Unit, sources[k])
	}
	return m, nil
}

// spanDurs returns a span name's durations in µs.
func spanDurs(tr *tracedRun, name string) []float64 {
	if st := tr.layers[name]; st != nil {
		return st.durs
	}
	return nil
}

// printLayers prints the self-time table and the tracing checks.
func printLayers(tr *tracedRun, n int) {
	var rows []*layerStat
	for _, st := range tr.layers {
		rows = append(rows, st)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].self > rows[j].self })
	fmt.Printf("traced replay: %d requests, wall %.3f ms, spans written to %s\n", n, float64(tr.wall)/1e6, tr.file)
	fmt.Printf("  %-26s %7s %12s %12s %7s\n", "span", "count", "self_ms", "total_ms", "self%")
	for _, st := range rows {
		fmt.Printf("  %-26s %7d %12.3f %12.3f %6.1f%%\n", st.name, st.count,
			float64(st.self)/1e6, float64(st.total)/1e6, 100*float64(st.self)/float64(tr.wall))
	}
	fmt.Printf("tracing.coverage %.4f (layer self time / replay wall; must be >= %.2f)\n", tr.coverage, minCoverage)
	fmt.Printf("tracing.overhead %.4f (median over %d pairs of traced / untraced replay wall - 1)\n", tr.overhead, overheadPairs)
}
