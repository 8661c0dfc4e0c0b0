package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"ascendperf/internal/isa"
	"ascendperf/internal/model"
	"ascendperf/internal/serve"
)

// sources returns every workload's load-loop request generator for a
// seed.
func sources(seed int64) map[string]func(int) request {
	out := map[string]func(int) request{}
	for _, w := range workloads {
		_, out[w.name] = w.source(seed)
	}
	return out
}

func TestGeneratorDeterministicPerSeed(t *testing.T) {
	a, b, other := sources(1), sources(1), sources(2)
	for name := range a {
		if da, db := requestListDigest(a[name], 24), requestListDigest(b[name], 24); da != db {
			t.Errorf("%s: same seed gave request lists %s and %s", name, da, db)
		}
		if requestListDigest(a[name], 24) == requestListDigest(other[name], 24) {
			t.Errorf("%s: seeds 1 and 2 gave the same request list", name)
		}
		// Request i does not depend on which requests were drawn before.
		if !bytes.Equal(a[name](7).Body, b[name](7).Body) {
			t.Errorf("%s: request 7 differs between generators of one seed", name)
		}
	}
}

func TestHotCatalogueCoversEndpointsAndExceedsResponseCache(t *testing.T) {
	cat := hotCatalogue()
	if len(cat) <= 512 {
		t.Fatalf("catalogue has %d entries, want more than the 512-entry response cache", len(cat))
	}
	seen := map[string]bool{}
	keys := map[string]bool{}
	for _, r := range cat {
		seen[r.Endpoint] = true
		if keys[r.key()] {
			t.Errorf("duplicate catalogue entry %s", r.Body)
		}
		keys[r.key()] = true
	}
	for _, ep := range serve.AnalysisEndpoints() {
		if !seen[ep] {
			t.Errorf("catalogue misses endpoint %s", ep)
		}
	}
	// Every entry appears in every stratified cycle, in Zipf proportion.
	a, b := newHotSource(4), newHotSource(5)
	counts := map[int]int{}
	for _, c := range a.order[hotWarmup : hotWarmup+hotCycle] {
		counts[c]++
	}
	if len(counts) != len(cat) {
		t.Errorf("one cycle asks for %d of %d catalogue entries", len(counts), len(cat))
	}
	if slices.Equal(a.order, b.order) {
		t.Error("seeds 4 and 5 gave the same request order")
	}
	// Every seed warms up on the same distinct entries, in its own order.
	wa, wb := slices.Clone(a.order[:hotWarmup]), slices.Clone(b.order[:hotWarmup])
	if slices.Equal(wa, wb) {
		t.Error("seeds 4 and 5 warm up in the same order")
	}
	slices.Sort(wa)
	slices.Sort(wb)
	if !slices.Equal(wa, wb) || len(slices.Compact(wa)) != hotWarmup {
		t.Error("the warm-up is not the same set of distinct entries for every seed")
	}
	// Past the last cycle the sequence wraps to the first cycle.
	if x, y := a.request(len(a.order)), a.request(hotWarmup); x.key() != y.key() {
		t.Error("the hot sequence does not wrap to its first cycle")
	}
}

func TestNovelLoopBodiesMatchOracleRequests(t *testing.T) {
	src := newNovelSource(6)
	eps := map[string]int{}
	keys := map[[32]byte]int{}
	for _, i := range []int{0, 1, 17, novelPool - 1, novelPool, novelPool + 17, 3*novelPool + 5} {
		wire, full := src.request(i), novelRequest(6, i)
		if wire.Endpoint != full.Endpoint || !bytes.Equal(wire.Body, full.Body) {
			t.Errorf("request %d: the load loop's body differs from the oracle's", i)
		}
		if j, dup := keys[wire.keySum()]; dup {
			t.Errorf("requests %d and %d share a key", j, i)
		}
		keys[wire.keySum()] = i
	}
	for j := range src.entries {
		eps[src.entries[j].endpoint]++
	}
	if eps["roofline"] != novelPool*45/100 || eps["simulate"] != novelPool*90/100-novelPool*45/100 {
		t.Errorf("pool endpoint shares %v, want 45/45/10", eps)
	}
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	mk := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	if v, ok := percentile(mk(100), 0.90); !ok || v != 90 {
		t.Errorf("p90 of 1..100 = %v, %v; want 90, true", v, ok)
	}
	if _, ok := percentile(mk(99), 0.90); ok {
		t.Error("p90 of 99 samples has only 9 beyond it but was reported as supported")
	}
	if v, _ := percentile(mk(5), 0.5); v != 3 {
		t.Errorf("p50 of 1..5 = %v, want 3", v)
	}
	if _, ok := percentile(nil, 0.5); ok {
		t.Error("percentile of no samples reported as supported")
	}
}

func TestGeomean(t *testing.T) {
	if g := geomean([]float64{2, 8}); math.Abs(g-4) > 1e-12 {
		t.Errorf("geomean(2, 8) = %v, want 4", g)
	}
	if g := geomean(nil); g != 1 {
		t.Errorf("geomean() = %v, want 1", g)
	}
	if m := median([]float64{3, 1, 2, 10}); m != 2.5 {
		t.Errorf("median = %v, want 2.5", m)
	}
}

// serveBody answers r with an in-process daemon.
func serveBody(t *testing.T, srv *serve.Server, r request) []byte {
	t.Helper()
	w := httptest.NewRecorder()
	srv.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/"+r.Endpoint, bytes.NewReader(r.Body)))
	if w.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", r.Endpoint, w.Code, w.Body.String())
	}
	return w.Body.Bytes()
}

// outcomesFor runs requests through srv and records them as the load
// generator would.
func outcomesFor(t *testing.T, srv *serve.Server, reqs []request, alter func(i int, body []byte) []byte) *phase {
	t.Helper()
	ph := &phase{bodies: map[answerKey][]byte{}, wall: time.Second}
	for i, r := range reqs {
		body := serveBody(t, srv, r)
		if alter != nil {
			body = alter(i, body)
		}
		o := outcome{index: i, endpoint: r.Endpoint, key: sha256.Sum256([]byte(r.key())), status: http.StatusOK,
			latency: time.Millisecond, size: len(body), digest: sha256.Sum256(body)}
		ph.outcomes = append(ph.outcomes, o)
		if r.Endpoint != "trace" {
			ph.bodies[answerKey{o.key, o.digest}] = body
		}
	}
	return ph
}

func TestOracleCountsAlteredNumberAsFailed(t *testing.T) {
	reqs := []request{
		opRequest("roofline", "training", "add_relu", false),
		opRequest("simulate", "inference", "matmul", true),
		opRequest("trace", "tpu", "relu", false),
		optimizeRequest("training", "add_relu", true, 1, 0),
		tuneRequest(3, 1),
		tuneRequest(3, 2),
		novelRequest(3, 0),
	}
	gen := func(i int) request { return reqs[i] }
	srv := serve.New(serve.Config{})
	a, err := checkAnswers(gen, nil, outcomesFor(t, srv, reqs, nil))
	if err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 || a.correctN != len(reqs) {
		t.Fatalf("unaltered answers: %d failed, %d correct (%s)", a.failed, a.correctN, a.firstFail)
	}
	for target := range reqs {
		alter := func(i int, body []byte) []byte {
			if i != target {
				return body
			}
			return alterNumber(t, body)
		}
		a, err := checkAnswers(gen, nil, outcomesFor(t, serve.New(serve.Config{}), reqs, alter))
		if err != nil {
			t.Fatal(err)
		}
		if a.failed != 1 || a.wrong != 1 {
			t.Errorf("%s with one altered number: %d failed, %d wrong; want 1, 1", reqs[target].Endpoint, a.failed, a.wrong)
		}
	}
}

// alterNumber changes the leading digit of the last number in a JSON
// body that starts with 1-8 (the last numbers of an approx simulate
// answer are component aggregates, which must stay exact).
func alterNumber(t *testing.T, body []byte) []byte {
	t.Helper()
	out := append([]byte(nil), body...)
	for i := len(out) - 1; i > 0; i-- {
		if out[i] >= '1' && out[i] <= '8' && (out[i-1] == ' ' || out[i-1] == ':') {
			out[i]++
			return out
		}
	}
	t.Fatalf("no number to alter in %.80s", body)
	return nil
}

func TestApproxAnswerRules(t *testing.T) {
	r := opRequest("simulate", "training", "add_relu", false)
	e, err := expect(&r)
	if err != nil {
		t.Fatal(err)
	}
	want := *e.want.(*serve.SimulateResponse)
	mk := func(total float64, busyDelta float64) []byte {
		resp := want
		resp.Approx, resp.TotalTimeNS = true, total
		resp.Components = append([]serve.ComponentTime(nil), want.Components...)
		resp.Components[0].BusyNS += busyDelta
		return mustJSON(resp)
	}
	body := mk(e.exactNS*1.1, 0)
	v := judge(&r, e, body, sha256.Sum256(body))
	if !v.ok || !v.approx || math.Abs(v.relErr-0.1) > 1e-9 {
		t.Errorf("10%% approx answer: %+v, want ok with rel error 0.1", v)
	}
	for name, body := range map[string][]byte{
		"inexact aggregates": mk(e.exactNS, 1),
		"negative total":     mk(-1, 0),
	} {
		if v := judge(&r, e, body, sha256.Sum256(body)); v.ok {
			t.Errorf("approx answer with %s passed", name)
		}
	}
}

func TestGeneratedProgramsAndWorkloadsValidate(t *testing.T) {
	for seed := int64(1); seed <= 2; seed++ {
		for i := 0; i < 40; i++ {
			r := novelRequest(seed, i)
			chip := chipByName(r.Chip)
			if err := r.Prog.Validate(chip); err != nil {
				t.Errorf("novel %d/%d on %s: %v", seed, i, r.Chip, err)
			}
			if n := r.Prog.Len(); n < novelMinInstrs || n > novelMaxInstrs {
				t.Errorf("novel %d/%d has %d instructions", seed, i, n)
			}
			var req serve.SimulateRequest
			if err := json.Unmarshal(r.Body, &req); err != nil {
				t.Fatal(err)
			}
			parsed, err := isa.Parse("request", strings.NewReader(req.Program))
			if err != nil {
				t.Fatalf("novel %d/%d does not parse: %v", seed, i, err)
			}
			if parsed.Fingerprint() != r.Prog.Fingerprint() {
				t.Errorf("novel %d/%d: text does not round-trip to the in-memory program", seed, i)
			}
		}
		for i := 0; i < 60; i++ {
			r := tuneRequest(seed, i)
			if r.Workload == nil {
				continue
			}
			m, err := model.ReadWorkloadNamed("test", bytes.NewReader(r.Workload))
			if err != nil {
				t.Fatalf("tune %d/%d: %v", seed, i, err)
			}
			chip := chipByName(r.Chip)
			for _, op := range m.Ops {
				if _, err := op.Kernel.Build(chip, op.Kernel.Baseline()); err != nil {
					t.Errorf("tune %d/%d: %s does not build on %s: %v", seed, i, op.Kernel.Name(), r.Chip, err)
				}
			}
		}
	}
}

func TestTuneRequestsAreDistinct(t *testing.T) {
	seen := map[string]int{}
	for i := 0; i < 600; i++ {
		r := tuneRequest(5, i)
		if j, dup := seen[r.key()]; dup {
			t.Fatalf("tune requests %d and %d are identical", j, i)
		}
		seen[r.key()] = i
	}
}

func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct {
			Name string `json:"name"`
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit string
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, listed []struct{ Name, Unit string }, table map[string]string) {
		if len(listed) != len(table) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark reports %d", kind, len(listed), len(table))
		}
		for _, m := range listed {
			if u, ok := table[m.Name]; !ok || u != m.Unit {
				t.Errorf("%s metric %s (%s): the benchmark reports unit %q", kind, m.Name, m.Unit, u)
			}
		}
	}
	check("end-to-end", spec.EndToEnd, endToEndUnits)
	check("per-layer", spec.PerLayer, perLayerUnits)
	for _, w := range spec.Workloads {
		if !slices.ContainsFunc(workloads, func(x workload) bool { return x.name == w.Name }) {
			t.Errorf("BENCHMARK.json lists workload %s, which the benchmark does not have", w.Name)
		}
	}
}

func TestLoopKeepsBodiesTheOracleAccepts(t *testing.T) {
	srv := httptest.NewServer(serve.New(serve.Config{}))
	defer srv.Close()
	reqs := []request{
		opRequest("roofline", "training", "add_relu", false),
		opRequest("trace", "inference", "relu", true),
		opRequest("simulate", "tpu", "mul", false),
		optimizeRequest("training", "relu", false, 0, 0),
	}
	gen := func(i int) request { return reqs[i%len(reqs)] }
	marked := 0
	ph := runLoop(srv.URL, clients, 0, 3*len(reqs), time.Time{}, gen, 5, func() { marked++ })
	a, err := checkAnswers(gen, nil, ph)
	if err != nil {
		t.Fatal(err)
	}
	if a.failed != 0 || a.correctN != 3*len(reqs) {
		t.Fatalf("%d failed, %d correct of %d (%s)", a.failed, a.correctN, 3*len(reqs), a.firstFail)
	}
	if marked != 1 {
		t.Errorf("the mark callback ran %d times, want once", marked)
	}
}
