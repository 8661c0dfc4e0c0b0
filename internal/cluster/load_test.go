package cluster

import (
	"math"
	"net/http/httptest"
	"testing"
	"time"

	"ascendperf/internal/serve"
)

// TestRunClusterKillSweep is the cluster smoke in miniature: 2 spawned
// backends, Zipf traffic through the router, one backend killed at
// half-duration. The contract under test: zero client-visible errors,
// at least one recorded failover, and a shared tier that answers after
// a cold restart.
func TestRunClusterKillSweep(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns serving stacks and drives load")
	}
	rep, err := Run(LoadConfig{
		Counts:      []int{2},
		Duration:    500 * time.Millisecond,
		Concurrency: 4,
		ZipfS:       1.1,
		ZipfN:       16,
		Seed:        42,
		Kill:        true,
		Timeout:     30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Entries) != 1 {
		t.Fatalf("entries = %d, want 1", len(rep.Entries))
	}
	e := rep.Entries[0]
	if e.Backends != 2 || !e.Killed {
		t.Fatalf("entry = %+v, want a killed 2-backend entry", e)
	}
	if e.Errors != 0 {
		t.Errorf("%d client-visible errors during failover, want 0", e.Errors)
	}
	if e.Measured.N == 0 {
		t.Error("closed loop completed no requests")
	}
	if e.Failovers == 0 {
		t.Error("killed a backend mid-load but recorded no failovers")
	}
	if e.L2RestartHitRate <= 0 {
		t.Errorf("L2 restart hit rate %.3f, want > 0: the shared tier retained nothing", e.L2RestartHitRate)
	}
	if len(e.Shards) != 2 {
		t.Fatalf("shard reports = %d, want 2", len(e.Shards))
	}
	killed := 0
	for _, s := range e.Shards {
		if s.Killed {
			killed++
		}
	}
	if killed != 1 {
		t.Errorf("killed shard count = %d, want exactly 1", killed)
	}
	if rep.TargetQPS != 0 {
		t.Errorf("spawned sweep reports target_qps %v, want 0 (closed loop)", rep.TargetQPS)
	}
}

// TestRunBaseRoofline drives a fresh daemon open-loop. The cold pass
// fills the daemon's response LRU with every distinct request, so every
// successful measured request must be an LRU hit; the test holds on a
// fresh server whatever the process-wide engine cache holds, alone or
// in any test order. It also pins that a zero skew is taken as given
// (uniform) rather than replaced by a default.
func TestRunBaseRoofline(t *testing.T) {
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	rep, err := Run(LoadConfig{
		BaseURL:  ts.URL,
		Endpoint: "roofline",
		QPS:      200,
		Duration: 300 * time.Millisecond,
		ZipfS:    0,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Schema != SchemaLoad || rep.Cores <= 0 || rep.GOMAXPROCS <= 0 || rep.Command == "" {
		t.Fatalf("header = %+v", rep.BenchHeader)
	}
	if rep.ZipfS != 0 {
		t.Errorf("zipf_s = %v, want the configured 0", rep.ZipfS)
	}
	if rep.TargetQPS != 200 || len(rep.Entries) != 1 {
		t.Fatalf("target_qps %v, %d entries; want 200 and one entry", rep.TargetQPS, len(rep.Entries))
	}
	e := rep.Entries[0]
	if e.Errors != 0 {
		t.Fatalf("load run saw %d errors", e.Errors)
	}
	if rep.ZipfN == 0 || e.Cold.N != rep.ZipfN {
		t.Fatalf("cold pass covered %d/%d distinct requests", e.Cold.N, rep.ZipfN)
	}
	if e.Measured.N == 0 {
		t.Fatal("measured phase issued no requests")
	}
	if e.Requests != e.Cold.N+e.Measured.N+e.Errors {
		t.Errorf("requests %d != cold %d + measured %d + errors %d", e.Requests, e.Cold.N, e.Measured.N, e.Errors)
	}
	if e.Cold.P50NS <= 0 || e.Measured.P50NS <= 0 {
		t.Fatalf("degenerate percentiles: cold %d measured %d", e.Cold.P50NS, e.Measured.P50NS)
	}
	if e.RespCacheHits < uint64(e.Measured.N) {
		t.Errorf("response LRU hits %d < %d successful measured requests", e.RespCacheHits, e.Measured.N)
	}
	if out := rep.Format(); out == "" {
		t.Error("empty formatted report")
	}
}

func TestRunBaseModels(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-model cold pass in -short mode")
	}
	ts := httptest.NewServer(serve.New(serve.Config{}))
	defer ts.Close()
	rep, err := Run(LoadConfig{
		BaseURL:  ts.URL,
		Endpoint: "model",
		QPS:      100,
		Duration: 200 * time.Millisecond,
		ZipfS:    1.1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if e := rep.Entries[0]; e.Errors != 0 {
		t.Fatalf("load run saw %d errors", e.Errors)
	}
	if rep.ZipfN != 11 {
		t.Fatalf("model mix has %d distinct requests, want the 11 built-in workloads", rep.ZipfN)
	}
}

// TestRunRejectsBadConfigs: a negative or NaN skew is NewZipf's error,
// not a silently substituted value, and so are an unknown mix, a bad
// backend count and a run with nothing to drive. None of them may
// issue a request.
func TestRunRejectsBadConfigs(t *testing.T) {
	for name, cfg := range map[string]LoadConfig{
		"negative skew":    {BaseURL: "http://127.0.0.1:1", ZipfS: -1},
		"NaN skew":         {BaseURL: "http://127.0.0.1:1", ZipfS: math.NaN()},
		"unknown endpoint": {BaseURL: "http://127.0.0.1:1", Endpoint: "nope"},
		"zero backends":    {Counts: []int{1, 0}},
		"no front":         {},
	} {
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestBuildMixDeterministic: the popularity-ranked population must be
// stable, keep its rank order and respect the cap.
func TestBuildMixDeterministic(t *testing.T) {
	a, err := buildMix("mixed", "training", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := buildMix("mixed", "training", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("mix sizes %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].path != b[i].path || string(a[i].body) != string(b[i].body) {
			t.Fatalf("mix entry %d differs across builds", i)
		}
	}
	capped, err := buildMix("mixed", "training", 0, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(capped) != 5 {
		t.Fatalf("capped mix size %d, want 5", len(capped))
	}
	if capped[0].path != "/v1/model" {
		t.Errorf("rank 0 is %s, want a model request at the head of the popularity order", capped[0].path)
	}
	// The mixed population is the model mix followed by each operator's
	// roofline and simulate requests.
	models, _ := buildMix("model", "training", 0, 0)
	roofline, _ := buildMix("roofline", "training", 0, 0)
	if len(a) != len(models)+2*len(roofline) {
		t.Fatalf("mixed %d != model %d + 2 x roofline %d", len(a), len(models), len(roofline))
	}
	for i, r := range roofline {
		got := a[len(models)+2*i]
		if got.path != r.path || string(got.body) != string(r.body) {
			t.Fatalf("mixed rank %d = %s %s, want %s %s", len(models)+2*i, got.path, got.body, r.path, r.body)
		}
	}
	if _, err := buildMix("nope", "training", 0, 0); err == nil {
		t.Error("unknown endpoint accepted")
	}
}

func TestLatencyPercentiles(t *testing.T) {
	got := latency([]time.Duration{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if want := (Latency{N: 10, P50NS: 5, P99NS: 9, MaxNS: 10}); got != want {
		t.Errorf("latency = %+v, want %+v", got, want)
	}
	if got := latency(nil); got != (Latency{}) {
		t.Errorf("empty latency = %+v", got)
	}
}
