package serve

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/sim"
)

// newTestServer starts an httptest server around a fresh Server; tests
// in this package are white-box and can reach s.mux, s.flights, s.adm.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(ts.Close)
	return s, ts
}

// postJSON posts body and returns the response with its body read.
func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, data
}

func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	t.Run("healthz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("healthz = %d", resp.StatusCode)
		}
	})
	t.Run("readyz", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("readyz = %d", resp.StatusCode)
		}
	})
	t.Run("listings", func(t *testing.T) {
		for path, key := range map[string]string{
			"/v1/ops": "ops", "/v1/models": "models", "/v1/chips": "chips",
		} {
			resp, err := http.Get(ts.URL + path)
			if err != nil {
				t.Fatal(err)
			}
			var out map[string][]string
			err = json.NewDecoder(resp.Body).Decode(&out)
			resp.Body.Close()
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if len(out[key]) == 0 {
				t.Errorf("%s: empty %q list", path, key)
			}
		}
	})
	t.Run("simulate", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/simulate", `{"chip":"training","op":"add_relu"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("simulate = %d: %s", resp.StatusCode, body)
		}
		var out SimulateResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.TotalTimeNS <= 0 || len(out.Components) == 0 {
			t.Fatalf("degenerate simulate response: %+v", out)
		}
	})
	t.Run("simulate inline program", func(t *testing.T) {
		req, _ := json.Marshal(SimulateRequest{Chip: "training", Program: `
copy GM->UB bytes=4096 reads=GM[0:4096) writes=UB[0:4096) ; load-x
set_flag MTE-GM->Vector ev=0
wait_flag MTE-GM->Vector ev=0
Vector.FP16 ops=2048 repeat=1 reads=UB[0:4096) writes=UB[4096:8192) ; relu
`})
		resp, body := postJSON(t, ts.URL+"/v1/simulate", string(req))
		if resp.StatusCode != 200 {
			t.Fatalf("inline simulate = %d: %s", resp.StatusCode, body)
		}
	})
	t.Run("roofline", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/roofline", `{"chip":"inference","op":"softmax"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("roofline = %d: %s", resp.StatusCode, body)
		}
		var out RooflineResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Cause == "" || out.CauseAbbrev == "" || len(out.Components) == 0 {
			t.Fatalf("degenerate roofline response: %+v", out)
		}
	})
	t.Run("optimize", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/optimize", `{"chip":"training","op":"add_relu"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("optimize = %d: %s", resp.StatusCode, body)
		}
		var out OptimizeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Speedup < 1 || out.FinalTimeNS <= 0 {
			t.Fatalf("degenerate optimize response: %+v", out)
		}
	})
	t.Run("optimize search", func(t *testing.T) {
		// The search mode via query parameters; the body carries the rest.
		resp, body := postJSON(t, ts.URL+"/v1/optimize?search=1&beam=2", `{"chip":"training","op":"add_relu"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("optimize?search=1 = %d: %s", resp.StatusCode, body)
		}
		var out OptimizeResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Search == nil || out.Search.ExactSims == 0 || out.Speedup < 1 {
			t.Fatalf("degenerate search response: %s", body)
		}
		if len(out.Applied) == 0 || out.FinalTimeNS != out.Search.BestNS {
			t.Fatalf("search block disagrees with loop fields: %s", body)
		}
		// Equivalent body-only request must hit the response cache: the
		// query parameters were folded into the canonical key.
		resp2, _ := postJSON(t, ts.URL+"/v1/optimize", `{"chip":"training","op":"add_relu","search":true,"beam":2}`)
		if resp2.Header.Get("X-Ascendd-Cache") != "hit" {
			t.Fatalf("body-form search request missed the response cache")
		}
		// Stats must now report the search counters.
		statsResp, statsBody := postJSON(t, ts.URL+"/v1/stats", "")
		_ = statsResp
		var st StatsResponse
		if err := json.Unmarshal(statsBody, &st); err != nil {
			t.Fatal(err)
		}
		if st.Engine.SearchSearches == 0 || st.Engine.SearchExactSims == 0 {
			t.Fatalf("search counters missing from stats: %+v", st.Engine)
		}
	})
	t.Run("trace", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/trace", `{"chip":"training","op":"mul"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("trace = %d: %s", resp.StatusCode, body)
		}
		var doc struct {
			TraceEvents []json.RawMessage `json:"traceEvents"`
		}
		if err := json.Unmarshal(body, &doc); err != nil {
			t.Fatal(err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Fatal("trace has no events")
		}
	})
	t.Run("model", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/model", `{"chip":"training","model":"DeepFM"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("model = %d: %s", resp.StatusCode, body)
		}
		var out ModelResponse
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		if out.Operators == 0 || out.BaselineComputeNS <= 0 {
			t.Fatalf("degenerate model response: %+v", out)
		}
	})
	t.Run("model inline workload", func(t *testing.T) {
		resp, body := postJSON(t, ts.URL+"/v1/model",
			`{"chip":"training","workload":{"name":"tiny","ops":[{"op":"mul","count":3}]},"top_n":1}`)
		if resp.StatusCode != 200 {
			t.Fatalf("inline workload = %d: %s", resp.StatusCode, body)
		}
	})
	t.Run("stats", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var out StatsResponse
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if out.Serve.CoalesceLeaders == 0 {
			t.Error("stats show no executions after the endpoint tests above")
		}
	})
	t.Run("metrics", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		data, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		for _, want := range []string{
			"ascendd_requests_total", "ascendd_request_duration_seconds_bucket",
			"ascendd_inflight_requests", "ascendd_draining 0",
			"ascendd_engine_cache_hits_total", "ascendd_sched_runs_total",
		} {
			if !strings.Contains(string(data), want) {
				t.Errorf("metrics page missing %q", want)
			}
		}
	})
}

func TestErrorEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		name, path, body string
		wantStatus       int
		wantCode         string
	}{
		{"syntax", "/v1/simulate", `{`, 400, "bad_request"},
		{"unknown field", "/v1/simulate", `{"chip":"training","oop":"mul"}`, 400, "bad_request"},
		{"trailing data", "/v1/simulate", `{"op":"mul"} {"op":"mul"}`, 400, "bad_request"},
		{"trailing brace", "/v1/simulate", `{"op":"mul"} }`, 400, "bad_request"},
		{"op and program", "/v1/simulate", `{"op":"mul","program":"prog p\n"}`, 400, "bad_request"},
		{"neither op nor program", "/v1/simulate", `{"chip":"training"}`, 400, "bad_request"},
		{"unknown op", "/v1/simulate", `{"op":"conv9d"}`, 404, "not_found"},
		{"unknown chip", "/v1/simulate", `{"chip":"gpu","op":"mul"}`, 404, "not_found"},
		{"unknown model", "/v1/model", `{"model":"SkyNet"}`, 404, "not_found"},
		{"model and workload", "/v1/model", `{"model":"Bert","workload":{}}`, 400, "bad_request"},
		{"bad workload", "/v1/model", `{"workload":{"name":"x","ops":[{"op":"mul","count":-1}]}}`, 400, "bad_request"},
		{"optimize without op", "/v1/optimize", `{"chip":"training"}`, 400, "bad_request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, body := postJSON(t, ts.URL+tc.path, tc.body)
			if resp.StatusCode != tc.wantStatus {
				t.Fatalf("status = %d, want %d (%s)", resp.StatusCode, tc.wantStatus, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil {
				t.Fatalf("non-envelope error body %s: %v", body, err)
			}
			if env.Error.Code != tc.wantCode {
				t.Errorf("code = %q, want %q", env.Error.Code, tc.wantCode)
			}
			if env.Error.Message == "" {
				t.Error("empty error message")
			}
		})
	}

	t.Run("method not allowed", func(t *testing.T) {
		resp, err := http.Get(ts.URL + "/v1/simulate")
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Fatalf("GET on analysis endpoint = %d", resp.StatusCode)
		}
	})
}

// registerBlocking adds a test-only analysis endpoint whose execution
// blocks on gate, counting executions. The request body is the
// coalescing key, so identical bodies coalesce and distinct bodies
// queue separately — exactly like production parse functions.
func registerBlocking(s *Server, path string, gate chan struct{}, runs *atomic.Int32) {
	s.mux.HandleFunc(path, s.analysis("testblock", func(_ string, body []byte) (*parsedRequest, error) {
		key := string(body)
		return &parsedRequest{
			key: sha256.Sum256(body),
			run: func() ([]byte, bool, error) {
				runs.Add(1)
				// One real simulation per execution, so the coalescing
				// test's "one underlying simulation" claim is literal.
				prog := &isa.Program{Name: "coalesce-proof-" + key}
				prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
				if _, err := engine.Simulate(hw.TrainingChip(), prog, sim.Options{}); err != nil {
					return nil, false, err
				}
				<-gate
				return []byte(`{"ok":true}`), false, nil
			},
		}, nil
	}))
}

// TestCoalescingHTTP is the acceptance-criteria test: N concurrent
// identical requests share ONE underlying execution (and simulation).
func TestCoalescingHTTP(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 2, QueueDepth: 4})
	gate := make(chan struct{})
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)

	const n = 10
	var (
		wg        sync.WaitGroup
		mu        sync.Mutex
		statuses  []int
		coalesced int
		bodies    = map[string]bool{}
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/testblock", "application/json",
				strings.NewReader("same-request"))
			if err != nil {
				t.Error(err)
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			mu.Lock()
			defer mu.Unlock()
			statuses = append(statuses, resp.StatusCode)
			bodies[string(data)] = true
			if resp.Header.Get("X-Ascendd-Coalesced") == "1" {
				coalesced++
			}
		}()
	}
	// All n arrive; 1 becomes the flight leader, n-1 attach as
	// followers. Only then does the gate open.
	waitFor(t, "n-1 followers", func() bool {
		_, followers := s.flights.Stats()
		return followers == n-1
	})
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("%d concurrent identical requests ran %d simulations, want 1", n, got)
	}
	for _, st := range statuses {
		if st != 200 {
			t.Fatalf("statuses = %v, want all 200", statuses)
		}
	}
	if coalesced != n-1 {
		t.Errorf("%d responses marked coalesced, want %d", coalesced, n-1)
	}
	if len(bodies) != 1 {
		t.Errorf("followers saw %d distinct bodies, want 1", len(bodies))
	}
	snap := s.StatsSnapshot()
	if snap.Serve.CoalesceFollowers != n-1 {
		t.Errorf("stats followers = %d, want %d", snap.Serve.CoalesceFollowers, n-1)
	}
}

// TestOverloadSheds is the acceptance-criteria test: overload yields
// 429 with Retry-After while admitted work still completes.
func TestOverloadSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{Concurrency: 1, QueueDepth: 1})
	gate := make(chan struct{})
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)

	type result struct {
		status int
		body   string
	}
	fire := func(body string) chan result {
		ch := make(chan result, 1)
		go func() {
			resp, err := http.Post(ts.URL+"/v1/testblock", "application/json",
				strings.NewReader(body))
			if err != nil {
				ch <- result{0, err.Error()}
				return
			}
			data, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			ch <- result{resp.StatusCode, string(data)}
		}()
		return ch
	}

	// Distinct bodies = distinct flights: "a" occupies the single slot,
	// "b" fills the single queue seat.
	ra := fire("a")
	waitFor(t, "slot occupied", func() bool { return s.adm.InFlight() == 1 })
	rb := fire("b")
	waitFor(t, "queue seat taken", func() bool { return s.adm.Waiting() == 1 })

	// The third distinct request must shed immediately.
	resp, body := postJSON(t, ts.URL+"/v1/testblock", "c")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overload status = %d (%s), want 429", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "queue_full" {
		t.Errorf("429 body = %s, want queue_full envelope", body)
	}

	close(gate)
	if r := <-ra; r.status != 200 {
		t.Errorf("admitted request a = %d (%s)", r.status, r.body)
	}
	if r := <-rb; r.status != 200 {
		t.Errorf("queued request b = %d (%s)", r.status, r.body)
	}
	snap := s.StatsSnapshot()
	if snap.Serve.Shed["queue_full"] != 1 {
		t.Errorf("shed counters = %v, want queue_full=1", snap.Serve.Shed)
	}
}

func TestDrainingSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", resp.StatusCode)
	}
	resp2, body := postJSON(t, ts.URL+"/v1/simulate", `{"op":"mul"}`)
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining analysis = %d (%s), want 503", resp2.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "draining" {
		t.Errorf("draining body = %s", body)
	}
	// Liveness is unaffected: the process is still up.
	resp3, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp3.Body.Close()
	if resp3.StatusCode != 200 {
		t.Errorf("draining /healthz = %d, want 200", resp3.StatusCode)
	}
}

func TestRequestTimeout(t *testing.T) {
	s, ts := newTestServer(t, Config{Timeout: 100 * time.Millisecond})
	gate := make(chan struct{})
	defer close(gate)
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)

	resp, body := postJSON(t, ts.URL+"/v1/testblock", "slow")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("timed-out request = %d (%s), want 503", resp.StatusCode, body)
	}
	var env errorEnvelope
	if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "timeout" {
		t.Errorf("timeout body = %s", body)
	}
}

// TestLeaderDisconnectKeepsFollowers: a flight outlives its leader's
// client. The leader's request waits for the only admission slot, a
// follower attaches to its flight, and then the leader's client drops;
// once the slot frees, the follower must still get its answer.
func TestLeaderDisconnectKeepsFollowers(t *testing.T) {
	// The short timeout only bounds how long a failing run hangs.
	s, ts := newTestServer(t, Config{Concurrency: 1, Timeout: 5 * time.Second})
	gate := make(chan struct{})
	close(gate) // executions complete immediately
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)
	if err := s.adm.acquire(nil); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/testblock", strings.NewReader("shared"))
		if err != nil {
			t.Error(err)
			return
		}
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()
	waitFor(t, "leader waiting for the slot", func() bool { return s.adm.Waiting() == 1 })

	follower := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/testblock", "application/json", strings.NewReader("shared"))
		if err != nil {
			follower <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		follower <- resp.StatusCode
	}()
	waitFor(t, "follower attached", func() bool {
		_, followers := s.flights.Stats()
		return followers == 1
	})

	cancel()
	<-leaderDone
	waitFor(t, "leader's handler gave up", func() bool { return s.StatsSnapshot().Serve.Errors >= 1 })
	s.adm.release()
	if st := <-follower; st != http.StatusOK {
		t.Fatalf("follower of a disconnected leader = %d, want 200", st)
	}
	if got := runs.Load(); got != 1 {
		t.Errorf("flight ran %d times, want 1", got)
	}
}

func TestDrainWaitsForInflight(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)

	done := make(chan int, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/testblock", "application/json",
			strings.NewReader("inflight"))
		if err != nil {
			done <- 0
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		done <- resp.StatusCode
	}()
	waitFor(t, "request in flight", func() bool { return runs.Load() == 1 })

	// A bounded Drain must report the stuck request...
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	err := s.Drain(ctx)
	cancel()
	if err == nil {
		t.Fatal("Drain returned before the in-flight request finished")
	}
	// ...and succeed once it completes.
	close(gate)
	if st := <-done; st != 200 {
		t.Fatalf("in-flight request during drain = %d, want 200", st)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestCanonicalKeyFieldOrder(t *testing.T) {
	// Two bodies differing only in field order and whitespace must land
	// on the same flight key.
	mk := func(body string) [32]byte {
		var req SimulateRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatal(err)
		}
		return requestKey("simulate", req)
	}
	a := mk(`{"chip":"training","op":"mul"}`)
	b := mk(`{ "op":"mul", "chip":"training" }`)
	if a != b {
		t.Fatalf("canonical keys differ: %x vs %x", a, b)
	}
	if c := mk(`{"chip":"training","op":"matmul"}`); c == a {
		t.Fatal("distinct requests share a key")
	}
}

func TestBodyLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	huge := fmt.Sprintf(`{"chip":"training","program":%q}`,
		strings.Repeat("x", maxBodyBytes+1024))
	resp, body := postJSON(t, ts.URL+"/v1/simulate", huge)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("oversized body = %d (%.80s), want 400", resp.StatusCode, body)
	}
}

// TestBodyContentLength: the body is read whole whatever Content-Length
// claims, and the size limit holds whatever it claims.
func TestBodyContentLength(t *testing.T) {
	s := New(Config{})
	const body = `{"chip":"training","op":"mul"}`
	huge := `{"chip":"training","program":"` + strings.Repeat("x", maxBodyBytes) + `"}`
	for _, tc := range []struct {
		name          string
		body          string
		contentLength int64
		want          int
	}{
		{"understated", body, 5, http.StatusOK},
		{"overstated", body, 10 * int64(len(body)), http.StatusOK},
		{"beyond the limit", body, 1 << 40, http.StatusOK},
		{"unknown", body, -1, http.StatusOK},
		{"understated oversized body", huge, 5, http.StatusBadRequest},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(tc.body))
			r.ContentLength = tc.contentLength
			w := httptest.NewRecorder()
			s.ServeHTTP(w, r)
			if w.Code != tc.want {
				t.Fatalf("HTTP %d (%.80s), want %d", w.Code, w.Body, tc.want)
			}
		})
	}
}

// TestSearchQueryErrorEnvelope: a bad search query or a body the query
// cannot fold into gets the error envelope and counts as an error.
func TestSearchQueryErrorEnvelope(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	for _, tc := range []struct{ name, query, body string }{
		{"bad beam", "?search=1&beam=wide", `{"op":"add_relu"}`},
		{"bad search", "?search=maybe", `{"op":"add_relu"}`},
		{"body not an object", "?search=1", `["add_relu"]`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.StatsSnapshot().Serve.Errors
			resp, body := postJSON(t, ts.URL+"/v1/optimize"+tc.query, tc.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("HTTP %d, want 400 (%s)", resp.StatusCode, body)
			}
			var env errorEnvelope
			if err := json.Unmarshal(body, &env); err != nil || env.Error.Code != "bad_request" || env.Error.Message == "" {
				t.Fatalf("body %s is not a bad_request envelope (%v)", body, err)
			}
			if got := s.StatsSnapshot().Serve.Errors - before; got != 1 {
				t.Errorf("errors counter rose by %d, want 1", got)
			}
		})
	}
}

// TestResponseCache verifies that a repeat of a completed request is
// answered from the encoded-response LRU: no second execution, marked
// with the X-Ascendd-Cache header.
func TestResponseCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	gate := make(chan struct{})
	close(gate) // executions complete immediately
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)

	resp1, body1 := postJSON(t, ts.URL+"/v1/testblock", "repeat-me")
	if resp1.StatusCode != 200 || resp1.Header.Get("X-Ascendd-Cache") == "hit" {
		t.Fatalf("first request: status %d, cache header %q",
			resp1.StatusCode, resp1.Header.Get("X-Ascendd-Cache"))
	}
	resp2, body2 := postJSON(t, ts.URL+"/v1/testblock", "repeat-me")
	if resp2.StatusCode != 200 {
		t.Fatalf("second request = %d", resp2.StatusCode)
	}
	if resp2.Header.Get("X-Ascendd-Cache") != "hit" {
		t.Error("repeat request not served from the response cache")
	}
	if string(body1) != string(body2) {
		t.Errorf("cached body differs: %s vs %s", body1, body2)
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("repeat request re-executed: %d runs", got)
	}
	snap := s.StatsSnapshot()
	if snap.Serve.RespCacheHits != 1 || snap.Serve.RespCacheEntries == 0 {
		t.Errorf("resp cache stats: hits=%d entries=%d",
			snap.Serve.RespCacheHits, snap.Serve.RespCacheEntries)
	}
}

func TestResponseCacheDisabled(t *testing.T) {
	s, ts := newTestServer(t, Config{ResponseCache: -1})
	gate := make(chan struct{})
	close(gate)
	var runs atomic.Int32
	registerBlocking(s, "/v1/testblock", gate, &runs)

	postJSON(t, ts.URL+"/v1/testblock", "x")
	resp, _ := postJSON(t, ts.URL+"/v1/testblock", "x")
	if resp.Header.Get("X-Ascendd-Cache") == "hit" {
		t.Error("disabled response cache served a hit")
	}
	if got := runs.Load(); got != 2 {
		t.Errorf("disabled cache: %d runs, want 2", got)
	}
}

func TestRespCacheLRU(t *testing.T) {
	c := newRespCache(2)
	c.put(testKey("a"), []byte("A"))
	c.put(testKey("b"), []byte("B"))
	if _, ok := c.get(testKey("a")); !ok { // a becomes most recent
		t.Fatal("a missing")
	}
	c.put(testKey("c"), []byte("C")) // evicts b
	if _, ok := c.get(testKey("b")); ok {
		t.Error("LRU kept b over more recently used a")
	}
	if v, ok := c.get(testKey("a")); !ok || string(v) != "A" {
		t.Error("a evicted or corrupted")
	}
	hits, misses, entries := c.Stats()
	if entries != 2 || hits != 2 || misses != 1 {
		t.Errorf("stats = %d/%d/%d", hits, misses, entries)
	}
}

// TestChipPresetsStayImmutable serves every /v1/* endpoint once per
// chip preset and checks each preset's fingerprint afterwards: requests
// share one *hw.Chip per preset, which is only sound while no request
// path writes to it.
func TestChipPresetsStayImmutable(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	before := map[string]string{}
	for name, chip := range chipPresets {
		fp, err := chip.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		before[name] = fp
	}
	for _, path := range []string{"/v1/ops", "/v1/models", "/v1/chips", "/v1/stats"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("%s = %d", path, resp.StatusCode)
		}
	}
	tiny := `"workload":{"name":"tiny","ops":[{"op":"mul","count":2},{"op":"add_relu","count":1}]}`
	served := map[string]bool{}
	for name := range chipPresets {
		for _, c := range []struct{ endpoint, body string }{
			{"simulate", `{"op":"add_relu"}`},
			{"simulate", `{"program":"copy GM->UB bytes=64 reads=GM[0:64) writes=UB[0:64)"}`},
			{"roofline", `{"op":"softmax","optimized":true}`},
			{"optimize", `{"op":"add_relu"}`},
			{"optimize", `{"op":"add_relu","search":true}`},
			{"trace", `{"op":"add_relu"}`},
			{"model", `{` + tiny + `,"top_n":1}`},
			{"graph", `{` + tiny + `,"cores":2}`},
		} {
			body := `{"chip":"` + name + `",` + c.body[1:]
			resp, out := postJSON(t, ts.URL+"/v1/"+c.endpoint, body)
			if resp.StatusCode != 200 {
				t.Fatalf("%s %s = %d: %s", c.endpoint, body, resp.StatusCode, out)
			}
			served[c.endpoint] = true
		}
	}
	for endpoint := range analysisParsers {
		if !served[endpoint] {
			t.Errorf("endpoint /v1/%s not exercised", endpoint)
		}
	}
	for name, chip := range chipPresets {
		fp, err := chip.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		if fp != before[name] {
			t.Errorf("preset %q changed while serving requests", name)
		}
	}
}
