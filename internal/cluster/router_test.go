package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ascendperf/internal/serve"
)

// fakeShard is a minimal ascendd stand-in: /readyz plus analysis
// endpoints that echo which shard answered.
func fakeShard(t *testing.T, name string) *httptest.Server {
	t.Helper()
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"shard": %q}`, name)
	})
	return httptest.NewServer(mux)
}

func newTestRouter(t *testing.T, backends []string) *Router {
	t.Helper()
	rt, err := NewRouter(RouterConfig{
		Backends:      backends,
		ProbeInterval: 50 * time.Millisecond,
		ProbeTimeout:  time.Second,
		Timeout:       5 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt.Start()
	t.Cleanup(rt.Stop)
	return rt
}

func post(t *testing.T, client *http.Client, url, body string) *http.Response {
	t.Helper()
	resp, err := client.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// TestRouterCanonicalRouting: bodies that differ only in field order or
// whitespace must land on the same shard — the cache-locality
// guarantee.
func TestRouterCanonicalRouting(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, []string{a.URL, b.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	variants := []string{
		`{"chip":"training","op":"mul"}`,
		`{ "op": "mul", "chip": "training" }`,
		"{\n  \"op\": \"mul\",\n  \"chip\": \"training\",\n  \"optimized\": false\n}",
	}
	var route string
	for i, body := range variants {
		resp := post(t, front.Client(), front.URL+"/v1/simulate", body)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("variant %d: HTTP %d", i, resp.StatusCode)
		}
		got := resp.Header.Get("X-Ascendd-Route")
		if got == "" {
			t.Fatalf("variant %d: no X-Ascendd-Route header", i)
		}
		if route == "" {
			route = got
		} else if got != route {
			t.Fatalf("variant %d routed to %s, earlier variants to %s", i, got, route)
		}
	}

	// Distinct requests spread: across the operator registry both
	// shards must see traffic.
	seen := map[string]bool{}
	for _, op := range []string{"mul", "add", "add_relu", "matmul", "softmax", "transpose", "reduce_sum", "depthwise"} {
		resp := post(t, front.Client(), front.URL+"/v1/simulate",
			fmt.Sprintf(`{"chip":"training","op":%q}`, op))
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		seen[resp.Header.Get("X-Ascendd-Route")] = true
	}
	if len(seen) < 2 {
		t.Errorf("8 distinct ops all routed to one shard: %v", seen)
	}
}

// TestRouterFailover kills the primary shard for a key and requires the
// request to succeed on the next ring node with the failover headers
// set, zero client-visible errors.
func TestRouterFailover(t *testing.T) {
	a, b := fakeShard(t, "a"), fakeShard(t, "b")
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, []string{a.URL, b.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Find the primary for this body, then kill it.
	body := `{"chip":"training","op":"mul"}`
	resp := post(t, front.Client(), front.URL+"/v1/simulate", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	primary := resp.Header.Get("X-Ascendd-Route")
	if primary == a.URL {
		a.CloseClientConnections()
		a.Close()
	} else {
		b.CloseClientConnections()
		b.Close()
	}

	resp = post(t, front.Client(), front.URL+"/v1/simulate", body)
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("failover request: HTTP %d: %s", resp.StatusCode, respBody)
	}
	if resp.Header.Get("X-Ascendd-Failover") != "1" {
		t.Error("no X-Ascendd-Failover header on failed-over response")
	}
	if got := resp.Header.Get("X-Ascendd-Route"); got == primary {
		t.Errorf("failed-over response claims dead primary %s", got)
	}
	if rt.Failovers() == 0 {
		t.Error("router counted no failovers")
	}

	// The dead shard is now passively marked down: the next request for
	// the same key goes straight to the survivor, no failover header.
	resp = post(t, front.Client(), front.URL+"/v1/simulate", body)
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 || resp.Header.Get("X-Ascendd-Failover") == "1" {
		t.Errorf("post-markdown request: HTTP %d, failover=%q (want clean primary route to survivor)",
			resp.StatusCode, resp.Header.Get("X-Ascendd-Failover"))
	}
}

// TestRouterDrainingFailover: a 503-draining answer is retriable — the
// router must re-run the request on the next ring node rather than
// surface the drain to the client. This is the contract the ascendd
// drain-before-close ordering exists for.
func TestRouterDrainingFailover(t *testing.T) {
	draining := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/readyz" {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprint(w, `{"error":{"code":"draining","message":"server is draining"}}`)
	}))
	defer draining.Close()
	healthy := fakeShard(t, "healthy")
	defer healthy.Close()

	// Don't Start the prober: the point is that the proxy path alone
	// detects the drain and fails over.
	rt, err := NewRouter(RouterConfig{Backends: []string{draining.URL, healthy.URL}, Timeout: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	// Probe several keys so at least some hit the draining primary.
	sawFailover := false
	for i := 0; i < 10; i++ {
		body := fmt.Sprintf(`{"chip":"training","program":"p%d"}`, i)
		resp := post(t, front.Client(), front.URL+"/v1/simulate", body)
		respBody, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("request %d: HTTP %d: %s", i, resp.StatusCode, respBody)
		}
		if resp.Header.Get("X-Ascendd-Failover") == "1" {
			sawFailover = true
		}
	}
	if !sawFailover {
		t.Error("no request failed over off the draining shard")
	}
}

// TestRouterReadyz: ready while any backend is up, 503 once all are
// down.
func TestRouterReadyz(t *testing.T) {
	a := fakeShard(t, "a")
	rt := newTestRouter(t, []string{a.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp, err := front.Client().Get(front.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("readyz with live backend = %d", resp.StatusCode)
	}

	a.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, err := front.Client().Get(front.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode == http.StatusServiceUnavailable {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("router stayed ready after its only backend died")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestRouterUnavailable: when every attempt fails the client gets the
// uniform error envelope with code "unavailable".
func TestRouterUnavailable(t *testing.T) {
	dead := httptest.NewServer(nil)
	dead.Close()
	rt, err := NewRouter(RouterConfig{Backends: []string{dead.URL}, Timeout: time.Second})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp := post(t, front.Client(), front.URL+"/v1/simulate", `{"chip":"training","op":"mul"}`)
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("HTTP %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), `"unavailable"`) {
		t.Errorf("body %s lacks unavailable code", body)
	}
}

// TestProxyFailoverReplaysBody is the body-replay regression test: the
// first backend to receive the proxied POST kills the connection
// mid-request (after draining the body, before any response bytes), and
// the retried attempt on the next ring node must carry the complete
// JSON body — not a drained reader, not a truncated buffer. This pins
// the forward() contract that every attempt re-reads the same buffered
// bytes.
func TestProxyFailoverReplaysBody(t *testing.T) {
	// A large body makes partial-buffering bugs visible: pad the
	// program field well past any internal chunk size.
	pad := strings.Repeat("# padding line to inflate the request body\n", 4096)
	body := fmt.Sprintf(`{"chip":"training","program":%q}`, pad)

	var killed atomic.Bool
	var got atomic.Value // string: body seen by the surviving backend
	shard := func() *httptest.Server {
		mux := http.NewServeMux()
		mux.HandleFunc("/readyz", func(w http.ResponseWriter, _ *http.Request) {
			fmt.Fprintln(w, "ready")
		})
		mux.HandleFunc("/v1/", func(w http.ResponseWriter, r *http.Request) {
			b, err := io.ReadAll(r.Body)
			if err != nil {
				t.Errorf("backend read body: %v", err)
			}
			if killed.CompareAndSwap(false, true) {
				// First attempt dies mid-request: abort the connection
				// with no response bytes, whichever shard owns the key.
				panic(http.ErrAbortHandler)
			}
			got.Store(string(b))
			w.Header().Set("Content-Type", "application/json")
			fmt.Fprint(w, `{"ok":true}`)
		})
		return httptest.NewServer(mux)
	}
	a, b := shard(), shard()
	defer a.Close()
	defer b.Close()
	rt := newTestRouter(t, []string{a.URL, b.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	resp := post(t, front.Client(), front.URL+"/v1/simulate", body)
	respBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("failover request: HTTP %d: %s", resp.StatusCode, respBody)
	}
	if resp.Header.Get("X-Ascendd-Failover") != "1" {
		t.Error("no X-Ascendd-Failover header: the first attempt was not killed")
	}
	replayed, _ := got.Load().(string)
	if replayed != body {
		t.Fatalf("surviving backend saw %d bytes, want the full %d-byte body", len(replayed), len(body))
	}
}

// TestRouterForwardsSearchQuery: /v1/optimize's search query reaches
// the shard through the router, and keys apart from the plain body, so
// a search request is neither answered greedily nor deduplicated onto a
// greedy one.
func TestRouterForwardsSearchQuery(t *testing.T) {
	shard := httptest.NewServer(serve.New(serve.Config{}))
	defer shard.Close()
	rt := newTestRouter(t, []string{shard.URL})
	front := httptest.NewServer(rt.Handler())
	defer front.Close()

	const body = `{"chip":"training","op":"add_relu"}`
	query := url.Values{"search": {"1"}, "beam": {"2"}}
	for _, tc := range []struct {
		query      string
		wantSearch bool
	}{{"", false}, {"?" + query.Encode(), true}} {
		resp := post(t, front.Client(), front.URL+"/v1/optimize"+tc.query, body)
		data, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("optimize%s: HTTP %d: %s", tc.query, resp.StatusCode, data)
		}
		var out serve.OptimizeResponse
		if err := json.Unmarshal(data, &out); err != nil {
			t.Fatal(err)
		}
		if (out.Search != nil) != tc.wantSearch {
			t.Errorf("optimize%s: search block present %v, want %v", tc.query, out.Search != nil, tc.wantSearch)
		}
	}

	folded, err := serve.FoldQuery("optimize", []byte(body), query)
	if err != nil {
		t.Fatal(err)
	}
	plainKey, err := serve.CanonicalKey("optimize", []byte(body))
	if err != nil {
		t.Fatal(err)
	}
	searchKey, err := serve.CanonicalKey("optimize", folded)
	if err != nil {
		t.Fatal(err)
	}
	if plainKey == searchKey {
		t.Error("search and plain optimize requests share a key")
	}

	resp := post(t, front.Client(), front.URL+"/v1/optimize?beam=wide", body)
	data, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(data), `"code":"bad_request"`) {
		t.Errorf("bad search query: HTTP %d %s, want the 400 bad_request envelope", resp.StatusCode, data)
	}
}
