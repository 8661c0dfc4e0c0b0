package cluster

import (
	"io"
	"net/http/httptest"
	"strings"
	"testing"

	"ascendperf/internal/serve"
)

// TestL2SharedAcrossShards is the shared-cache tier end to end with
// real serving stacks: shard A simulates a request cold and fills the
// L2; shard B — a different process-state entirely, empty local LRU —
// answers the same canonical request from the L2 without simulating,
// and says so via X-Ascendd-L2. This is also the restart story: a
// rebooted shard warm-starts from its peers' work.
func TestL2SharedAcrossShards(t *testing.T) {
	cacheSrv := httptest.NewServer(mustCacheServer(t))
	defer cacheSrv.Close()
	l2 := NewL2Client(cacheSrv.URL, 0)

	shardA := httptest.NewServer(serve.New(serve.Config{L2: l2}))
	defer shardA.Close()
	shardB := httptest.NewServer(serve.New(serve.Config{L2: l2}))
	defer shardB.Close()

	const body = `{"chip":"training","op":"mul"}`

	// Cold on A: simulated locally, filled into L2.
	resp, err := shardA.Client().Post(shardA.URL+"/v1/roofline", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	first, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("cold request: HTTP %d: %s", resp.StatusCode, first)
	}
	if resp.Header.Get("X-Ascendd-L2") == "hit" {
		t.Fatal("cold request claims an L2 hit")
	}

	// Same canonical request on B, different field order: L2 hit,
	// byte-identical body, no simulation.
	resp, err = shardB.Client().Post(shardB.URL+"/v1/roofline", "application/json",
		strings.NewReader(`{ "op": "mul", "chip": "training" }`))
	if err != nil {
		t.Fatal(err)
	}
	second, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("L2 request: HTTP %d: %s", resp.StatusCode, second)
	}
	if resp.Header.Get("X-Ascendd-L2") != "hit" {
		t.Error("shard B did not serve from L2")
	}
	if string(first) != string(second) {
		t.Error("L2 body differs from the original response")
	}

	// Repeat on B: now the local response LRU answers, not the L2.
	resp, err = shardB.Client().Post(shardB.URL+"/v1/roofline", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Ascendd-Cache") != "hit" {
		t.Error("local LRU did not absorb the repeat after an L2 fill")
	}
}

func mustCacheServer(t *testing.T) *CacheServer {
	t.Helper()
	cs, err := NewCacheServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	return cs
}

// TestCanonicalKeyMatchesServe locks the router/shard contract: the
// exported canonicalization must treat field order and whitespace as
// irrelevant and endpoint as significant.
func TestCanonicalKeyMatchesServe(t *testing.T) {
	k1, err := serve.CanonicalKey("simulate", []byte(`{"chip":"training","op":"mul"}`))
	if err != nil {
		t.Fatal(err)
	}
	k2, err := serve.CanonicalKey("simulate", []byte(`{ "op": "mul", "chip": "training" }`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("equivalent bodies canonicalize differently:\n%x\n%x", k1, k2)
	}
	k3, err := serve.CanonicalKey("roofline", []byte(`{"chip":"training","op":"mul"}`))
	if err != nil {
		t.Fatal(err)
	}
	if k1 == k3 {
		t.Error("different endpoints share a canonical key")
	}
	if _, err := serve.CanonicalKey("nope", nil); err == nil {
		t.Error("unknown endpoint accepted")
	}
	if _, err := serve.CanonicalKey("simulate", []byte(`{"bogus":1}`)); err == nil {
		t.Error("malformed body canonicalized without error")
	}
}
