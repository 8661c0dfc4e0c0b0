package cluster

import (
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"

	"ascendperf/internal/serve"
)

// stubTransport answers every request with 200 "{}" and records the
// host and path each one went to.
type stubTransport struct {
	mu   sync.Mutex
	seen []string
}

func (s *stubTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Body != nil {
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
	}
	s.mu.Lock()
	s.seen = append(s.seen, r.URL.Host+r.URL.Path)
	s.mu.Unlock()
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader("{}")),
		Request:    r,
	}, nil
}

func (s *stubTransport) take() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := s.seen
	s.seen = nil
	return out
}

// keyCompatProgram is an inline program whose label holds every byte
// class the canonical JSON form rewrites: HTML metacharacters, U+2028
// and an invalid UTF-8 byte.
const keyCompatProgram = "copy GM->UB bytes=64 reads=GM[0:64) writes=UB[0:64) ; a<b>&c d\xffe\n" +
	"Vector.FP16 ops=32 repeat=1 reads=UB[0:64) writes=UB[64:128)\n"

// TestKeyWireCompat pins the two places a request's canonical key
// leaves the process: the L2 wire key a shard requests from the shared
// cache (hex SHA-256 of the endpoint-qualified canonical key, the form
// cluster.WireKey produces) and the owner the router picks on a fixed
// 3-backend ring. Both are observed through the production paths with
// stubbed transports, so the test holds whatever type the key has in
// memory. A change here moves every cached entry and every shard
// assignment in a running cluster; it is a wire-format change
// (FORMATS.md §9.2–9.3), not a refactor.
func TestKeyWireCompat(t *testing.T) {
	cases := []struct {
		endpoint, body string
		wire, owner    string // wire is "" for bodies the shard rejects
	}{
		{"simulate", `{"chip":"training","op":"mul"}`, "6500461cd12c7c3cfe21052b3f08274b06b07acf52bc430bdb89e498ab73fed5", "http://shard-a.test"},
		{"simulate", "{ \"op\" : \"mul\",\n  \"chip\": \"training\" }", "6500461cd12c7c3cfe21052b3f08274b06b07acf52bc430bdb89e498ab73fed5", "http://shard-a.test"},
		{"simulate", `{"chip":"inference","op":"add_relu","optimized":true}`, "3b72b66c671090a01c3f808ea099c977d6a2feca5814a5cff9ae760ca0e4c955", "http://shard-c.test"},
		{"simulate", `{"op":"matmul","disable_hazards":true}`, "173360bf4f3dbd67df2061f1843ba453ea8fedc2d8530c48764842abc8b1efa4", "http://shard-a.test"},
		{"roofline", `{"chip":"training","op":"add_relu"}`, "54f39150a4f2129b872d5fe84c8ce8d956aeb961997bd0c916a28e09fd5fa1b1", "http://shard-b.test"},
		{"roofline", `{"optimized":true,"op":"add_relu","chip":"training"}`, "e44de2b37f798d21b6aff7dea838183d319ebf861bd3b202314d7176feca2864", "http://shard-b.test"},
		{"roofline", `{"chip":"training","program":` + jsonString(keyCompatProgram) + `}`, "afd7d17428692f01ea32a7416ba16da94d26eb8ddda4f5742b2786b4dc1c3a6e", "http://shard-b.test"},
		{"trace", `{"chip":"training","op":"mul"}`, "fc2854fda10842f275699189fd3e4d922f0909070ae25939a1fdedad6ecbc852", "http://shard-a.test"},
		{"trace", `{"program":` + jsonString(keyCompatProgram) + `,"chip":"tpu"}`, "c7b76b786f7c8817ca2d35236487efcafd6bae9057740be5279c5cec4ef55c10", "http://shard-c.test"},
		{"optimize", `{"chip":"training","op":"add_relu"}`, "13f926f45584a8a480e2affb2dbb60d25b2d81f1f447e6324156dd89ddbac85b", "http://shard-c.test"},
		{"optimize", `{"op":"add_relu","search":true,"beam":4,"budget":20}`, "e40f06a243f37263b4c4a7b3803fd4aa5b7ba565d2cbdb205d43cff0fe89ba85", "http://shard-b.test"},
		{"optimize", `{"budget":20, "beam":4, "search":true, "op":"add_relu"}`, "e40f06a243f37263b4c4a7b3803fd4aa5b7ba565d2cbdb205d43cff0fe89ba85", "http://shard-b.test"},
		{"model", `{"chip":"training","model":"MobileNetV3","top_n":3}`, "73307f58518f33049d24194930f2e23b381cf387670a3500e94f58fd3619c55a", "http://shard-a.test"},
		{"model", `{"chip":"training","workload":{"name":"tiny","ops":[{"op":"mul","count":3}]},"top_n":1}`, "c7b259221b466526277a1dbdb9fc861f16caa83affe0b0dc611af9d5dcd40cb0", "http://shard-c.test"},
		{"model", `{"top_n":1,"workload":{ "ops": [ {"count":3, "op":"mul"} ], "name": "tiny" },"chip":"training"}`, "fcccb68000e4436a60976fdabfb861f7ae8175c9707288811fad3eb55439d947", "http://shard-a.test"},
		{"graph", `{"chip":"training","model":"MobileNetV3","cores":2}`, "91bec99de5db9d9a1d40f294be6e18eadc9d3c5378f8f86445bca802e22de5eb", "http://shard-b.test"},
		{"graph", `{"model":"MobileNetV3"}`, "8f2f6f0485b1c9e2e9aa7356da6f72720b670cfb1b3f5bcacc665d571f1921bf", "http://shard-c.test"},
		{"graph", `{"chip":"training","cores":2,"workload":{"name":"pair","ops":[{"op":"mul","count":1},{"op":"add_relu","count":1}]}}`, "5cecc03e2e42ee36c6d312089f021e9b9fe64741ad7a7c0d55e21a15a450f37f", "http://shard-c.test"},
		{"simulate", `{"chip":"training","bogus":1}`, "", "http://shard-c.test"},
		{"roofline", `not json`, "", "http://shard-c.test"},
		{"optimize", `{"chip":"training"}`, "", "http://shard-a.test"},
	}

	backends := []string{"http://shard-a.test", "http://shard-b.test", "http://shard-c.test"}
	rt, err := NewRouter(RouterConfig{Backends: backends})
	if err != nil {
		t.Fatal(err)
	}
	routed := &stubTransport{}
	rt.client = &http.Client{Transport: routed}

	l2wire := &stubTransport{}
	l2 := NewL2Client("http://l2.test", 0)
	l2.client = &http.Client{Transport: l2wire}

	for i, c := range cases {
		// The owner: where the router forwards the body.
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+c.endpoint, strings.NewReader(c.body)))
		owner := rec.Header().Get("X-Ascendd-Route")
		if got := routed.take(); len(got) != 1 || "http://"+got[0] != owner+"/v1/"+c.endpoint {
			t.Fatalf("case %d: router forwarded to %v, reported route %q", i, got, owner)
		}

		// The wire key: what a shard asks the L2 tier for. The stub
		// answers the lookup, so nothing is simulated.
		srv := serve.New(serve.Config{L2: l2, ResponseCache: -1})
		rec = httptest.NewRecorder()
		srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/"+c.endpoint, strings.NewReader(c.body)))
		wire := ""
		if got := l2wire.take(); len(got) > 0 {
			if len(got) != 1 || !strings.HasPrefix(got[0], "l2.test/l2/") {
				t.Fatalf("case %d: L2 traffic %v", i, got)
			}
			wire = strings.TrimPrefix(got[0], "l2.test/l2/")
		}
		if (wire == "") != (rec.Code != http.StatusOK) {
			t.Fatalf("case %d: HTTP %d with wire key %q: %s", i, rec.Code, wire, rec.Body)
		}

		if wire != c.wire || owner != c.owner {
			t.Errorf("case %d (%s %q):\n  wire  %q, want %q\n  owner %q, want %q", i, c.endpoint, c.body, wire, c.wire, owner, c.owner)
		}
	}
}

// jsonString quotes s as a JSON string literal without escaping HTML
// metacharacters or replacing invalid UTF-8, so the request body
// carries the raw bytes and canonicalization has to rewrite them.
func jsonString(s string) string {
	var b strings.Builder
	b.WriteByte('"')
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"', '\\':
			b.WriteByte('\\')
			b.WriteByte(c)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteByte(c)
		}
	}
	b.WriteByte('"')
	return b.String()
}
