package serve

import (
	"encoding/json"
	"errors"
	"net/http"
	"testing"
)

// requestTypes maps each analysis endpoint to a fresh value of the typed
// request its parser decodes, so the fuzz target can re-marshal an
// accepted body into its canonical form independently of the parser.
var requestTypes = map[string]func() any{
	"simulate": func() any { return new(SimulateRequest) },
	"roofline": func() any { return new(RooflineRequest) },
	"trace":    func() any { return new(TraceRequest) },
	"optimize": func() any { return new(OptimizeRequest) },
	"model":    func() any { return new(ModelRequest) },
	"graph":    func() any { return new(GraphRequest) },
}

// FuzzDecodeRequest feeds arbitrary bodies to every analysis parser. No
// input may panic; every rejection must be an *apiError with status 400
// or 404, which the handler turns into the error envelope; and an
// accepted body must share its key with its own re-marshalled canonical
// form, so field order, whitespace and escaping never split a flight or
// a cache entry.
func FuzzDecodeRequest(f *testing.F) {
	endpoints := AnalysisEndpoints()
	if len(endpoints) != len(requestTypes) {
		f.Fatalf("endpoints %v, request types for %d", endpoints, len(requestTypes))
	}
	seeds := []string{
		`{"chip":"training","op":"mul"}`,
		`{ "op": "add_relu", "chip": "inference", "optimized": true }`,
		`{"chip":"training","program":"copy GM->UB bytes=64 ; <a&b> "}`,
		"{\"program\":\"Vector.FP16 ops=1 ; \xff\"}",
		`{"op":"add_relu","search":true,"beam":4,"budget":20}`,
		`{"chip":"training","workload":{"name":"tiny","ops":[{"op":"mul","count":3}]},"top_n":1}`,
		`{"model":"MobileNetV3","cores":2}`,
		`{"workload":null}`,
		`{"chip":"training"} {}`,
		`{} }`,
		`{"CHIP":"training","Op":"mul"}`,
		`not json`,
	}
	for i, s := range seeds {
		f.Add(uint8(i), []byte(s))
	}
	f.Fuzz(func(t *testing.T, which uint8, body []byte) {
		ep := endpoints[int(which)%len(endpoints)]
		key, err := CanonicalKey(ep, body)
		if err != nil {
			var ae *apiError
			if !errors.As(err, &ae) {
				t.Fatalf("%s: error %T %q is not an *apiError", ep, err, err)
			}
			if ae.status != http.StatusBadRequest && ae.status != http.StatusNotFound {
				t.Fatalf("%s: error %q has status %d", ep, err, ae.status)
			}
			return
		}
		req := requestTypes[ep]()
		if err := json.Unmarshal(body, req); err != nil {
			t.Fatalf("%s: accepted body does not decode: %v", ep, err)
		}
		canon, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("%s: re-marshal: %v", ep, err)
		}
		again, err := CanonicalKey(ep, canon)
		if err != nil {
			t.Fatalf("%s: canonical form %s rejected: %v", ep, canon, err)
		}
		if again != key {
			t.Fatalf("%s: body %q and its canonical form %s have different keys", ep, body, canon)
		}
	})
}
