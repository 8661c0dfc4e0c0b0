package serve

import (
	"encoding/json"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
)

// simulateEndpoints are the endpoints whose body is a SimulateRequest.
var simulateEndpoints = []string{"simulate", "roofline", "trace"}

// decodeReference is the encoding/json decoder and key that
// decodeSimulateRequest must agree with on every body.
func decodeReference(endpoint string, body []byte) (SimulateRequest, [32]byte, error) {
	var req SimulateRequest
	if err := decodeStrict(body, &req); err != nil {
		return SimulateRequest{}, [32]byte{}, err
	}
	return req, requestKey(endpoint, req), nil
}

// genProgramBody is a /v1/* body carrying a generated program of n
// instructions, encoded as clients encode it.
func genProgramBody(t testing.TB, n int) []byte {
	t.Helper()
	prog := check.GenProgram(hw.TrainingChip(), rand.New(rand.NewSource(1)), n)
	body, err := json.Marshal(SimulateRequest{Chip: "training", Program: prog.Disassemble()})
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// FuzzDecodeSimulate holds the one-pass decoder to encoding/json: for
// every body and each SimulateRequest endpoint, both accept or both
// reject, with the same decoded value, the same key and the same error.
func FuzzDecodeSimulate(f *testing.F) {
	seeds := []string{
		`{"chip":"training","op":"mul"}`,
		` { "op" : "add_relu" , "chip" : "inference" , "optimized" : true } `,
		`{"program":"copy GM->UB bytes=64 ; a<b>&c\nVector.FP16 ops=1\n","disable_hazards":false}`,
		`{"program":"a\u003Cb"}`,
		`{"program":"a\u003cb\u0026c\u003e"}`,
		`{"program":"a\u0041\u000A\u000a\u0022\u005c"}`,
		`{"program":"a\/b"}`,
		`{"program":"<a&b>"}`,
		`{"program":"\"\\\b\f\n\r\t\u0000\u001f\u0008\u000aA\u007f"}`,
		`{"op":"mul","op":"","OP":"matmul","Chip":"training","CHIP":"tpu"}`,
		`{"Optimized":true,"optimized":false,"DISABLE_HAZARDS":true}`,
		`{"chip":null,"op":"mul"}`,
		`{"op":"mul","optimized":1}`,
		`{"op":true}`,
		"{\"di\u017fable_hazards\":true,\"op\":\"mul\"}",
		`{"di\u017fable_hazards":true,"op":"mul"}`,
		"{\"\u212aop\":\"mul\",\"op\u212a\":\"mul\"}",
		"{\"program\":\"a\xffb\"}",
		"{\"program\":\"a\u2028b\"}",
		`{"program":"a\u2028b"}`,
		`{"program":"a b\u00e9\ud83d\ude00\ud800"}`,
		"{\"program\":\"tab\there\"}",
		`{"op":"mul"} }`,
		`{"op":"mul"} {"op":"mul"}`,
		`{"op":"mul",}`,
		`{"op" "mul"}`,
		`{"op":"mul"`,
		`{"op":"mu`,
		`{"op":"\q"}`,
		`{"op":"\u12"}`,
		`{"bogus":"x"}`,
		`{"chip":"training","op":"mul"}`,
		`{}`,
		" \t\r\n{ }\n",
		``,
		`[]`,
		`{"optimized":truex}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Add(genProgramBody(f, 50))
	f.Fuzz(func(t *testing.T, body []byte) {
		for _, ep := range simulateEndpoints {
			got, gotKey, gotErr := decodeSimulateRequest(ep, body)
			want, wantKey, wantErr := decodeReference(ep, body)
			if (gotErr == nil) != (wantErr == nil) {
				t.Fatalf("%s %q: error %v, encoding/json %v", ep, body, gotErr, wantErr)
			}
			if wantErr != nil {
				var ga, wa *apiError
				if !errors.As(gotErr, &ga) || !errors.As(wantErr, &wa) || *ga != *wa {
					t.Fatalf("%s %q: error %#v, encoding/json %#v", ep, body, gotErr, wantErr)
				}
				continue
			}
			if got != want {
				t.Fatalf("%s %q: decoded %+v, encoding/json %+v", ep, body, got, want)
			}
			if gotKey != wantKey {
				t.Fatalf("%s %q: key %x, encoding/json %x", ep, body, gotKey, wantKey)
			}
		}
	})
}

// TestSimulateFields holds the decoder's field table to SimulateRequest:
// the same JSON names in declaration order, the two flags bool and the
// rest strings.
func TestSimulateFields(t *testing.T) {
	typ := reflect.TypeOf(SimulateRequest{})
	if typ.NumField() != len(simulateFields) {
		t.Fatalf("SimulateRequest has %d fields, the decoder knows %d", typ.NumField(), len(simulateFields))
	}
	for i, name := range simulateFields {
		sf := typ.Field(i)
		tag, _, _ := strings.Cut(sf.Tag.Get("json"), ",")
		want := reflect.String
		if i == fieldOptimized || i == fieldDisableHazards {
			want = reflect.Bool
		}
		if tag != name || sf.Type.Kind() != want {
			t.Errorf("field %d: %s %s, decoder expects %q of kind %s", i, tag, sf.Type.Kind(), name, want)
		}
	}
}

// TestDecodeSimulateAllocs pins the one-pass path on a generated
// 2000-instruction program body: it allocates one buffer for every
// decoded string, where falling back to encoding/json costs over 20.
func TestDecodeSimulateAllocs(t *testing.T) {
	body := genProgramBody(t, 2000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, _, err := decodeSimulateRequest("roofline", body); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("decoding a %d-byte body makes %.0f allocations, want at most 2", len(body), allocs)
	}
}

// BenchmarkDecodeRequest decodes and keys a generated 2000-instruction
// program body with encoding/json (decodeStrict + requestKey) and with
// the one-pass decoder.
func BenchmarkDecodeRequest(b *testing.B) {
	body := genProgramBody(b, 2000)
	for _, bc := range []struct {
		name   string
		decode func(string, []byte) (SimulateRequest, [32]byte, error)
	}{
		{"encoding_json", decodeReference},
		{"one_pass", decodeSimulateRequest},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, err := bc.decode("roofline", body); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
