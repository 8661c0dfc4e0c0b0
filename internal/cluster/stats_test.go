package cluster

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"ascendperf/internal/serve"
	"ascendperf/internal/stats"
)

// statsBackend serves a fixed /v1/stats document.
func statsBackend(t *testing.T, st serve.StatsResponse) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		json.NewEncoder(w).Encode(st)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// distinctStats puts a distinct value in every declared number and two
// entries in every declared map: one key both backends share, one key
// only this backend has.
func distinctStats(base int, only string) serve.StatsResponse {
	var st serve.StatsResponse
	for i, f := range stats.Fields(&st) {
		v := reflect.ValueOf(base + i)
		if f.Value.Kind() == reflect.Map {
			elem := f.Value.Type().Elem()
			f.Value.Set(reflect.MakeMap(f.Value.Type()))
			f.Value.SetMapIndex(reflect.ValueOf("shared"), v.Convert(elem))
			f.Value.SetMapIndex(reflect.ValueOf(only), reflect.ValueOf(base+i+1).Convert(elem))
			continue
		}
		f.Value.Set(v.Convert(f.Value.Type()))
	}
	return st
}

// TestRouterStatsSum: the router's /v1/stats is the sum of every
// backend's, field by field and map entry by map entry, with
// cache_hit_rate recomputed from the summed hits and misses. The test
// walks the declaration, so a counter declared later is covered as is.
func TestRouterStatsSum(t *testing.T) {
	a, b := distinctStats(1, "only_a"), distinctStats(1000, "only_b")
	rt, err := NewRouter(RouterConfig{Backends: []string{statsBackend(t, a).URL, statsBackend(t, b).URL}})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(rt.Handler())
	defer front.Close()
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	var got serve.StatsResponse
	err = json.NewDecoder(resp.Body).Decode(&got)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}

	num := func(v reflect.Value) float64 { return v.Convert(reflect.TypeOf(0.0)).Float() }
	fa, fb := stats.Fields(&a), stats.Fields(&b)
	for i, f := range stats.Fields(&got) {
		if f.Path == "engine.cache_hit_rate" {
			hits, misses := float64(got.Engine.CacheHits), float64(got.Engine.CacheMisses)
			if want := hits / (hits + misses); f.Value.Float() != want {
				t.Errorf("%s = %v, want %v recomputed from the summed counters", f.Path, f.Value.Float(), want)
			}
			continue
		}
		if f.Value.Kind() != reflect.Map {
			if want := num(fa[i].Value) + num(fb[i].Value); num(f.Value) != want {
				t.Errorf("%s = %v, want %v", f.Path, num(f.Value), want)
			}
			continue
		}
		want := map[string]float64{}
		for _, m := range []reflect.Value{fa[i].Value, fb[i].Value} {
			for it := m.MapRange(); it.Next(); {
				want[it.Key().String()] += num(it.Value())
			}
		}
		if f.Value.Len() != len(want) {
			t.Errorf("%s has %d entries, want %d", f.Path, f.Value.Len(), len(want))
		}
		for k, w := range want {
			if v := f.Value.MapIndex(reflect.ValueOf(k)); !v.IsValid() || num(v) != w {
				t.Errorf("%s[%s] = %v, want %v", f.Path, k, v, w)
			}
		}
	}
}
