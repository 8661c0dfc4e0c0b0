// Package stats walks the counter declarations behind ascendd's
// /v1/stats, its /metrics page and ascendrouter's cluster sum. A
// declaration is one struct field whose tags give every name it is
// served under:
//
//	CacheHits uint64 `json:"cache_hits" metric:"ascendd_engine_cache_hits_total" kind:"counter" help:"Memory simulation cache hits."`
//
// json is the /v1/stats key, metric the unlabelled Prometheus series
// (absent for fields served on /v1/stats only, such as derived ratios
// and per-label maps), kind is counter or gauge, and help is the
// one-line meaning shared by the exposition page and FORMATS.md.
//
// The walks use reflection, so they run at snapshot, render and sum
// time only. Increments stay single sync/atomic adds on the field of a
// live registry value; Load reads such a value back.
package stats

import (
	"reflect"
	"strings"
	"sync/atomic"
)

// Field is one declared leaf of a stats struct.
type Field struct {
	// Path is the dotted /v1/stats key, e.g. "engine.cache_hits".
	Path   string
	Metric string
	Kind   string
	Help   string
	// Value is the field itself, settable.
	Value reflect.Value
}

// Fields returns every leaf field of the struct v points to, in
// declaration order, recursing into nested structs.
func Fields(v any) []Field {
	var out []Field
	walk(reflect.ValueOf(v).Elem(), "", &out)
	return out
}

func walk(v reflect.Value, prefix string, out *[]Field) {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		name, _, _ := strings.Cut(f.Tag.Get("json"), ",")
		if v.Field(i).Kind() == reflect.Struct {
			walk(v.Field(i), prefix+name+".", out)
			continue
		}
		*out = append(*out, Field{
			Path:   prefix + name,
			Metric: f.Tag.Get("metric"),
			Kind:   f.Tag.Get("kind"),
			Help:   f.Tag.Get("help"),
			Value:  v.Field(i),
		})
	}
}

// Load returns a copy of the live registry *live whose uint64 fields are
// read with atomic loads; every other field is left zero for the caller
// to fill from its own source. Writers use atomic.AddUint64 on the same
// fields. The registry must be 64-bit aligned for those atomics, which
// every 64-bit platform guarantees.
func Load[T any](live *T) T {
	var out T
	src, dst := reflect.ValueOf(live).Elem(), reflect.ValueOf(&out).Elem()
	for i := 0; i < src.NumField(); i++ {
		if f := src.Field(i); f.Kind() == reflect.Uint64 {
			dst.Field(i).SetUint(atomic.LoadUint64(f.Addr().Interface().(*uint64)))
		}
	}
	return out
}

// Add adds every numeric field and every map entry of *src into *dst,
// recursing into nested structs. Derived fields such as ratios come out
// as sums, so the caller recomputes them.
func Add[T any](dst, src *T) {
	add(reflect.ValueOf(dst).Elem(), reflect.ValueOf(src).Elem())
}

func add(dst, src reflect.Value) {
	switch {
	case dst.Kind() == reflect.Struct:
		for i := 0; i < dst.NumField(); i++ {
			add(dst.Field(i), src.Field(i))
		}
	case dst.Kind() == reflect.Map:
		if dst.IsNil() {
			dst.Set(reflect.MakeMap(dst.Type()))
		}
		for it := src.MapRange(); it.Next(); {
			sum := reflect.New(dst.Type().Elem()).Elem()
			if cur := dst.MapIndex(it.Key()); cur.IsValid() {
				sum.Set(cur)
			}
			add(sum, it.Value())
			dst.SetMapIndex(it.Key(), sum)
		}
	case dst.CanUint():
		dst.SetUint(dst.Uint() + src.Uint())
	case dst.CanInt():
		dst.SetInt(dst.Int() + src.Int())
	case dst.CanFloat():
		dst.SetFloat(dst.Float() + src.Float())
	}
}
