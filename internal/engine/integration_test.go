package engine_test

import (
	"testing"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/model"
)

// TestParallelAnalysisDeterminism proves the acceptance criterion of
// the engine: analyzing every Table 2 workload with the parallel,
// cached runner produces byte-identical reports to the serial,
// uncached runner. All reductions in the hot paths fold results in
// index order, so even the floating-point sums match exactly.
func TestParallelAnalysisDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("full workload sweep")
	}
	defer engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	chip := hw.TrainingChip()
	models := model.All()
	if len(models) != 11 {
		t.Fatalf("expected 11 workloads, got %d", len(models))
	}

	// Serial, cache disabled: the reference output.
	engine.SetCacheCapacity(0)
	serial := model.NewRunner(chip)
	serial.Workers = 1
	want := make([]string, len(models))
	for i, m := range models {
		res, err := serial.Run(m)
		if err != nil {
			t.Fatalf("%s serial: %v", m.Name, err)
		}
		want[i] = res.Report()
	}

	// Parallel with a cold cache, then again with a warm cache: both
	// must reproduce the serial bytes.
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	for pass := 0; pass < 2; pass++ {
		parallel := model.NewRunner(chip)
		parallel.Workers = 8
		for i, m := range models {
			res, err := parallel.Run(m)
			if err != nil {
				t.Fatalf("%s parallel pass %d: %v", m.Name, pass, err)
			}
			if got := res.Report(); got != want[i] {
				t.Errorf("%s: parallel pass %d report differs from serial\nserial:\n%s\nparallel:\n%s",
					m.Name, pass, want[i], got)
			}
		}
	}
	if st := engine.DefaultCache().Stats(); st.Hits == 0 {
		t.Errorf("warm pass produced no cache hits: %+v", st)
	}
}

// TestOptimizeDeterminism checks the optimize loop end to end: the
// iterative analyze→optimize cycle with parallel candidate evaluation
// and a shared cache must match the serial, uncached run byte for
// byte, and the cycle must actually reuse simulations through the
// engine cache.
func TestOptimizeDeterminism(t *testing.T) {
	defer engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	chip := hw.TrainingChip()
	m := model.All()[0] // MobileNetV3, the smallest sweep

	engine.SetCacheCapacity(0)
	serial := model.NewRunner(chip)
	serial.Workers = 1
	ref, err := serial.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}

	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	parallel := model.NewRunner(chip)
	parallel.Workers = 8
	got, err := parallel.Optimize(m)
	if err != nil {
		t.Fatal(err)
	}
	if ref.Report() != got.Report() {
		t.Errorf("optimize report differs between serial and parallel+cached runs\nserial:\n%s\nparallel:\n%s",
			ref.Report(), got.Report())
	}
	if st := engine.DefaultCache().Stats(); st.Hits == 0 {
		t.Errorf("optimize loop reused no simulations: cache %+v", st)
	}
}
