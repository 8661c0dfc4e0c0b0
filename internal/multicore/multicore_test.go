package multicore

import (
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

func TestPerCoreChipSharesGMOnly(t *testing.T) {
	chip := hw.TrainingChip()
	per := PerCoreChip(chip, 4)
	if per.Paths[hw.PathGMToUB].Bandwidth != chip.Paths[hw.PathGMToUB].Bandwidth/4 {
		t.Error("GM->UB bandwidth not shared")
	}
	if per.Paths[hw.PathUBToGM].Bandwidth != chip.Paths[hw.PathUBToGM].Bandwidth/4 {
		t.Error("UB->GM bandwidth not shared")
	}
	if per.Paths[hw.PathL1ToL0A].Bandwidth != chip.Paths[hw.PathL1ToL0A].Bandwidth {
		t.Error("on-chip bandwidth must stay private")
	}
	if err := per.Validate(); err != nil {
		t.Fatal(err)
	}
	if PerCoreChip(chip, 0).Paths[hw.PathGMToUB].Bandwidth != chip.Paths[hw.PathGMToUB].Bandwidth {
		t.Error("cores < 1 must clamp to 1")
	}
}

// TestPerCoreChipShared: concurrent derivations for one (chip, cores)
// pair return one chip, equal to a fresh derivation; another core count
// or base chip gets its own.
func TestPerCoreChipShared(t *testing.T) {
	chip := hw.TrainingChip()
	got := make([]*hw.Chip, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = PerCoreChip(chip, 4)
		}(i)
	}
	wg.Wait()
	for i, c := range got {
		if c != got[0] {
			t.Fatalf("derivation %d returned a different chip", i)
		}
	}
	if !reflect.DeepEqual(got[0], derivePerCore(chip, 4)) {
		t.Error("shared per-core chip differs from a fresh derivation")
	}
	if PerCoreChip(chip, 2) == got[0] || PerCoreChip(hw.TrainingChip(), 4) == got[0] {
		t.Error("a different core count or base chip shares the derived chip")
	}
	if PerCoreChip(chip, 0) != PerCoreChip(chip, 1) {
		t.Error("cores 0 and 1 derive different chips")
	}
}

// TestBalancedRun: an even split across 4 cores processes all units and
// reports near-1 imbalance, and cores given identical slices share one
// simulation even though they run in parallel.
func TestBalancedRun(t *testing.T) {
	defer engine.SetWorkers(0)
	defer engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	engine.SetWorkers(4)
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	chip := hw.TrainingChip()
	k := kernels.NewLayerNorm() // well-pipelined, scales cleanly
	runs0 := sim.ReadCounters().Runs
	r, err := Run(chip, k, k.Baseline(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	slices := map[float64]bool{}
	for _, share := range r.Shares {
		slices[share] = true
	}
	if runs := sim.ReadCounters().Runs - runs0; runs != uint64(len(slices)) {
		t.Errorf("4 cores with %d distinct slices ran %d simulations", len(slices), runs)
	}
	if r.Imbalance() > 1.1 {
		t.Errorf("balanced imbalance = %.3f", r.Imbalance())
	}
	var units int64
	for i, p := range r.PerCore {
		if p == nil {
			t.Fatalf("core %d idle in balanced run", i)
		}
		units += int64(r.Shares[i] * float64(k.PartitionUnits()))
	}
	if math.Abs(float64(units)-float64(k.PartitionUnits())) > 4 {
		t.Errorf("units processed %d != total %d", units, k.PartitionUnits())
	}
}

// TestSkewedAllocationHurts: the straggler core sets the makespan even
// though total work is identical — the task-allocation defect.
func TestSkewedAllocationHurts(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.NewLayerNorm()
	balanced, err := Run(chip, k, k.Baseline(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	skewed, err := Run(chip, k, k.Baseline(), 4, []float64{4, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	if skewed.Makespan <= balanced.Makespan {
		t.Errorf("skewed makespan %.1f not worse than balanced %.1f",
			skewed.Makespan/1000, balanced.Makespan/1000)
	}
	if skewed.Imbalance() <= balanced.Imbalance() {
		t.Error("skewed allocation should report higher imbalance")
	}
}

// TestGMBoundStopsScaling: a GM-bound elementwise operator saturates the
// shared links — speedup flattens — while a compute-heavy conv keeps
// scaling further. The chip-level version of the paper's bandwidth-wall
// insight.
func TestGMBoundStopsScaling(t *testing.T) {
	chip := hw.TrainingChip()

	ew := kernels.NewLayerNorm()
	ewCurve, err := ScalingCurve(chip, ew, kernels.FullyOptimized(ew), 16)
	if err != nil {
		t.Fatal(err)
	}
	// A compute-dominated GEMM: heavy MACs per loaded byte, no epilogue.
	gemm := kernels.NewMatMul()
	gemm.Steps = 24
	gemm.CubeOpsPerStep = 128 << 20
	gemm.EpilogueOpsPerStep = 0
	convCurve, err := ScalingCurve(chip, gemm, gemm.Baseline(), 8)
	if err != nil {
		t.Fatal(err)
	}
	last := func(c []ScalePoint) ScalePoint { return c[len(c)-1] }
	// The elementwise operator's speedup must be far below linear.
	ewEff := last(ewCurve).Speedup / float64(last(ewCurve).Cores)
	if ewEff > 0.5 {
		t.Errorf("GM-bound operator scaled too well: efficiency %.2f at %d cores",
			ewEff, last(ewCurve).Cores)
	}
	// The compute-dominated GEMM must retain far better efficiency at 8
	// cores than the elementwise operator.
	var ew8, conv8 float64
	for _, p := range ewCurve {
		if p.Cores == 8 {
			ew8 = p.Speedup
		}
	}
	for _, p := range convCurve {
		if p.Cores == 8 {
			conv8 = p.Speedup
		}
	}
	if conv8 < 2*ew8 {
		t.Errorf("compute-bound speedup %.2f not well above GM-bound %.2f at 8 cores", conv8, ew8)
	}
	// Past the bandwidth wall, adding cores can even REGRESS slightly:
	// each core pays its own per-transfer setup against a thinner GM
	// share. Allow that, but bound how bad it gets.
	for _, p := range ewCurve {
		if p.Speedup < 0.85 {
			t.Errorf("over-subscription too costly at %d cores: %.2fx", p.Cores, p.Speedup)
		}
	}
}

func TestRunErrors(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.NewAvgPool() // 4 tiles
	if _, err := Run(chip, k, k.Baseline(), 0, nil); err == nil {
		t.Error("zero cores accepted")
	}
	if _, err := Run(chip, k, k.Baseline(), 8, nil); err == nil {
		t.Error("more cores than units accepted")
	}
	if _, err := Run(chip, k, k.Baseline(), 2, []float64{1}); err == nil {
		t.Error("mismatched shares accepted")
	}
	if _, err := Run(chip, k, k.Baseline(), 2, []float64{-1, 2}); err == nil {
		t.Error("negative share accepted")
	}
	if _, err := Run(chip, k, k.Baseline(), 2, []float64{0, 0}); err == nil {
		t.Error("all-zero shares accepted")
	}
}

func TestSummary(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.NewMatMul()
	r, err := Run(chip, k, k.Baseline(), 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	s := r.Summary()
	for _, want := range []string{"4 cores", "makespan", "core  0"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}
