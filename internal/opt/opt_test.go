package opt

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"ascendperf/internal/core"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

func TestAdviseMapping(t *testing.T) {
	cases := map[core.Cause][]kernels.Strategy{
		core.CauseInsufficientParallelism: {kernels.RSD, kernels.AIS, kernels.RUS, kernels.PP},
		core.CauseInefficientMTE:          {kernels.ITG, kernels.MRT},
		core.CauseInefficientCompute:      {kernels.AIP},
		core.CauseMTEBound:                {kernels.MRT, kernels.OP, kernels.TT},
		core.CauseComputeBound:            {kernels.EA, kernels.LC, kernels.CT},
	}
	for cause, want := range cases {
		got := Advise(cause)
		if len(got) != len(want) {
			t.Errorf("%s: got %v, want %v", cause, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: got %v, want %v", cause, got, want)
				break
			}
		}
	}
	if Advise(core.CauseIdle) != nil {
		t.Error("idle cause should advise nothing")
	}
}

func TestOptimizeAddReLUFollowsPaperSequence(t *testing.T) {
	o := New(hw.TrainingChip())
	res, err := o.Optimize(kernels.NewAddReLU())
	if err != nil {
		t.Fatal(err)
	}
	applied := res.Applied()
	if len(applied) != 2 || applied[0] != kernels.RSD || applied[1] != kernels.MRT {
		t.Errorf("applied = %v, want [RSD MRT]", applied)
	}
	// The bottleneck trail matches Section 5.1: IP at baseline, MTE-UB
	// bound when MRT is chosen, MTE-UB bound at the end.
	if res.InitialAnalysis.Cause != core.CauseInsufficientParallelism {
		t.Errorf("initial cause = %s", res.InitialAnalysis.Cause)
	}
	if res.Steps[1].Analysis.Cause != core.CauseMTEBound {
		t.Errorf("iteration 2 cause = %s, want MTE Bound", res.Steps[1].Analysis.Cause)
	}
	if res.FinalAnalysis.Cause != core.CauseMTEBound || res.FinalAnalysis.Bound != hw.CompMTEUB {
		t.Errorf("final cause = %s (%s), want MTE Bound (MTE-UB)", res.FinalAnalysis.Cause, res.FinalAnalysis.Bound)
	}
	if res.Speedup() < 1.2 {
		t.Errorf("speedup = %.2f, want > 1.2", res.Speedup())
	}
}

func TestOptimizeAvgPoolAppliesAIP(t *testing.T) {
	o := New(hw.TrainingChip())
	res, err := o.Optimize(kernels.NewAvgPool())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 1 || res.Steps[0].Applied != kernels.AIP {
		t.Fatalf("applied = %v, want [AIP]", res.Applied())
	}
	if res.InitialAnalysis.Cause != core.CauseInefficientCompute {
		t.Errorf("initial cause = %s", res.InitialAnalysis.Cause)
	}
	if res.Speedup() < 3 {
		t.Errorf("speedup = %.2f, want > 3", res.Speedup())
	}
}

func TestOptimizeNeverAppliesUnsupported(t *testing.T) {
	o := New(hw.TrainingChip())
	for _, k := range kernels.Table1Kernels() {
		res, err := o.Optimize(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		supported := map[kernels.Strategy]bool{}
		for _, s := range k.Supported() {
			supported[s] = true
		}
		seen := map[kernels.Strategy]bool{}
		for _, s := range res.Applied() {
			if !supported[s] {
				t.Errorf("%s: applied unsupported strategy %s", k.Name(), s)
			}
			if seen[s] {
				t.Errorf("%s: strategy %s applied twice", k.Name(), s)
			}
			seen[s] = true
		}
	}
}

func TestOptimizeMonotoneImprovement(t *testing.T) {
	o := New(hw.TrainingChip())
	for _, k := range kernels.Table1Kernels() {
		res, err := o.Optimize(k)
		if err != nil {
			t.Fatalf("%s: %v", k.Name(), err)
		}
		if res.FinalTime > res.InitialTime {
			t.Errorf("%s: optimization regressed %.1f -> %.1f us",
				k.Name(), res.InitialTime/1000, res.FinalTime/1000)
		}
		prev := res.InitialTime
		for _, s := range res.Steps {
			if s.TimeAfter >= s.TimeBefore {
				t.Errorf("%s iter %d: accepted non-improving step", k.Name(), s.Iteration)
			}
			if s.TimeBefore != prev {
				t.Errorf("%s iter %d: discontinuous times", k.Name(), s.Iteration)
			}
			prev = s.TimeAfter
		}
		if len(res.Steps) > 0 && prev != res.FinalTime {
			t.Errorf("%s: final time mismatch", k.Name())
		}
	}
}

func TestOptimizeRespectsMaxIterations(t *testing.T) {
	o := New(hw.TrainingChip())
	o.MaxIterations = 1
	res, err := o.Optimize(kernels.NewDepthwise())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) > 1 {
		t.Errorf("steps = %d, want <= 1", len(res.Steps))
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	o := New(hw.TrainingChip())
	a, err := o.Optimize(kernels.NewDepthwise())
	if err != nil {
		t.Fatal(err)
	}
	b, err := o.Optimize(kernels.NewDepthwise())
	if err != nil {
		t.Fatal(err)
	}
	if a.FinalTime != b.FinalTime || len(a.Steps) != len(b.Steps) {
		t.Fatal("optimizer is nondeterministic")
	}
	for i := range a.Steps {
		if a.Steps[i].Applied != b.Steps[i].Applied {
			t.Fatalf("step %d differs: %s vs %s", i, a.Steps[i].Applied, b.Steps[i].Applied)
		}
	}
}

func TestOptimizeAlreadyOptimalKernel(t *testing.T) {
	// LayerNorm supports no strategies: the loop terminates immediately
	// with no steps and unchanged time.
	o := New(hw.TrainingChip())
	res, err := o.Optimize(kernels.NewLayerNorm())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 0 {
		t.Errorf("steps = %v, want none", res.Applied())
	}
	if res.FinalTime != res.InitialTime {
		t.Error("time changed with no steps")
	}
}

func TestSummaryContents(t *testing.T) {
	o := New(hw.TrainingChip())
	res, err := o.Optimize(kernels.NewAddReLU())
	if err != nil {
		t.Fatal(err)
	}
	s := res.Summary()
	for _, want := range []string{"add_relu", "RSD", "MRT", "Insufficient Parallelism"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestSpeedupZeroFinal(t *testing.T) {
	r := &Result{InitialTime: 10, FinalTime: 0}
	if r.Speedup() != 0 {
		t.Error("zero final time must give zero speedup")
	}
}

// countingKernel wraps a kernel and counts Build invocations. It is a
// pointer type, so the build-memo key is the wrapper's identity. The
// optimizer builds candidates concurrently, so the count is atomic.
type countingKernel struct {
	kernels.Kernel
	builds atomic.Int64
}

func (c *countingKernel) Build(chip *hw.Chip, opts kernels.Options) (*isa.Program, error) {
	c.builds.Add(1)
	return c.Kernel.Build(chip, opts)
}

func TestBuildMemoBuildsEachOptionSetOnce(t *testing.T) {
	o := New(hw.TrainingChip())
	k := &countingKernel{Kernel: kernels.NewAddReLU()}
	res, err := o.Optimize(k)
	if err != nil {
		t.Fatal(err)
	}
	// The loop evaluates each candidate option set at least once per
	// iteration and re-evaluates overlapping sets across iterations;
	// the memo must hold builds to the number of distinct option sets.
	distinct := map[kernels.Options]bool{k.Baseline(): true}
	opts := k.Baseline()
	for _, s := range res.Applied() {
		for _, c := range kernels.AllStrategies() {
			distinct[kernels.Apply(opts, c)] = true
		}
		opts = kernels.Apply(opts, s)
	}
	for _, c := range kernels.AllStrategies() {
		distinct[kernels.Apply(opts, c)] = true
	}
	if n := k.builds.Load(); n > int64(len(distinct)) {
		t.Errorf("Build called %d times for at most %d distinct option sets", n, len(distinct))
	}
	// A second optimize pass over the same kernel is fully memoized.
	before := k.builds.Load()
	if _, err := o.Optimize(k); err != nil {
		t.Fatal(err)
	}
	if after := k.builds.Load(); after != before {
		t.Errorf("re-optimize rebuilt programs: %d -> %d builds", before, after)
	}
}

// fingerprintingKernel wraps a kernel and records the fingerprint of
// every program it builds. Like countingKernel it is a pointer type, and
// the optimizer builds candidates concurrently, so the set is locked.
type fingerprintingKernel struct {
	kernels.Kernel
	mu  sync.Mutex
	fps map[string]bool
}

func (f *fingerprintingKernel) Build(chip *hw.Chip, opts kernels.Options) (*isa.Program, error) {
	prog, err := f.Kernel.Build(chip, opts)
	if err == nil {
		f.mu.Lock()
		f.fps[prog.Fingerprint()] = true
		f.mu.Unlock()
	}
	return prog, err
}

// TestOptimizeSimulatesEachProgramOnce: distinct option sets often build
// byte-identical programs (a strategy that is a no-op at the current
// configuration, two strategies that commute), and a parallel candidate
// fan-out evaluates them concurrently. One optimize pass must still
// simulate each distinct program exactly once, for every registry
// kernel.
func TestOptimizeSimulatesEachProgramOnce(t *testing.T) {
	defer engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for name := range reg {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		engine.SetCacheCapacity(engine.DefaultCacheCapacity)
		k := &fingerprintingKernel{Kernel: reg[name], fps: map[string]bool{}}
		o := New(hw.TrainingChip())
		o.Workers = 8
		before := sim.ReadCounters().Runs
		if _, err := o.Optimize(k); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		runs := sim.ReadCounters().Runs - before
		if runs != uint64(len(k.fps)) {
			t.Errorf("%s: %d simulations for %d distinct programs", name, runs, len(k.fps))
		}
	}
}
