package model

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"ascendperf/internal/core"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/opt"
	"ascendperf/internal/sim"
)

// OpResult is the per-operator outcome within a model run.
type OpResult struct {
	// Name is the operator name.
	Name string

	// Count is the instance count in the model.
	Count int

	// BaselineTime and OptimizedTime are per-instance times in ns.
	// Without optimization the two are equal.
	BaselineTime  float64
	OptimizedTime float64

	// BaselineCause and OptimizedCause are the bottleneck classes before
	// and after optimization.
	BaselineCause  core.Cause
	OptimizedCause core.Cause

	// BaselineBound and OptimizedBound name the bounding or culprit
	// component when the cause involves one.
	BaselineBound  hw.Component
	OptimizedBound hw.Component

	// Applied lists the accepted strategies.
	Applied []kernels.Strategy
}

// Speedup returns the per-operator speedup.
func (o *OpResult) Speedup() float64 {
	if o.OptimizedTime <= 0 {
		return 0
	}
	return o.BaselineTime / o.OptimizedTime
}

// Distribution is a bottleneck-cause histogram. Shares sum to 1 over the
// five causes (idle operators are excluded).
type Distribution map[core.Cause]float64

// Share returns the fraction for a cause.
func (d Distribution) Share(c core.Cause) float64 { return d[c] }

// Format renders the distribution in figure-legend order.
func (d Distribution) Format() string {
	var b strings.Builder
	for i, c := range core.Causes() {
		if i > 0 {
			b.WriteString("  ")
		}
		fmt.Fprintf(&b, "%s %.2f%%", c.Abbrev(), 100*d[c])
	}
	return b.String()
}

// RunResult is the outcome of running (and optionally optimizing) a
// model's operator inventory on a chip.
type RunResult struct {
	// Model is the workload.
	Model *Model

	// Chip names the hardware preset used.
	Chip string

	// Ops holds per-operator results in inventory order.
	Ops []OpResult

	// BaselineComputeTime and OptimizedComputeTime are the summed
	// operator times (count-weighted) per iteration, ns.
	BaselineComputeTime  float64
	OptimizedComputeTime float64

	// OverheadTime is the fixed non-compute time per iteration, ns.
	OverheadTime float64

	// BaselineDistribution and OptimizedDistribution are bottleneck
	// histograms weighted by operator instance count.
	BaselineDistribution  Distribution
	OptimizedDistribution Distribution
}

// BaselineIterTime returns compute + overhead before optimization.
func (r *RunResult) BaselineIterTime() float64 {
	return r.BaselineComputeTime + r.OverheadTime
}

// OptimizedIterTime returns compute + overhead after optimization.
func (r *RunResult) OptimizedIterTime() float64 {
	return r.OptimizedComputeTime + r.OverheadTime
}

// ComputeSpeedup returns the computation-time speedup (Fig. 15, dark
// bars).
func (r *RunResult) ComputeSpeedup() float64 {
	if r.OptimizedComputeTime <= 0 {
		return 0
	}
	return r.BaselineComputeTime / r.OptimizedComputeTime
}

// OverallSpeedup returns the whole-iteration speedup including the fixed
// communication/IO overhead (Fig. 15, light bars).
func (r *RunResult) OverallSpeedup() float64 {
	if r.OptimizedIterTime() <= 0 {
		return 0
	}
	return r.BaselineIterTime() / r.OptimizedIterTime()
}

// MTEGMBoundShare returns, among operators whose optimized cause is MTE
// Bound or Inefficient MTE, the instance-weighted fraction whose
// bounding/culprit engine is MTE-GM (the paper's "90.30% bound by MTE-GM
// bandwidth" style statistic). The boolean selects optimized (true) or
// baseline (false) classification.
func (r *RunResult) MTEGMBoundShare(optimized bool) float64 {
	var mte, gm float64
	for _, op := range r.Ops {
		cause, bound := op.BaselineCause, op.BaselineBound
		if optimized {
			cause, bound = op.OptimizedCause, op.OptimizedBound
		}
		if cause == core.CauseMTEBound || cause == core.CauseInefficientMTE {
			mte += float64(op.Count)
			if bound == hw.CompMTEGM {
				gm += float64(op.Count)
			}
		}
	}
	if mte == 0 {
		return 0
	}
	return gm / mte
}

// Runner executes model inventories on a chip. Per-operator analysis
// and optimization fan out over an engine.ParallelMap worker pool;
// results are accumulated in inventory order, so parallel output is
// byte-identical to serial.
type Runner struct {
	// Chip is the target hardware.
	Chip *hw.Chip

	// Thresholds configure classification.
	Thresholds core.Thresholds

	// Workers bounds the per-operator fan-out; 0 uses the engine
	// default (ASCENDPERF_WORKERS or GOMAXPROCS), 1 runs serially.
	Workers int

	// builds memoizes kernel builds across the runner's passes and the
	// optimizers it creates: the top-n ranking pass, the optimizer's
	// baseline and the unselected-operator pass share one program per
	// operator. It lives and dies with the runner.
	builds kernels.BuildMemo
}

// NewRunner returns a runner with default thresholds.
func NewRunner(chip *hw.Chip) *Runner {
	return &Runner{Chip: chip, Thresholds: core.DefaultThresholds()}
}

// Run profiles and classifies every operator at its shipped baseline.
func (r *Runner) Run(m *Model) (*RunResult, error) {
	return r.run(m, 0)
}

// Optimize profiles every operator, runs the advisor-driven optimization
// loop on each, and reports before/after times and distributions.
func (r *Runner) Optimize(m *Model) (*RunResult, error) {
	return r.run(m, len(m.Ops))
}

// OptimizeTop optimizes only the n operator types with the largest
// count-weighted baseline time — the paper's prioritization: "we
// prioritize operator optimizations based on execution time, with
// longer-running operators receiving higher priority" (Section 6.2.1
// optimizes the top 10). The rest stay at their shipped baseline, which
// is why bottleneck classes like insufficient parallelism shrink but do
// not vanish after optimization (Fig. 13a).
func (r *Runner) OptimizeTop(m *Model, n int) (*RunResult, error) {
	return r.run(m, n)
}

func (r *Runner) run(m *Model, topN int) (*RunResult, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}

	// Which operator types get optimized: the topN by count-weighted
	// baseline time.
	selected := make([]bool, len(m.Ops))
	if topN >= len(m.Ops) {
		for i := range selected {
			selected[i] = true
		}
	} else if topN > 0 {
		type weighted struct {
			idx  int
			time float64
		}
		times, err := engine.ParallelMap(r.Workers, len(m.Ops), func(i int) (float64, error) {
			return r.baseline(m, m.Ops[i])
		})
		if err != nil {
			return nil, err
		}
		ws := make([]weighted, len(m.Ops))
		for i, inst := range m.Ops {
			ws[i] = weighted{i, times[i] * float64(inst.Count)}
		}
		sort.Slice(ws, func(a, b int) bool {
			if ws[a].time != ws[b].time {
				return ws[a].time > ws[b].time
			}
			return ws[a].idx < ws[b].idx
		})
		for i := 0; i < topN && i < len(ws); i++ {
			selected[ws[i].idx] = true
		}
	}

	res := &RunResult{Model: m, Chip: r.Chip.Name}
	o := opt.New(r.Chip)
	o.Thresholds = r.Thresholds
	o.Builds = &r.builds
	ops, err := engine.ParallelMap(r.Workers, len(m.Ops), func(i int) (OpResult, error) {
		inst := m.Ops[i]
		var or OpResult
		or.Name = inst.Kernel.Name()
		or.Count = inst.Count
		if selected[i] {
			out, err := o.Optimize(inst.Kernel)
			if err != nil {
				return or, fmt.Errorf("model %s: %s: %w", m.Name, or.Name, err)
			}
			or.BaselineTime = out.InitialTime
			or.OptimizedTime = out.FinalTime
			or.BaselineCause = out.InitialAnalysis.Cause
			or.OptimizedCause = out.FinalAnalysis.Cause
			or.BaselineBound = boundOf(out.InitialAnalysis)
			or.OptimizedBound = boundOf(out.FinalAnalysis)
			or.Applied = out.Applied()
		} else {
			prog, err := r.builds.Build(r.Chip, inst.Kernel, inst.Kernel.Baseline())
			if err != nil {
				return or, fmt.Errorf("model %s: %s: %w", m.Name, or.Name, err)
			}
			prof, err := engine.Simulate(r.Chip, prog, sim.Options{})
			if err != nil {
				return or, fmt.Errorf("model %s: %s: %w", m.Name, or.Name, err)
			}
			a := core.Analyze(prof, r.Chip, r.Thresholds)
			or.BaselineTime = prof.TotalTime
			or.OptimizedTime = prof.TotalTime
			or.BaselineCause = a.Cause
			or.OptimizedCause = a.Cause
			or.BaselineBound = boundOf(a)
			or.OptimizedBound = boundOf(a)
		}
		return or, nil
	})
	if err != nil {
		return nil, err
	}
	// Accumulate in inventory order: floating-point sums match the
	// serial runner exactly.
	res.Ops = ops
	for _, or := range ops {
		res.BaselineComputeTime += or.BaselineTime * float64(or.Count)
		res.OptimizedComputeTime += or.OptimizedTime * float64(or.Count)
	}
	res.OverheadTime = res.BaselineComputeTime * m.OverheadFrac
	res.BaselineDistribution = distribution(res.Ops, false)
	res.OptimizedDistribution = distribution(res.Ops, true)
	return res, nil
}

// RunAll analyzes every model in ms at its shipped baseline and returns
// the results in input order. Models run in sequence; the per-operator
// work inside each model fans out over the worker pool, and repeated
// operator instances across models hit the simulation cache.
func (r *Runner) RunAll(ms []*Model) ([]*RunResult, error) {
	out := make([]*RunResult, len(ms))
	for i, m := range ms {
		res, err := r.Run(m)
		if err != nil {
			return nil, err
		}
		out[i] = res
	}
	return out, nil
}

// baseline simulates one operator at its shipped options and returns the
// per-instance time.
func (r *Runner) baseline(m *Model, inst OpInstance) (float64, error) {
	prog, err := r.builds.Build(r.Chip, inst.Kernel, inst.Kernel.Baseline())
	if err != nil {
		return 0, fmt.Errorf("model %s: %s: %w", m.Name, inst.Kernel.Name(), err)
	}
	prof, err := engine.Simulate(r.Chip, prog, sim.Options{})
	if err != nil {
		return 0, fmt.Errorf("model %s: %s: %w", m.Name, inst.Kernel.Name(), err)
	}
	return prof.TotalTime, nil
}

// boundOf extracts the component associated with the analysis cause.
func boundOf(a *core.Analysis) hw.Component {
	switch a.Cause {
	case core.CauseComputeBound, core.CauseMTEBound:
		return a.Bound
	case core.CauseInefficientCompute, core.CauseInefficientMTE:
		return a.Culprit
	default:
		return a.MaxRatioComp
	}
}

// distribution builds an instance-count-weighted cause histogram.
func distribution(ops []OpResult, optimized bool) Distribution {
	d := Distribution{}
	var total float64
	for _, op := range ops {
		c := op.BaselineCause
		if optimized {
			c = op.OptimizedCause
		}
		if c == core.CauseIdle {
			continue
		}
		d[c] += float64(op.Count)
		total += float64(op.Count)
	}
	if total > 0 {
		for c := range d {
			d[c] /= total
		}
	}
	return d
}

// Report renders the run as a table.
func (r *RunResult) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "model %s (%s, %s params) on %s\n", r.Model.Name, r.Model.Type, r.Model.Params, r.Chip)
	fmt.Fprintf(&b, "%-18s %5s %12s %12s %8s  %-24s %-24s %s\n",
		"operator", "count", "base us", "opt us", "speedup", "baseline cause", "final cause", "applied")
	for _, op := range r.Ops {
		fmt.Fprintf(&b, "%-18s %5d %12.3f %12.3f %7.2fx  %-24s %-24s %v\n",
			op.Name, op.Count, op.BaselineTime/1000, op.OptimizedTime/1000,
			op.Speedup(), op.BaselineCause, op.OptimizedCause, op.Applied)
	}
	fmt.Fprintf(&b, "computation: %.3f -> %.3f ms (%.2fx); iteration: %.3f -> %.3f ms (%.2fx)\n",
		r.BaselineComputeTime/1e6, r.OptimizedComputeTime/1e6, r.ComputeSpeedup(),
		r.BaselineIterTime()/1e6, r.OptimizedIterTime()/1e6, r.OverallSpeedup())
	fmt.Fprintf(&b, "bottlenecks before: %s\n", r.BaselineDistribution.Format())
	fmt.Fprintf(&b, "bottlenecks after:  %s\n", r.OptimizedDistribution.Format())
	return b.String()
}

// WriteCSV emits the per-operator results as CSV for spreadsheet
// analysis.
func (r *RunResult) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "operator,count,baseline_us,optimized_us,speedup,baseline_cause,final_cause,applied"); err != nil {
		return err
	}
	for _, op := range r.Ops {
		strs := make([]string, len(op.Applied))
		for i, s := range op.Applied {
			strs[i] = s.String()
		}
		if _, err := fmt.Fprintf(w, "%s,%d,%.3f,%.3f,%.3f,%s,%s,%s\n",
			op.Name, op.Count, op.BaselineTime/1000, op.OptimizedTime/1000,
			op.Speedup(), op.BaselineCause.Abbrev(), op.OptimizedCause.Abbrev(),
			strings.Join(strs, "+")); err != nil {
			return err
		}
	}
	return nil
}

// TopOperators returns the n longest-running operators (count-weighted
// baseline time), the paper's prioritization rule for optimization.
func (r *RunResult) TopOperators(n int) []OpResult {
	out := make([]OpResult, len(r.Ops))
	copy(out, r.Ops)
	sort.Slice(out, func(i, j int) bool {
		ti := out[i].BaselineTime * float64(out[i].Count)
		tj := out[j].BaselineTime * float64(out[j].Count)
		if ti != tj {
			return ti > tj
		}
		return out[i].Name < out[j].Name
	})
	if n < len(out) {
		out = out[:n]
	}
	return out
}
