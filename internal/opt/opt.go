// Package opt closes the paper's analysis-optimization loop (Fig. 5):
// profile an operator, classify its bottleneck with the component-based
// roofline model, apply the most effective applicable strategy for that
// cause, and repeat until no strategy yields further improvement. This is
// the workflow the Section 5 case studies walk through by hand.
package opt

import (
	"fmt"
	"strings"

	"ascendperf/internal/core"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// Advise returns the candidate strategies for a bottleneck cause, in the
// priority order of Section 5's summary: parallelism fixes for
// insufficient parallelism, granularity for inefficient MTE, instruction
// parameters for inefficient compute, transfer reduction for MTE bound,
// and algorithmic/precision/unit changes for compute bound.
func Advise(cause core.Cause) []kernels.Strategy {
	switch cause {
	case core.CauseInsufficientParallelism:
		return []kernels.Strategy{kernels.RSD, kernels.AIS, kernels.RUS, kernels.PP}
	case core.CauseInefficientMTE:
		return []kernels.Strategy{kernels.ITG, kernels.MRT}
	case core.CauseInefficientCompute:
		return []kernels.Strategy{kernels.AIP}
	case core.CauseMTEBound:
		return []kernels.Strategy{kernels.MRT, kernels.OP, kernels.TT}
	case core.CauseComputeBound:
		return []kernels.Strategy{kernels.EA, kernels.LC, kernels.CT}
	default:
		return nil
	}
}

// Step records one iteration of the optimization loop.
type Step struct {
	// Iteration numbers the loop pass, starting at 1.
	Iteration int

	// Analysis is the roofline analysis that drove the decision.
	Analysis *core.Analysis

	// Applied is the strategy chosen this iteration.
	Applied kernels.Strategy

	// TimeBefore and TimeAfter are the operator times around the
	// application, in ns.
	TimeBefore, TimeAfter float64
}

// Result is the outcome of optimizing one kernel.
type Result struct {
	// Kernel is the operator name.
	Kernel string

	// InitialTime and FinalTime are the baseline and final operator
	// times in ns.
	InitialTime, FinalTime float64

	// InitialAnalysis and FinalAnalysis bracket the loop.
	InitialAnalysis, FinalAnalysis *core.Analysis

	// InitialProfile and FinalProfile are the bracketing profiles.
	InitialProfile, FinalProfile *profile.Profile

	// Steps lists the accepted optimization iterations in order.
	Steps []Step

	// FinalOptions is the option set of the final implementation.
	FinalOptions kernels.Options
}

// Speedup returns InitialTime / FinalTime.
func (r *Result) Speedup() float64 {
	if r.FinalTime <= 0 {
		return 0
	}
	return r.InitialTime / r.FinalTime
}

// Applied lists the accepted strategies in application order.
func (r *Result) Applied() []kernels.Strategy {
	out := make([]kernels.Strategy, len(r.Steps))
	for i, s := range r.Steps {
		out[i] = s.Applied
	}
	return out
}

// Summary renders the optimization history.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "optimize %s: %.3f us -> %.3f us (%.2fx)\n",
		r.Kernel, r.InitialTime/1000, r.FinalTime/1000, r.Speedup())
	fmt.Fprintf(&b, "  baseline: %s\n", r.InitialAnalysis.Cause)
	for _, s := range r.Steps {
		fmt.Fprintf(&b, "  iter %d: %s -> applied %s (%s), %.3f -> %.3f us\n",
			s.Iteration, s.Analysis.Cause, s.Applied, s.Applied.Describe(),
			s.TimeBefore/1000, s.TimeAfter/1000)
	}
	fmt.Fprintf(&b, "  final: %s\n", r.FinalAnalysis.Cause)
	return b.String()
}

// Optimizer drives the iterative loop.
type Optimizer struct {
	// Chip is the target hardware.
	Chip *hw.Chip

	// Thresholds configure bottleneck classification.
	Thresholds core.Thresholds

	// MaxIterations bounds the loop; 0 means the default of 16.
	MaxIterations int

	// MinGain is the minimum acceptance speedup per step; 0 means the
	// default of 1.005 (half a percent).
	MinGain float64

	// Exhaustive also tries strategies outside the advised set for the
	// current cause when no advised strategy helps. The paper's manual
	// process effectively does this (engineers inspect the code for any
	// applicable fix); it is on by default in New.
	Exhaustive bool

	// Workers bounds the candidate fan-out of the optimization loop and
	// the tile sweep; 0 uses the engine default, 1 runs serially. The
	// winning candidate is selected by a deterministic in-order
	// reduction, so the parallel loop matches the serial one exactly.
	Workers int

	// Builds memoizes the loop's kernel builds per (chip, kernel value,
	// options), so re-evaluations across loop iterations (the baseline
	// of every pass, a strategy re-tried after another one landed, the
	// incoming point of a tile sweep) skip program construction and
	// infeasible configurations are not rebuilt to fail again. New
	// allocates one; a model.Runner shares its own so its ranking and
	// unselected-operator passes reuse the optimizer's builds.
	Builds *kernels.BuildMemo
}

// New returns an optimizer with default settings for the chip.
func New(chip *hw.Chip) *Optimizer {
	return &Optimizer{
		Chip:       chip,
		Thresholds: core.DefaultThresholds(),
		Exhaustive: true,
		Builds:     &kernels.BuildMemo{},
	}
}

// run builds and simulates one option set through the engine:
// re-evaluations of a program the loop has already simulated (the
// baseline re-run of a model pass, the incoming point of a tile sweep,
// a structural duplicate built from distinct options) are engine cache
// hits, or join the in-flight simulation when a parallel fan-out
// builds it twice at once; the build itself is memoized per (kernel,
// options) so repeated evaluations skip program construction.
func (o *Optimizer) run(k kernels.Kernel, opts kernels.Options) (*profile.Profile, error) {
	prog, err := o.Builds.Build(o.Chip, k, opts)
	if err != nil {
		return nil, err
	}
	return engine.Simulate(o.Chip, prog, sim.Options{})
}

// Optimize runs the analysis-optimization loop on a kernel from its
// baseline implementation.
func (o *Optimizer) Optimize(k kernels.Kernel) (*Result, error) {
	maxIter := o.MaxIterations
	if maxIter <= 0 {
		maxIter = 16
	}
	minGain := o.MinGain
	if minGain <= 0 {
		minGain = 1.005
	}

	opts := k.Baseline()
	prof, err := o.run(k, opts)
	if err != nil {
		return nil, fmt.Errorf("opt: %s baseline: %w", k.Name(), err)
	}
	analysis := core.Analyze(prof, o.Chip, o.Thresholds)
	res := &Result{
		Kernel:          k.Name(),
		InitialTime:     prof.TotalTime,
		InitialAnalysis: analysis,
		InitialProfile:  prof,
	}

	supported := k.Supported()
	for iter := 1; iter <= maxIter; iter++ {
		candidates := o.candidates(analysis.Cause, supported, opts)
		// Fan the candidate trials out; an inapplicable strategy (e.g.
		// buffers no longer fit) yields a nil profile and is skipped,
		// not fatal. The winner is reduced in candidate order, exactly
		// as the serial loop would.
		trials, _ := engine.ParallelMap(o.Workers, len(candidates), func(i int) (*profile.Profile, error) {
			trial, err := o.run(k, kernels.Apply(opts, candidates[i]))
			if err != nil {
				return nil, nil
			}
			return trial, nil
		})
		best := kernels.Strategy(-1)
		var bestProf *profile.Profile
		bestTime := prof.TotalTime / minGain
		for i, trial := range trials {
			if trial == nil {
				continue
			}
			if trial.TotalTime < bestTime {
				bestTime = trial.TotalTime
				best = candidates[i]
				bestProf = trial
			}
		}
		if best < 0 {
			break
		}
		res.Steps = append(res.Steps, Step{
			Iteration:  iter,
			Analysis:   analysis,
			Applied:    best,
			TimeBefore: prof.TotalTime,
			TimeAfter:  bestProf.TotalTime,
		})
		opts = kernels.Apply(opts, best)
		prof = bestProf
		analysis = core.Analyze(prof, o.Chip, o.Thresholds)
	}

	res.FinalTime = prof.TotalTime
	res.FinalAnalysis = analysis
	res.FinalProfile = prof
	res.FinalOptions = opts
	return res, nil
}

// candidates returns the unapplied supported strategies to try for the
// cause: the advised set first, then (if Exhaustive) everything else the
// kernel supports.
func (o *Optimizer) candidates(cause core.Cause, supported []kernels.Strategy, opts kernels.Options) []kernels.Strategy {
	inSupported := func(s kernels.Strategy) bool {
		for _, x := range supported {
			if x == s {
				return true
			}
		}
		return false
	}
	var out []kernels.Strategy
	seen := map[kernels.Strategy]bool{}
	for _, s := range Advise(cause) {
		if inSupported(s) && !kernels.Applied(opts, s) && !seen[s] {
			out = append(out, s)
			seen[s] = true
		}
	}
	if o.Exhaustive {
		for _, s := range supported {
			if !kernels.Applied(opts, s) && !seen[s] {
				out = append(out, s)
				seen[s] = true
			}
		}
	}
	return out
}
