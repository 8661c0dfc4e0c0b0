// Package ert is an Empirical Roofline Toolkit for the simulated AICore,
// in the spirit of the ERT the paper cites for classic architectures: it
// measures the practically achievable ceilings of every component by
// running generated microbenchmarks, rather than trusting the datasheet.
//
// Two sweeps are performed:
//
//   - Bandwidth sweep: for every MTE path, back-to-back transfers at
//     increasing granularity measure the achieved bandwidth. Because a
//     transfer costs setup + bytes/bandwidth, small transfers achieve a
//     fraction of peak; the sweep locates the 50% and 90% efficiency
//     granularities — the "threshold for full bandwidth" the paper's ITG
//     discussion refers to (its 30 KB UB->GM transfers sat far below it).
//
//   - Compute sweep: for every precision-compute unit, instructions at
//     increasing work-per-instruction (the repeat parameter) measure the
//     achieved rate against the issue overhead — the quantitative basis
//     of the AIP strategy.
package ert

import (
	"fmt"
	"strings"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/sim"
)

// SamplePoint is one sweep measurement.
type SamplePoint struct {
	// Size is the transfer bytes or ops per instruction.
	Size int64
	// Achieved is the measured rate (B/ns or op/ns).
	Achieved float64
	// Efficiency is Achieved / spec peak.
	Efficiency float64
}

// PathResult is the bandwidth sweep of one transfer path.
type PathResult struct {
	Path hw.Path
	// SpecBandwidth is the datasheet bandwidth.
	SpecBandwidth float64
	// Samples are the sweep points, ascending by size.
	Samples []SamplePoint
	// EmpiricalPeak is the highest achieved bandwidth.
	EmpiricalPeak float64
	// HalfPoint and NinetyPoint are the smallest swept sizes reaching
	// 50% and 90% of the spec bandwidth (0 if never reached).
	HalfPoint, NinetyPoint int64
}

// ComputeResult is the rate sweep of one precision-compute unit.
type ComputeResult struct {
	UnitPrec hw.UnitPrec
	// SpecPeak is the datasheet rate.
	SpecPeak float64
	// Samples are the sweep points, ascending by ops per instruction.
	Samples []SamplePoint
	// EmpiricalPeak is the highest achieved rate.
	EmpiricalPeak float64
	// HalfPoint and NinetyPoint are the smallest swept works reaching
	// 50% and 90% of the spec peak (0 if never reached).
	HalfPoint, NinetyPoint int64
}

// Report is a full empirical characterization of a chip.
type Report struct {
	Chip     string
	Paths    []PathResult
	Computes []ComputeResult
}

// Options tunes the sweeps.
type Options struct {
	// MinSize and MaxSize bound the transfer-granularity sweep in bytes;
	// zero values default to 1 KiB .. 256 KiB. Sizes double per step and
	// are clamped to the destination buffer's capacity.
	MinSize, MaxSize int64

	// MinOps and MaxOps bound the per-instruction work sweep; zero
	// values default to 64 .. 4 Mi ops.
	MinOps, MaxOps int64

	// Repeats is how many back-to-back instructions each measurement
	// uses (amortizing dispatch ramp); zero defaults to 16.
	Repeats int
}

func (o Options) withDefaults() Options {
	if o.MinSize <= 0 {
		o.MinSize = 1 << 10
	}
	if o.MaxSize <= 0 {
		o.MaxSize = 256 << 10
	}
	if o.MinOps <= 0 {
		o.MinOps = 64
	}
	if o.MaxOps <= 0 {
		o.MaxOps = 4 << 20
	}
	if o.Repeats <= 0 {
		o.Repeats = 16
	}
	return o
}

// Run performs both sweeps on the chip.
func Run(chip *hw.Chip, opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{Chip: chip.Name}
	for _, path := range hw.AllPaths() {
		spec, ok := chip.PathSpecOf(path)
		if !ok {
			continue
		}
		pr, err := sweepPath(chip, path, spec, opts)
		if err != nil {
			return nil, err
		}
		rep.Paths = append(rep.Paths, pr)
	}
	for _, u := range []hw.Unit{hw.Cube, hw.Vector, hw.Scalar} {
		for _, up := range chip.UnitPrecs(u) {
			cr, err := sweepCompute(chip, up, opts)
			if err != nil {
				return nil, err
			}
			rep.Computes = append(rep.Computes, cr)
		}
	}
	return rep, nil
}

// sweepPath measures one path's achieved bandwidth across granularities.
// The per-granularity microbenchmarks simulate in parallel; the peak and
// threshold folds run over the samples in ascending-size order, matching
// a serial sweep exactly.
func sweepPath(chip *hw.Chip, path hw.Path, spec hw.PathSpec, opts Options) (PathResult, error) {
	res := PathResult{Path: path, SpecBandwidth: spec.Bandwidth}
	maxSize := opts.MaxSize
	// The transfer cannot exceed either endpoint buffer.
	for _, level := range []hw.Level{path.Src, path.Dst} {
		if cap := chip.BufferSize[level]; cap < maxSize {
			maxSize = cap
		}
	}
	var sizes []int64
	for size := opts.MinSize; size <= maxSize; size *= 2 {
		sizes = append(sizes, size)
	}
	samples, err := engine.ParallelMap(0, len(sizes), func(i int) (SamplePoint, error) {
		size := sizes[i]
		prog := &isa.Program{Name: fmt.Sprintf("ert-%s-%d", path, size)}
		for r := 0; r < opts.Repeats; r++ {
			// Reuse the same regions: back-to-back transfers on one
			// engine serialize regardless, and reuse keeps every size
			// within buffer capacity.
			prog.AppendTransfer(path, 0, 0, size)
		}
		p, err := engine.Simulate(chip, prog, sim.Options{})
		if err != nil {
			return SamplePoint{}, err
		}
		achieved := float64(size) * float64(opts.Repeats) / p.TotalTime
		return SamplePoint{Size: size, Achieved: achieved, Efficiency: achieved / spec.Bandwidth}, nil
	})
	if err != nil {
		return res, err
	}
	res.Samples = samples
	for _, sample := range samples {
		if sample.Achieved > res.EmpiricalPeak {
			res.EmpiricalPeak = sample.Achieved
		}
		if res.HalfPoint == 0 && sample.Efficiency >= 0.5 {
			res.HalfPoint = sample.Size
		}
		if res.NinetyPoint == 0 && sample.Efficiency >= 0.9 {
			res.NinetyPoint = sample.Size
		}
	}
	return res, nil
}

// sweepCompute measures one precision-compute pair's achieved rate
// across per-instruction work. As in sweepPath, the points simulate in
// parallel and fold in ascending-work order.
func sweepCompute(chip *hw.Chip, up hw.UnitPrec, opts Options) (ComputeResult, error) {
	peak, _ := chip.PeakOf(up.Unit, up.Prec)
	res := ComputeResult{UnitPrec: up, SpecPeak: peak}
	var works []int64
	for ops := opts.MinOps; ops <= opts.MaxOps; ops *= 4 {
		works = append(works, ops)
	}
	samples, err := engine.ParallelMap(0, len(works), func(i int) (SamplePoint, error) {
		ops := works[i]
		prog := &isa.Program{Name: fmt.Sprintf("ert-%s-%d", up, ops)}
		for r := 0; r < opts.Repeats; r++ {
			prog.Append(isa.Compute(up.Unit, up.Prec, ops))
		}
		p, err := engine.Simulate(chip, prog, sim.Options{})
		if err != nil {
			return SamplePoint{}, err
		}
		achieved := float64(ops) * float64(opts.Repeats) / p.TotalTime
		return SamplePoint{Size: ops, Achieved: achieved, Efficiency: achieved / peak}, nil
	})
	if err != nil {
		return res, err
	}
	res.Samples = samples
	for _, sample := range samples {
		if sample.Achieved > res.EmpiricalPeak {
			res.EmpiricalPeak = sample.Achieved
		}
		if res.HalfPoint == 0 && sample.Efficiency >= 0.5 {
			res.HalfPoint = sample.Size
		}
		if res.NinetyPoint == 0 && sample.Efficiency >= 0.9 {
			res.NinetyPoint = sample.Size
		}
	}
	return res, nil
}

// Format renders the report.
func (r *Report) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "empirical roofline characterization: %s\n", r.Chip)
	b.WriteString("transfer paths (achieved bandwidth by granularity):\n")
	fmt.Fprintf(&b, "  %-10s %9s %9s %12s %12s\n", "path", "spec B/ns", "peak B/ns", "50%-point", "90%-point")
	for _, p := range r.Paths {
		fmt.Fprintf(&b, "  %-10s %9.1f %9.1f %12s %12s\n",
			p.Path, p.SpecBandwidth, p.EmpiricalPeak, sizeStr(p.HalfPoint), sizeStr(p.NinetyPoint))
	}
	b.WriteString("precision-compute units (achieved rate by work per instruction):\n")
	fmt.Fprintf(&b, "  %-13s %9s %9s %12s %12s\n", "unit", "spec op/ns", "peak op/ns", "50%-point", "90%-point")
	for _, c := range r.Computes {
		fmt.Fprintf(&b, "  %-13s %9.1f %9.1f %12s %12s\n",
			c.UnitPrec, c.SpecPeak, c.EmpiricalPeak, countStr(c.HalfPoint), countStr(c.NinetyPoint))
	}
	return b.String()
}

func sizeStr(v int64) string {
	if v == 0 {
		return "-"
	}
	if v >= 1<<20 {
		return fmt.Sprintf("%dMiB", v>>20)
	}
	if v >= 1<<10 {
		return fmt.Sprintf("%dKiB", v>>10)
	}
	return fmt.Sprintf("%dB", v)
}

func countStr(v int64) string {
	if v == 0 {
		return "-"
	}
	if v >= 1<<20 {
		return fmt.Sprintf("%dMi", v>>20)
	}
	if v >= 1<<10 {
		return fmt.Sprintf("%dKi", v>>10)
	}
	return fmt.Sprintf("%d", v)
}

// EmpiricalThresholds derives classification thresholds from the
// measured ceilings: a component is considered bound when it reaches the
// fraction of its spec ceiling that the best microbenchmark achieved.
// This grounds the deployment thresholds in measurement instead of
// convention.
func (r *Report) EmpiricalThresholds(chip *hw.Chip) map[hw.Component]float64 {
	out := map[hw.Component]float64{}
	// For MTEs: the best efficiency any of the engine's paths achieved.
	for _, p := range r.Paths {
		engine, ok := chip.EngineOf(p.Path)
		if !ok {
			continue
		}
		eff := p.EmpiricalPeak / p.SpecBandwidth
		if eff > out[engine] {
			out[engine] = eff
		}
	}
	// For compute units: the best efficiency any precision achieved.
	for _, c := range r.Computes {
		comp := hw.ComponentOf(c.UnitPrec.Unit)
		eff := c.EmpiricalPeak / c.SpecPeak
		if eff > out[comp] {
			out[comp] = eff
		}
	}
	return out
}
