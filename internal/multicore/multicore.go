// Package multicore models whole-chip operator execution: an Ascend chip
// carries tens of AICores, and an operator implementation partitions its
// work across them ("task allocations", one of the paper's Section 1
// defect classes). Each core runs its slice independently — the AICore
// queues are private — but all cores share the GM links, so the per-core
// GM bandwidth shrinks as cores join. Two effects follow, both visible
// in this model:
//
//   - GM-bound operators stop scaling once the shared links saturate
//     (the chip-level version of the paper's PanGu insight);
//   - uneven task allocation leaves the makespan at the straggler core
//     even when total work is unchanged.
package multicore

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// Partitionable is a kernel whose work splits across cores in units
// (elements, steps or tiles).
type Partitionable interface {
	kernels.Kernel

	// PartitionUnits returns the total divisible work units.
	PartitionUnits() int64

	// WithUnits returns a copy of the kernel holding n units.
	WithUnits(n int64) kernels.Kernel
}

// PerCoreChip derives the chip an individual core observes when the
// operator occupies cores peers: on-chip buffers and compute are
// private, but every GM-attached link's bandwidth is divided by the
// core count. Repeat calls with the same chip pointer and core count
// return the same derived chip, which, like every chip, must not be
// modified.
func PerCoreChip(chip *hw.Chip, cores int) *hw.Chip {
	if cores < 1 {
		cores = 1
	}
	key := perCoreKey{chip, cores}
	if v, ok := perCoreChips.Load(key); ok {
		return v.(*hw.Chip)
	}
	c := derivePerCore(chip, cores)
	if nPerCoreChips.Load() < maxPerCoreChips {
		v, loaded := perCoreChips.LoadOrStore(key, c)
		if !loaded {
			nPerCoreChips.Add(1)
		}
		return v.(*hw.Chip)
	}
	return c
}

// perCoreChips memoizes PerCoreChip per (base chip pointer, cores).
// Graph scheduling derives its per-core chips on every request; sharing
// one derived chip per pair keeps the memos keyed on chip pointers (the
// engine's chip fingerprints, the simulator's compiled tables) at one
// entry per pair instead of one per request. hw.Chip is immutable after
// construction, the contract those memos already rely on. The count
// bound caps it for callers that synthesize many base chips, which then
// get fresh, uncached derivations.
var (
	perCoreChips  sync.Map // perCoreKey -> *hw.Chip
	nPerCoreChips atomic.Int64
)

const maxPerCoreChips = 1024

type perCoreKey struct {
	chip  *hw.Chip
	cores int
}

// derivePerCore builds the per-core view of chip for PerCoreChip.
func derivePerCore(chip *hw.Chip, cores int) *hw.Chip {
	c := *chip
	c.Paths = make(map[hw.Path]hw.PathSpec, len(chip.Paths))
	for path, spec := range chip.Paths {
		if path.Src == hw.GM || path.Dst == hw.GM {
			spec.Bandwidth /= float64(cores)
		}
		c.Paths[path] = spec
	}
	c.Name = fmt.Sprintf("%s/%d-cores", chip.Name, cores)
	return &c
}

// Result is a whole-chip execution of one operator.
type Result struct {
	// Cores is the core count used.
	Cores int

	// Shares is the work fraction assigned to each core.
	Shares []float64

	// PerCore holds each core's profile (nil for cores with no work).
	PerCore []*profile.Profile

	// Makespan is the slowest core's time: the operator's chip-level
	// latency.
	Makespan float64

	// MeanTime is the average per-core time over cores with work.
	MeanTime float64
}

// Imbalance is makespan/mean: 1.0 for perfectly balanced allocations.
func (r *Result) Imbalance() float64 {
	if r.MeanTime <= 0 {
		return 0
	}
	return r.Makespan / r.MeanTime
}

// Summary renders the result.
func (r *Result) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "multicore: %d cores, makespan %.3f us, imbalance %.3f\n",
		r.Cores, r.Makespan/1000, r.Imbalance())
	for i, p := range r.PerCore {
		if p == nil {
			fmt.Fprintf(&b, "  core %2d: idle\n", i)
			continue
		}
		fmt.Fprintf(&b, "  core %2d: share %.3f  %10.3f us\n", i, r.Shares[i], p.TotalTime/1000)
	}
	return b.String()
}

// Run executes the kernel partitioned over cores. shares optionally
// weights the allocation (normalized internally); nil means an even
// split. Each core simulates its slice against the per-core chip.
func Run(chip *hw.Chip, k Partitionable, opts kernels.Options, cores int, shares []float64) (*Result, error) {
	if cores < 1 {
		return nil, fmt.Errorf("multicore: need at least one core")
	}
	if shares != nil && len(shares) != cores {
		return nil, fmt.Errorf("multicore: %d shares for %d cores", len(shares), cores)
	}
	total := k.PartitionUnits()
	if total < int64(cores) {
		return nil, fmt.Errorf("multicore: %d units cannot occupy %d cores", total, cores)
	}
	var sum float64
	if shares == nil {
		shares = make([]float64, cores)
		for i := range shares {
			shares[i] = 1
		}
	}
	for i, s := range shares {
		if s < 0 {
			return nil, fmt.Errorf("multicore: negative share for core %d", i)
		}
		sum += s
	}
	if sum <= 0 {
		return nil, fmt.Errorf("multicore: all shares zero")
	}

	perCore := PerCoreChip(chip, cores)
	res := &Result{Cores: cores, Shares: make([]float64, cores), PerCore: make([]*profile.Profile, cores)}
	units := make([]int64, cores)
	assigned := int64(0)
	for i := 0; i < cores; i++ {
		units[i] = int64(float64(total) * shares[i] / sum)
		if i == cores-1 {
			units[i] = total - assigned // remainder to the last core
		}
		assigned += units[i]
		res.Shares[i] = float64(units[i]) / float64(total)
	}
	// The cores simulate in parallel on the engine pool. A balanced
	// allocation gives every core an identical slice, which the engine
	// simulates once: the other cores hit its cache or wait for that
	// simulation.
	profs, err := engine.ParallelMap(0, cores, func(i int) (*profile.Profile, error) {
		if units[i] <= 0 {
			return nil, nil
		}
		prog, err := k.WithUnits(units[i]).Build(perCore, opts)
		if err != nil {
			return nil, fmt.Errorf("multicore: core %d: %w", i, err)
		}
		p, err := engine.Simulate(perCore, prog, sim.Options{})
		if err != nil {
			return nil, fmt.Errorf("multicore: core %d: %w", i, err)
		}
		return p, nil
	})
	if err != nil {
		return nil, err
	}
	var busyCores float64
	for i, p := range profs {
		if p == nil {
			continue
		}
		res.PerCore[i] = p
		if p.TotalTime > res.Makespan {
			res.Makespan = p.TotalTime
		}
		res.MeanTime += p.TotalTime
		busyCores++
	}
	if busyCores > 0 {
		res.MeanTime /= busyCores
	}
	return res, nil
}

// ScalePoint is one point of a strong-scaling curve.
type ScalePoint struct {
	Cores    int
	Makespan float64
	// Speedup is relative to the single-core makespan.
	Speedup float64
}

// ScalingCurve runs the kernel at 1, 2, 4, ... up to maxCores cores with
// balanced allocation and returns the strong-scaling curve.
func ScalingCurve(chip *hw.Chip, k Partitionable, opts kernels.Options, maxCores int) ([]ScalePoint, error) {
	var out []ScalePoint
	var base float64
	for c := 1; c <= maxCores; c *= 2 {
		if k.PartitionUnits() < int64(c) {
			break
		}
		r, err := Run(chip, k, opts, c, nil)
		if err != nil {
			return nil, err
		}
		if c == 1 {
			base = r.Makespan
		}
		out = append(out, ScalePoint{Cores: c, Makespan: r.Makespan, Speedup: base / r.Makespan})
	}
	return out, nil
}
