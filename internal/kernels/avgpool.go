package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// AvgPool is the average-pooling operator of Section 5.3: per tile it
// loads the pooling windows into UB, reduces them on the Vector unit, and
// scales by 1/k^2. The shipped implementation sets the hardware repeat
// parameter to 1, so each of the Loops repetitions is a separate vector
// instruction plus scalar loop control — the issue cost dominates and the
// Vector unit is busy nearly all the time while doing almost no work
// (inefficient compute). AIP raises repeat so one instruction covers all
// repetitions.
type AvgPool struct {
	// Tiles is the number of input tiles processed.
	Tiles int
	// TileElems is elements per tile; elements are FP16.
	TileElems int64
	// Loops is the repetition count of the reduction (the paper's 98).
	Loops int
	// GroupsPerLoop is the number of vector instructions per repetition
	// at repeat=1.
	GroupsPerLoop int
	// OutElems is the pooled output elements per tile.
	OutElems int64

	// name overrides the operator name for reduction variants
	// (ReduceSum, MaxPool) that share this pipeline.
	name string
}

// NewAvgPool returns the AvgPool instance used in the MobileNetV3 case
// study.
func NewAvgPool() *AvgPool {
	return &AvgPool{
		Tiles:         4,
		TileElems:     32 << 10,
		Loops:         98,
		GroupsPerLoop: 4,
		OutElems:      1 << 10,
	}
}

// Name implements Kernel.
func (a *AvgPool) Name() string {
	if a.name != "" {
		return a.name
	}
	return "avgpool"
}

// Baseline implements Kernel: repeat=1, the unoptimized parameterization.
func (a *AvgPool) Baseline() Options { return Options{} }

// Supported implements Kernel. Reductions support both instruction-
// parameter tuning (AIP) and Computation Transformation (CT): the
// reduction can move from the Vector unit to the far stronger Cube as a
// multiply by an all-ones vector after data rearrangement.
func (a *AvgPool) Supported() []Strategy { return []Strategy{AIP, CT} }

// Build implements Kernel.
func (a *AvgPool) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return a.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (a *AvgPool) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if a.Tiles <= 0 || a.TileElems <= 0 || a.Loops <= 0 || a.GroupsPerLoop <= 0 {
		return nil, fmt.Errorf("kernels: avgpool: invalid specification")
	}
	if opts.OffloadToCube {
		return a.buildCube(chip, opts, want)
	}
	variant := "baseline"
	if opts.FullRepeat {
		variant = "optimized"
	}
	b := newBuilder(chip, a.Name()+"/"+variant, want)

	tileBytes := a.TileElems * 2
	outBytes := a.OutElems * 2
	ubIn := b.Alloc(hw.UB, tileBytes)
	ubOut := b.Alloc(hw.UB, outBytes)

	evInReady := b.NewEvent(hw.CompMTEGM, hw.CompVector)
	evOutReady := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	// Total reduction operations per tile, split across loops and groups.
	totalOps := a.TileElems
	opsPerInstr := totalOps / int64(a.Loops*a.GroupsPerLoop)
	if opsPerInstr < 1 {
		opsPerInstr = 1
	}

	for k := 0; k < a.Tiles; k++ {
		b.ScalarWork(2, 4)
		b.Copy(hw.PathGMToUB,
			isa.Region{Level: hw.GM, Off: int64(k) * tileBytes, Size: tileBytes},
			ubIn, "load-window")
		b.Set(hw.CompMTEGM, hw.CompVector, evInReady)
		b.Wait(hw.CompMTEGM, hw.CompVector, evInReady)

		if opts.FullRepeat {
			// One instruction per group with repeat covering all loops.
			for g := 0; g < a.GroupsPerLoop; g++ {
				b.Compute(hw.Vector, hw.FP16, opsPerInstr*int64(a.Loops), a.Loops,
					[]isa.Region{ubIn}, []isa.Region{ubOut}, "sum-repeat")
			}
		} else {
			// repeat=1: every repetition is a separate instruction with
			// explicit scalar loop control around it.
			for l := 0; l < a.Loops; l++ {
				b.ScalarWork(1, 2)
				for g := 0; g < a.GroupsPerLoop; g++ {
					b.Compute(hw.Vector, hw.FP16, opsPerInstr, 1,
						[]isa.Region{ubIn}, []isa.Region{ubOut}, "sum")
				}
			}
		}
		// Scale by 1/k^2.
		b.Compute(hw.Vector, hw.FP16, a.OutElems, 1,
			[]isa.Region{ubOut}, []isa.Region{ubOut}, "scale")

		b.Set(hw.CompVector, hw.CompMTEUB, evOutReady)
		b.Wait(hw.CompVector, hw.CompMTEUB, evOutReady)
		b.Copy(hw.PathUBToGM,
			ubOut,
			isa.Region{Level: hw.GM, Off: 1 << 30, Size: outBytes},
			"store-pooled")
	}
	return b.Program()
}

// buildCube emits the Computation Transformation variant: the windowed
// sum becomes a matrix multiply against an all-ones vector on the Cube
// (Section 5.4's CT, via data rearrangement). Tiles flow GM->L1->L0A,
// the ones vector sits in L0B, and the Vector unit only scales and
// drains the tiny pooled output.
func (a *AvgPool) buildCube(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	b := newBuilder(chip, a.Name()+"/cube-offload", want)
	tileBytes := a.TileElems * 2
	outBytes := a.OutElems * 2

	// L0A is the binding capacity: process the tile in L0A-sized chunks.
	chunk := chip.BufferSize[hw.L0A]
	if chunk > tileBytes {
		chunk = tileBytes
	}
	l1In := b.Alloc(hw.L1, tileBytes)
	l0a := b.Alloc(hw.L0A, chunk)
	l0b := b.Alloc(hw.L0B, 1<<10) // the ones vector
	l0c := b.Alloc(hw.L0C, outBytes)
	ubOut := b.Alloc(hw.UB, outBytes)

	evL1 := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evOnes := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evA := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evC := b.NewEvent(hw.CompCube, hw.CompVector)
	evOut := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	// Stage the ones vector once.
	b.Copy(hw.PathGMToL1, isa.Region{Level: hw.GM, Off: 1 << 31, Size: 1 << 10},
		isa.Region{Level: hw.L1, Off: l1In.End(), Size: 1 << 10}, "load-ones")
	b.Set(hw.CompMTEGM, hw.CompMTEL1, evOnes)
	b.Wait(hw.CompMTEGM, hw.CompMTEL1, evOnes)
	b.Copy(hw.PathL1ToL0B, isa.Region{Level: hw.L1, Off: l1In.End(), Size: 1 << 10},
		l0b, "stage-ones")

	for k := 0; k < a.Tiles; k++ {
		b.ScalarWork(2, 4)
		b.Copy(hw.PathGMToL1,
			isa.Region{Level: hw.GM, Off: int64(k) * tileBytes, Size: tileBytes},
			l1In, "load-window")
		b.Set(hw.CompMTEGM, hw.CompMTEL1, evL1)
		b.Wait(hw.CompMTEGM, hw.CompMTEL1, evL1)
		for off := int64(0); off < tileBytes; off += chunk {
			size := chunk
			if off+size > tileBytes {
				size = tileBytes - off
			}
			b.Copy(hw.PathL1ToL0A,
				isa.Region{Level: hw.L1, Off: l1In.Off + off, Size: size},
				isa.Region{Level: hw.L0A, Off: l0a.Off, Size: size}, "stage-a")
			b.Set(hw.CompMTEL1, hw.CompCube, evA)
			b.Wait(hw.CompMTEL1, hw.CompCube, evA)
			// One MAC per element against the ones vector.
			b.Compute(hw.Cube, hw.FP16, size, 1,
				[]isa.Region{{Level: hw.L0A, Off: l0a.Off, Size: size}, l0b},
				[]isa.Region{l0c}, "ones-mad")
		}
		// Scale and drain the pooled output on the Vector unit.
		b.Set(hw.CompCube, hw.CompVector, evC)
		b.Wait(hw.CompCube, hw.CompVector, evC)
		b.Compute(hw.Vector, hw.FP16, a.OutElems, 1,
			[]isa.Region{l0c}, []isa.Region{ubOut}, "scale-drain")
		b.Set(hw.CompVector, hw.CompMTEUB, evOut)
		b.Wait(hw.CompVector, hw.CompMTEUB, evOut)
		b.Copy(hw.PathUBToGM, ubOut,
			isa.Region{Level: hw.GM, Off: 1 << 30, Size: outBytes}, "store-pooled")
	}
	return b.Program()
}
