package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// QuantMatMul is the data-quantization GEMM of the paper's Fig. 3b: the
// Cube executes a mix of INT8 (quantized main product) and FP16
// (rescale/correction product) instructions back to back. The naive
// roofline splits the two precisions into separate underutilized points;
// the component-based model's operator-aware ideal (the work-weighted
// harmonic mean) prices the mix correctly.
type QuantMatMul struct {
	// Steps is the number of tiles.
	Steps int
	// InTileBytes is the quantized input tile volume (INT8 bytes).
	InTileBytes int64
	// Int8OpsPerStep and FP16OpsPerStep are the per-tile operation
	// counts at each precision.
	Int8OpsPerStep, FP16OpsPerStep int64
	// OutBytesPerStep is the result volume per step.
	OutBytesPerStep int64
}

// NewQuantMatMul returns the Fig. 3b configuration: equal operand counts
// at both precisions.
func NewQuantMatMul() *QuantMatMul {
	return &QuantMatMul{
		Steps:           16,
		InTileBytes:     48 << 10,
		Int8OpsPerStep:  24 << 20,
		FP16OpsPerStep:  24 << 20,
		OutBytesPerStep: 32 << 10,
	}
}

// Name implements Kernel.
func (q *QuantMatMul) Name() string { return "quant_matmul" }

// Baseline implements Kernel: the kernel is shipped well pipelined — the
// point of this operator is precision-mix analysis, not defect hunting.
func (q *QuantMatMul) Baseline() Options { return Options{MinimalSync: true, PingPong: true} }

// Supported implements Kernel: fully quantizing the correction product
// away is the LC strategy.
func (q *QuantMatMul) Supported() []Strategy { return []Strategy{LC} }

// Build implements Kernel.
func (q *QuantMatMul) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return q.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (q *QuantMatMul) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if q.Steps <= 0 || q.InTileBytes <= 0 || q.Int8OpsPerStep <= 0 {
		return nil, fmt.Errorf("kernels: quant_matmul: invalid specification")
	}
	variant := "baseline"
	if opts.LowPrecision {
		variant = "optimized"
	}
	b := newBuilder(chip, q.Name()+"/"+variant, want)

	l1In := [2]isa.Region{b.Alloc(hw.L1, q.InTileBytes), b.Alloc(hw.L1, q.InTileBytes)}
	l0a := b.Alloc(hw.L0A, q.InTileBytes)
	l0b := b.Alloc(hw.L0B, 16<<10)
	l0c := b.Alloc(hw.L0C, q.OutBytesPerStep)
	ubOut := [2]isa.Region{b.Alloc(hw.UB, q.OutBytesPerStep), b.Alloc(hw.UB, q.OutBytesPerStep)}

	evIn := [2]int{b.NewEvent(hw.CompMTEGM, hw.CompMTEL1), b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)}
	evWL := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evA := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evC := b.NewEvent(hw.CompCube, hw.CompVector)
	evOut := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	// Quantized weights, staged once.
	b.Copy(hw.PathGMToL1, isa.Region{Level: hw.GM, Off: 1 << 32, Size: 16 << 10},
		isa.Region{Level: hw.L1, Off: l1In[1].End(), Size: 16 << 10}, "load-wq")
	b.Set(hw.CompMTEGM, hw.CompMTEL1, evWL)
	b.Wait(hw.CompMTEGM, hw.CompMTEL1, evWL)
	b.Copy(hw.PathL1ToL0B, isa.Region{Level: hw.L1, Off: l1In[1].End(), Size: 16 << 10},
		l0b, "stage-wq")

	for k := 0; k < q.Steps; k++ {
		s := k % 2
		b.Copy(hw.PathGMToL1,
			isa.Region{Level: hw.GM, Off: int64(k) * q.InTileBytes, Size: q.InTileBytes},
			l1In[s], "load-xq")
		b.Set(hw.CompMTEGM, hw.CompMTEL1, evIn[s])
		b.Wait(hw.CompMTEGM, hw.CompMTEL1, evIn[s])
		b.Copy(hw.PathL1ToL0A, l1In[s], l0a, "stage-xq")
		b.Set(hw.CompMTEL1, hw.CompCube, evA)
		b.Wait(hw.CompMTEL1, hw.CompCube, evA)

		// The quantized main product at INT8.
		b.Compute(hw.Cube, hw.INT8, q.Int8OpsPerStep, 1,
			[]isa.Region{l0a, l0b}, []isa.Region{l0c}, "mad-int8")
		// The rescale/correction product at FP16 — unless LC fully
		// quantizes it away.
		if !opts.LowPrecision && q.FP16OpsPerStep > 0 {
			b.Compute(hw.Cube, hw.FP16, q.FP16OpsPerStep, 1,
				[]isa.Region{l0a, l0b}, []isa.Region{l0c}, "mad-fp16")
		}
		b.Set(hw.CompCube, hw.CompVector, evC)
		b.Wait(hw.CompCube, hw.CompVector, evC)
		b.Compute(hw.Vector, hw.FP16, q.OutBytesPerStep/2, 1,
			[]isa.Region{l0c}, []isa.Region{ubOut[s]}, "dequant-drain")
		b.Set(hw.CompVector, hw.CompMTEUB, evOut)
		b.Wait(hw.CompVector, hw.CompMTEUB, evOut)
		b.Copy(hw.PathUBToGM, ubOut[s],
			isa.Region{Level: hw.GM, Off: 1<<33 + int64(k)*q.OutBytesPerStep, Size: q.OutBytesPerStep},
			"store")
	}
	return b.Program()
}
