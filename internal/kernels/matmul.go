package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// CubeMatMul is the matrix-multiplication pipeline behind MatMul,
// BatchMatMul and FullyConnection. Per step it stages the left tile
// (GM->L1->L0A, or directly GM->L0A under Transfer Transformation),
// stages weights into L0B, multiply-accumulates on the Cube, drains L0C
// through the Vector unit into UB, optionally applies a fused elementwise
// epilogue there, and writes back over MTE-UB.
//
// When the operator has an elementwise epilogue (bias add, activation)
// and Operator Fusion is NOT applied, the epilogue runs as a separate
// pass with its own GM round trip — the memory traffic fusion removes.
type CubeMatMul struct {
	// OpName identifies the operator.
	OpName string

	// Steps is the number of output tiles (or batch elements).
	Steps int

	// InTileBytes is the left-matrix tile volume per step.
	InTileBytes int64

	// WeightBytes is the right-matrix volume; loop-invariant across
	// steps (stationary weights), staged once.
	WeightBytes int64

	// CubeOpsPerStep is the multiply-accumulate count per step.
	CubeOpsPerStep int64

	// OutBytesPerStep is the result volume per step.
	OutBytesPerStep int64

	// VecOpsPerStep drains L0C into UB.
	VecOpsPerStep int64

	// EpilogueOpsPerStep is the elementwise epilogue work (0 = none).
	EpilogueOpsPerStep int64

	// ScalarPerStep is per-step scalar bookkeeping.
	ScalarPerStep int

	// SupportedStrategies lists the applicable optimizations.
	SupportedStrategies []Strategy

	// BaselineOpts is the shipped implementation's option set.
	BaselineOpts Options
}

// Name implements Kernel.
func (m *CubeMatMul) Name() string { return m.OpName }

// Baseline implements Kernel.
func (m *CubeMatMul) Baseline() Options { return m.BaselineOpts }

// Supported implements Kernel.
func (m *CubeMatMul) Supported() []Strategy {
	out := make([]Strategy, len(m.SupportedStrategies))
	copy(out, m.SupportedStrategies)
	return out
}

// Build implements Kernel.
func (m *CubeMatMul) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return m.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (m *CubeMatMul) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if m.Steps <= 0 || m.InTileBytes <= 0 || m.WeightBytes <= 0 {
		return nil, fmt.Errorf("kernels: %s: invalid specification", m.OpName)
	}
	variant := "baseline"
	if opts != m.BaselineOpts {
		variant = "optimized"
	}
	b := newBuilder(chip, m.OpName+"/"+variant, want)

	prec := hw.FP16
	inBytes := m.InTileBytes
	wBytes := m.WeightBytes
	if opts.LowPrecision {
		prec = hw.INT8
		inBytes /= 2
		wBytes /= 2
	}

	p := 1
	if opts.PingPong {
		p = 2
	}
	var l1In []isa.Region
	l0a := make([]isa.Region, p)
	if opts.FastPathTransfers {
		for s := 0; s < p; s++ {
			l0a[s] = b.Alloc(hw.L0A, inBytes)
		}
	} else {
		l1In = make([]isa.Region, p)
		for s := 0; s < p; s++ {
			l1In[s] = b.Alloc(hw.L1, inBytes)
		}
		l0a[0] = b.Alloc(hw.L0A, inBytes)
	}
	l1W := b.Alloc(hw.L1, wBytes)
	l0b := b.Alloc(hw.L0B, wBytes)
	l0c := b.Alloc(hw.L0C, m.OutBytesPerStep)

	merge := opts.MergeFactor
	if merge < 2 {
		merge = 1
	}
	if merge > m.Steps {
		merge = m.Steps
	}
	outSlots := 1
	if opts.SeparateOutputBuffer {
		outSlots = 2
	}
	ubOut := make([]isa.Region, outSlots)
	for s := 0; s < outSlots; s++ {
		ubOut[s] = b.Alloc(hw.UB, m.OutBytesPerStep*int64(merge))
	}

	evAReady := make([]int, p)
	for s := 0; s < p; s++ {
		if opts.FastPathTransfers {
			evAReady[s] = b.NewEvent(hw.CompMTEGM, hw.CompCube)
		} else {
			evAReady[s] = b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
		}
	}
	evStaged := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evWLoaded := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evWReady := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evOutReady := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	gmW := int64(1 << 32)
	gmOut := int64(1 << 33)

	// Weights are stationary: staged once.
	b.Copy(hw.PathGMToL1,
		isa.Region{Level: hw.GM, Off: gmW, Size: wBytes}, l1W, "load-w")
	b.Set(hw.CompMTEGM, hw.CompMTEL1, evWLoaded)
	b.Wait(hw.CompMTEGM, hw.CompMTEL1, evWLoaded)
	b.Copy(hw.PathL1ToL0B, l1W, l0b, "stage-w")
	b.Set(hw.CompMTEL1, hw.CompCube, evWReady)

	pendingMerge := 0
	outBase := int64(0)
	outSlot := 0
	for k := 0; k < m.Steps; k++ {
		s := k % p
		b.ScalarWork(m.ScalarPerStep, 4)

		gmA := isa.Region{Level: hw.GM, Off: int64(k) * inBytes, Size: inBytes}
		if opts.FastPathTransfers {
			b.Copy(hw.PathGMToL0A, gmA, l0a[s], "load-a-direct")
			b.Set(hw.CompMTEGM, hw.CompCube, evAReady[s])
			b.Wait(hw.CompMTEGM, hw.CompCube, evAReady[s])
		} else {
			b.Copy(hw.PathGMToL1, gmA, l1In[s], "load-a")
			b.Set(hw.CompMTEGM, hw.CompMTEL1, evAReady[s])
			b.Wait(hw.CompMTEGM, hw.CompMTEL1, evAReady[s])
			b.Copy(hw.PathL1ToL0A, l1In[s], l0a[0], "stage-a")
			b.Set(hw.CompMTEL1, hw.CompCube, evStaged)
			b.Wait(hw.CompMTEL1, hw.CompCube, evStaged)
		}
		if k == 0 {
			b.Wait(hw.CompMTEL1, hw.CompCube, evWReady)
		}

		cubeSrc := l0a[s%len(l0a)]
		if !opts.FastPathTransfers {
			cubeSrc = l0a[0]
		}
		b.Compute(hw.Cube, prec, m.CubeOpsPerStep, 1,
			[]isa.Region{cubeSrc, l0b}, []isa.Region{l0c}, "mad")
		b.StageSync(hw.CompCube, hw.CompVector, opts.MinimalSync)

		ubSlot := isa.Region{
			Level: hw.UB,
			Off:   ubOut[outSlot].Off + int64(pendingMerge)*m.OutBytesPerStep,
			Size:  m.OutBytesPerStep,
		}
		b.Compute(hw.Vector, hw.FP16, m.VecOpsPerStep, 1,
			[]isa.Region{l0c}, []isa.Region{ubSlot}, "drain-l0c")
		if m.EpilogueOpsPerStep > 0 && opts.Fused {
			b.Compute(hw.Vector, hw.FP16, m.EpilogueOpsPerStep, 1,
				[]isa.Region{ubSlot}, []isa.Region{ubSlot}, "fused-epilogue")
		}
		pendingMerge++

		if pendingMerge >= merge || k == m.Steps-1 {
			size := int64(pendingMerge) * m.OutBytesPerStep
			b.Set(hw.CompVector, hw.CompMTEUB, evOutReady)
			b.Wait(hw.CompVector, hw.CompMTEUB, evOutReady)
			b.Copy(hw.PathUBToGM,
				isa.Region{Level: hw.UB, Off: ubOut[outSlot].Off, Size: size},
				isa.Region{Level: hw.GM, Off: gmOut + outBase, Size: size},
				"store-out")
			outBase += size
			pendingMerge = 0
			outSlot = (outSlot + 1) % outSlots
		}
	}

	// Unfused epilogue: a separate elementwise pass over the whole
	// output with its own GM round trip.
	if m.EpilogueOpsPerStep > 0 && !opts.Fused {
		totalOut := int64(m.Steps) * m.OutBytesPerStep
		tile := m.OutBytesPerStep * int64(merge)
		evIn := b.NewEvent(hw.CompMTEGM, hw.CompVector)
		evOut := b.NewEvent(hw.CompVector, hw.CompMTEUB)
		slot := 0
		for off := int64(0); off < totalOut; off += tile {
			size := tile
			if off+size > totalOut {
				size = totalOut - off
			}
			// Alternate staging buffers (when available) so the next
			// tile's load does not contend with the in-flight store.
			ubEp := ubOut[slot%outSlots]
			slot++
			r := isa.Region{Level: hw.UB, Off: ubEp.Off, Size: size}
			b.Copy(hw.PathGMToUB,
				isa.Region{Level: hw.GM, Off: gmOut + off, Size: size}, r, "epilogue-load")
			b.Set(hw.CompMTEGM, hw.CompVector, evIn)
			b.Wait(hw.CompMTEGM, hw.CompVector, evIn)
			ops := m.EpilogueOpsPerStep * (size / m.OutBytesPerStep)
			if ops < 1 {
				ops = 1
			}
			b.Compute(hw.Vector, hw.FP16, ops, 1, []isa.Region{r}, []isa.Region{r}, "epilogue")
			b.Set(hw.CompVector, hw.CompMTEUB, evOut)
			b.Wait(hw.CompVector, hw.CompMTEUB, evOut)
			b.Copy(hw.PathUBToGM,
				r, isa.Region{Level: hw.GM, Off: gmOut + off, Size: size}, "epilogue-store")
		}
	}
	return b.Program()
}

// NewMatMul returns the MatMul operator: a large GEMM with a bias-add
// epilogue. The shipped implementation runs the epilogue as a separate
// operator (unfused), costing an extra GM round trip: MTE bound, fixed by
// Operator Fusion.
func NewMatMul() *CubeMatMul {
	return &CubeMatMul{
		OpName:             "matmul",
		Steps:              24,
		InTileBytes:        64 << 10,
		WeightBytes:        48 << 10,
		CubeOpsPerStep:     16 << 20,
		OutBytesPerStep:    64 << 10,
		VecOpsPerStep:      32 << 10,
		EpilogueOpsPerStep: 32 << 10,
		ScalarPerStep:      4,
		SupportedStrategies: []Strategy{
			OP,
		},
		BaselineOpts: Options{
			SeparateOutputBuffer: true,
			PingPong:             true,
			MinimalSync:          true,
		},
	}
}

// NewBatchMatMul returns the BatchMatMul operator: many small GEMMs with
// an Add epilogue, fused by OP in the PanGu-alpha optimization.
func NewBatchMatMul() *CubeMatMul {
	return &CubeMatMul{
		OpName:             "batchmatmul",
		Steps:              16,
		InTileBytes:        64 << 10,
		WeightBytes:        64 << 10,
		CubeOpsPerStep:     2 * 256 * 256 * 64,
		OutBytesPerStep:    32 << 10,
		VecOpsPerStep:      16 << 10,
		EpilogueOpsPerStep: 16 << 10,
		ScalarPerStep:      4,
		SupportedStrategies: []Strategy{
			OP, PP,
		},
		BaselineOpts: Options{
			SeparateOutputBuffer: true,
			MinimalSync:          true,
		},
	}
}

// NewFullyConnection returns the FullyConnection operator: a weight-heavy
// GEMM whose per-step outputs are tiny, so the shipped implementation's
// write-backs sit far below full-bandwidth granularity: inefficient MTE,
// fixed by Increasing Transfer Granularity.
func NewFullyConnection() *CubeMatMul {
	return &CubeMatMul{
		OpName:          "fullyconnection",
		Steps:           32,
		InTileBytes:     16 << 10,
		WeightBytes:     48 << 10,
		CubeOpsPerStep:  2 << 20,
		OutBytesPerStep: 16 << 10,
		VecOpsPerStep:   8 << 10,
		ScalarPerStep:   4,
		SupportedStrategies: []Strategy{
			ITG,
		},
		BaselineOpts: Options{
			SeparateOutputBuffer: true,
			PingPong:             true,
			MinimalSync:          true,
		},
	}
}
