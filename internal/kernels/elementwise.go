package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// vecStage is one vector pass over a tile (e.g. the Add pass, then the
// ReLU pass of Add_ReLU).
type vecStage struct {
	// Name labels the emitted instruction.
	Name string
	// Prec is the stage's precision.
	Prec hw.Precision
	// OpsPerElem is the operation count per element.
	OpsPerElem float64
}

// Elementwise is a generic pipelined elementwise operator: per tile it
// loads inputs GM->UB on MTE-GM, runs a chain of Vector stages in UB, and
// writes the result UB->GM on MTE-UB. All the vector-family operators of
// the evaluation (Add_ReLU, Mul, Add, AddN, RealDiv, Cast, DropoutDoMask)
// are instances.
type Elementwise struct {
	// OpName identifies the operator.
	OpName string

	// Elems is the tensor element count, ElemBytes the element size.
	Elems     int64
	ElemBytes int64

	// TileElems is the per-iteration tile size in elements.
	TileElems int64

	// Inputs is the number of tensor inputs loaded per tile (1 for
	// activations, 2 for binary ops like Mul/Add).
	Inputs int

	// ConstBytes is the size of loop-invariant data (e.g. the Add_ReLU
	// constant); the unoptimized implementation reloads it every
	// iteration, MRT hoists it out of the loop.
	ConstBytes int64

	// Stages is the vector pipeline applied to each tile.
	Stages []vecStage

	// FastStages, when non-nil, is the cheaper pipeline selected by the
	// Enhanced Algorithm strategy (e.g. FastGeLU instead of GeLU).
	FastStages []vecStage

	// ScalarPerIter is the per-iteration scalar bookkeeping instruction
	// count of the unoptimized implementation.
	ScalarPerIter int

	// BaselineOpts is the shipped implementation's option set.
	BaselineOpts Options

	// SupportedStrategies lists the applicable optimizations.
	SupportedStrategies []Strategy
}

// Name implements Kernel.
func (e *Elementwise) Name() string { return e.OpName }

// TileSize implements Tunable: the tile size in elements.
func (e *Elementwise) TileSize() int64 { return e.TileElems }

// WithTileSize implements Tunable: a copy retiled to n elements.
func (e *Elementwise) WithTileSize(n int64) Kernel {
	c := *e
	c.TileElems = n
	return &c
}

// Baseline implements Kernel.
func (e *Elementwise) Baseline() Options { return e.BaselineOpts }

// Supported implements Kernel.
func (e *Elementwise) Supported() []Strategy {
	out := make([]Strategy, len(e.SupportedStrategies))
	copy(out, e.SupportedStrategies)
	return out
}

// Build implements Kernel.
func (e *Elementwise) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return e.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (e *Elementwise) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if e.Elems <= 0 || e.TileElems <= 0 || e.ElemBytes <= 0 || len(e.Stages) == 0 {
		return nil, fmt.Errorf("kernels: %s: invalid specification", e.OpName)
	}
	inputs := e.Inputs
	if inputs < 1 {
		inputs = 1
	}
	stages := e.Stages
	if opts.FastAlgorithm && e.FastStages != nil {
		stages = e.FastStages
	}

	// Transfer granularity: ITG scales the tile size so each transfer
	// moves more bytes per setup, clamped to what fits in UB.
	tileElems := e.TileElems
	if opts.MergeFactor >= 2 {
		tileElems *= int64(opts.MergeFactor)
	}
	slots := 1
	if opts.PingPong {
		slots = 2
	}
	buffersPerTile := inputs
	if opts.SeparateOutputBuffer {
		buffersPerTile++
	}
	if avail := chip.BufferSize[hw.UB] - e.ConstBytes; avail > 0 {
		maxTileBytes := avail / int64(buffersPerTile*slots)
		if maxElems := maxTileBytes / e.ElemBytes; tileElems > maxElems {
			tileElems = maxElems
		}
	}
	if tileElems < 1 {
		return nil, fmt.Errorf("kernels: %s: tiles do not fit in UB", e.OpName)
	}
	tiles := int((e.Elems + tileElems - 1) / tileElems)
	tileBytes := tileElems * e.ElemBytes

	variant := "baseline"
	if opts != e.BaselineOpts {
		variant = "optimized"
	}
	b := newBuilder(chip, e.OpName+"/"+variant, want)

	// Buffer plan. P staging slots per tensor (at most 2); the result
	// either shares the first input's staging buffer (spatial
	// dependency!) or gets its own region when RSD is applied.
	// ubIn[s*inputs+i] stages input i in slot s.
	p := 1
	if opts.PingPong {
		p = 2
	}
	ubIn := make([]isa.Region, p*inputs)
	for s := 0; s < p; s++ {
		for i := 0; i < inputs; i++ {
			ubIn[s*inputs+i] = b.Alloc(hw.UB, tileBytes)
		}
	}
	var ubOut [2]isa.Region
	for s := 0; s < p; s++ {
		if opts.SeparateOutputBuffer {
			ubOut[s] = b.Alloc(hw.UB, tileBytes)
		} else {
			ubOut[s] = ubIn[s*inputs]
		}
	}
	var ubConst isa.Region
	if e.ConstBytes > 0 {
		ubConst = b.Alloc(hw.UB, e.ConstBytes)
	}

	// GM layout: the inputs (input i at i*totalBytes), then the
	// constant, then the output.
	totalBytes := e.Elems * e.ElemBytes
	gmConst := int64(inputs) * totalBytes
	gmOut := gmConst + e.ConstBytes

	// Flag events, one per staging slot.
	var evInReady, evOutReady [2]int
	for s := 0; s < p; s++ {
		evInReady[s] = b.NewEvent(hw.CompMTEGM, hw.CompVector)
		evOutReady[s] = b.NewEvent(hw.CompVector, hw.CompMTEUB)
	}

	// The builder copies each instruction's regions into the program,
	// so one reads list serves every tile.
	var readsBuf [4]isa.Region
	reads := readsBuf[:0]

	if e.ConstBytes > 0 && opts.HoistInvariantTransfers {
		b.Copy(hw.PathGMToUB,
			isa.Region{Level: hw.GM, Off: gmConst, Size: e.ConstBytes},
			ubConst, "load-const")
	}

	for k := 0; k < tiles; k++ {
		s := k % p
		curBytes := tileBytes
		if rem := e.Elems - int64(k)*tileElems; rem < tileElems {
			curBytes = rem * e.ElemBytes
		}
		curElems := curBytes / e.ElemBytes

		// Per-iteration scalar bookkeeping (addresses, loop control).
		scalars := e.ScalarPerIter
		if opts.EarlyIssue && scalars > 2 {
			scalars = 2
		}
		b.ScalarWork(scalars, 4)

		// Redundant constant reload inside the loop (removed by MRT).
		if e.ConstBytes > 0 && !opts.HoistInvariantTransfers {
			b.Copy(hw.PathGMToUB,
				isa.Region{Level: hw.GM, Off: gmConst, Size: e.ConstBytes},
				ubConst, "load-const")
		}

		// Load input tiles.
		for i := 0; i < inputs; i++ {
			b.Copy(hw.PathGMToUB,
				isa.Region{Level: hw.GM, Off: int64(i)*totalBytes + int64(k)*tileBytes, Size: curBytes},
				isa.Region{Level: hw.UB, Off: ubIn[s*inputs+i].Off, Size: curBytes},
				loadLabel(i))
		}
		b.Set(hw.CompMTEGM, hw.CompVector, evInReady[s])
		b.Wait(hw.CompMTEGM, hw.CompVector, evInReady[s])

		// Vector pipeline over the tile.
		reads = reads[:0]
		for i := 0; i < inputs; i++ {
			reads = append(reads, isa.Region{Level: hw.UB, Off: ubIn[s*inputs+i].Off, Size: curBytes})
		}
		if e.ConstBytes > 0 {
			reads = append(reads, ubConst)
		}
		work := isa.Region{Level: hw.UB, Off: ubOut[s].Off, Size: curBytes}
		for si, st := range stages {
			ops := int64(float64(curElems) * st.OpsPerElem)
			if ops < 1 {
				ops = 1
			}
			r := reads
			if si > 0 {
				r = []isa.Region{work}
			}
			b.Compute(hw.Vector, st.Prec, ops, 1, r, []isa.Region{work}, st.Name)
		}

		// Write the result back.
		b.Set(hw.CompVector, hw.CompMTEUB, evOutReady[s])
		b.Wait(hw.CompVector, hw.CompMTEUB, evOutReady[s])
		b.Copy(hw.PathUBToGM,
			work,
			isa.Region{Level: hw.GM, Off: gmOut + int64(k)*tileBytes, Size: curBytes},
			"store-y")
	}
	return b.Program()
}

// NewAddReLU returns the Add_ReLU operator from the Hard-Swish activation
// of MobileNetV3 (Section 5.1): ReLU(x + c). The shipped implementation
// reloads the constant every iteration and computes in place, creating a
// spatial dependency between the write-back and the next round's load.
func NewAddReLU() *Elementwise {
	return &Elementwise{
		OpName:    "add_relu",
		Elems:     528 << 10,
		ElemBytes: 2,
		TileElems: 48 << 10,
		Inputs:    1,
		// The broadcast constant block.
		ConstBytes: 1 << 10,
		Stages: []vecStage{
			{Name: "add", Prec: hw.FP16, OpsPerElem: 1},
			{Name: "relu", Prec: hw.FP16, OpsPerElem: 1},
		},
		ScalarPerIter:       4,
		BaselineOpts:        Options{},
		SupportedStrategies: []Strategy{RSD, MRT},
	}
}

// NewMul returns the element-wise Mul operator (two tensor inputs). Its
// shipped implementation shares the output buffer with the first input.
func NewMul() *Elementwise {
	return &Elementwise{
		OpName:    "mul",
		Elems:     512 << 10,
		ElemBytes: 2,
		TileElems: 24 << 10,
		Inputs:    2,
		Stages: []vecStage{
			{Name: "mul", Prec: hw.FP16, OpsPerElem: 1},
		},
		ScalarPerIter:       4,
		BaselineOpts:        Options{},
		SupportedStrategies: []Strategy{RSD},
	}
}

// NewAdd returns the element-wise Add operator.
func NewAdd() *Elementwise {
	e := NewMul()
	e.OpName = "add"
	e.Stages = []vecStage{{Name: "add", Prec: hw.FP16, OpsPerElem: 1}}
	return e
}

// NewAddN returns the AddN operator summing three tensors.
func NewAddN() *Elementwise {
	return &Elementwise{
		OpName:    "addn",
		Elems:     384 << 10,
		ElemBytes: 2,
		TileElems: 16 << 10,
		Inputs:    3,
		Stages: []vecStage{
			{Name: "add0", Prec: hw.FP16, OpsPerElem: 1},
			{Name: "add1", Prec: hw.FP16, OpsPerElem: 1},
		},
		ScalarPerIter:       4,
		BaselineOpts:        Options{},
		SupportedStrategies: []Strategy{RSD, ITG},
	}
}

// NewRealDiv returns the element-wise RealDiv operator. Division costs
// several vector micro-ops per element.
func NewRealDiv() *Elementwise {
	return &Elementwise{
		OpName:    "realdiv",
		Elems:     256 << 10,
		ElemBytes: 4,
		TileElems: 8 << 10,
		Inputs:    2,
		Stages: []vecStage{
			{Name: "div", Prec: hw.FP32, OpsPerElem: 4},
		},
		ScalarPerIter:       4,
		BaselineOpts:        Options{},
		SupportedStrategies: []Strategy{RSD, PP},
	}
}

// NewCast returns the Cast format-conversion operator (FP32 -> FP16),
// one of the format operators dominating PanGu-alpha iterations.
func NewCast() *Elementwise {
	return &Elementwise{
		OpName:    "cast",
		Elems:     512 << 10,
		ElemBytes: 4,
		TileElems: 16 << 10,
		Inputs:    1,
		Stages: []vecStage{
			{Name: "cast", Prec: hw.FP32, OpsPerElem: 1},
		},
		ScalarPerIter:       6,
		BaselineOpts:        Options{},
		SupportedStrategies: []Strategy{RSD, PP, AIS},
	}
}

// NewGeLU returns the GeLU activation. The shipped implementation is
// already well pipelined (separate output buffer, ping-pong staging), so
// it is compute bound; the Enhanced Algorithm strategy switches to the
// FastGeLU approximation with far fewer vector micro-ops per element.
func NewGeLU() *Elementwise {
	return &Elementwise{
		OpName:    "gelu",
		Elems:     512 << 10,
		ElemBytes: 2,
		TileElems: 24 << 10,
		Inputs:    1,
		// GeLU's tanh expansion runs in FP32 internally for accuracy.
		Stages: []vecStage{
			{Name: "gelu", Prec: hw.FP32, OpsPerElem: 26},
		},
		FastStages: []vecStage{
			{Name: "fast_gelu", Prec: hw.FP32, OpsPerElem: 14},
		},
		ScalarPerIter: 2,
		BaselineOpts: Options{
			SeparateOutputBuffer:    true,
			PingPong:                true,
			HoistInvariantTransfers: true,
		},
		SupportedStrategies: []Strategy{EA},
	}
}

// NewDropoutDoMask returns the DropoutDoMask operator: an element-wise
// mask-multiply with an extra mask input and a scale pass. The enhanced
// V3 variant (EA) fuses the passes.
func NewDropoutDoMask() *Elementwise {
	e := &Elementwise{
		OpName:    "dropout_do_mask",
		Elems:     384 << 10,
		ElemBytes: 2,
		TileElems: 16 << 10,
		Inputs:    2, // activations + mask
		Stages: []vecStage{
			{Name: "mask", Prec: hw.FP16, OpsPerElem: 1},
			{Name: "scale", Prec: hw.FP16, OpsPerElem: 1},
		},
		// DropoutDoMaskV3 fuses mask and scale into one pass.
		FastStages: []vecStage{
			{Name: "mask_scale_v3", Prec: hw.FP16, OpsPerElem: 1},
		},
		ScalarPerIter:       6,
		BaselineOpts:        Options{},
		SupportedStrategies: []Strategy{RSD, PP, EA},
	}
	return e
}

// loadLabels are the labels of the first inputs' loads.
var loadLabels = [...]string{"load-x0", "load-x1", "load-x2", "load-x3"}

// loadLabel labels the load of input i.
func loadLabel(i int) string {
	if i < len(loadLabels) {
		return loadLabels[i]
	}
	return fmt.Sprintf("load-x%d", i)
}
