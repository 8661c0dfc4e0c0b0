package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// CubeConv is the convolution-family pipeline used by the Depthwise and
// Conv2D operators (Section 5.2): input tiles flow GM->L1 (MTE-GM), then
// in sub-blocks L1->L0A (MTE-L1); weights flow GM->L1->L0B; the Cube unit
// multiply-accumulates into L0C; the Vector unit drains L0C into UB; and
// MTE-UB writes results back to GM.
//
// The shipped implementation exhibits all four Section 5.2 defects:
//
//   - late issue of the next tile's GM->L1 load behind a pile of scalar
//     bookkeeping (fixed by AIS);
//   - pipe_barrier(PIPE_ALL) between pipeline stages (fixed by RUS);
//   - single-buffered L1 staging, so the next load contends with the
//     current tile's L1->L0A reads (fixed by PP);
//   - per-sub-block write-backs far below full-bandwidth granularity
//     (fixed by ITG);
//   - and, for variants that reload weights each tile, redundant weight
//     transfers (fixed by MRT).
type CubeConv struct {
	// OpName identifies the operator ("depthwise", "conv2d").
	OpName string

	// Tiles is the number of input tiles.
	Tiles int

	// InTileBytes is the GM->L1 load size per tile.
	InTileBytes int64

	// SubBlocks is how many L0A-sized chunks each tile is processed in.
	SubBlocks int

	// SubBytes is the L1->L0A chunk size.
	SubBytes int64

	// WeightBytes is the weight volume staged GM->L1->L0B; the baseline
	// reloads it every tile unless MRT is applied.
	WeightBytes int64

	// CubeOpsPerSub is the multiply-accumulate operation count per
	// sub-block.
	CubeOpsPerSub int64

	// OutBytesPerSub is the result volume produced per sub-block.
	OutBytesPerSub int64

	// VecOpsPerSub is the Vector work draining L0C into UB per sub-block.
	VecOpsPerSub int64

	// ScalarPerTile is the baseline per-tile scalar bookkeeping count
	// (reduced by AIS).
	ScalarPerTile int

	// CubePrec is the matmul precision (FP16 unless LC quantizes).
	CubePrec hw.Precision

	// FastCubeOpsPerSub, when non-zero, is the reduced MAC count of the
	// Enhanced Algorithm variant (e.g. Winograd F(2x2,3x3) cuts a 3x3
	// convolution's multiplies ~2.25x).
	FastCubeOpsPerSub int64

	// SupportedStrategies lists the applicable optimizations.
	SupportedStrategies []Strategy

	// BaselineOpts is the shipped implementation's option set.
	BaselineOpts Options
}

// Name implements Kernel.
func (c *CubeConv) Name() string { return c.OpName }

// Baseline implements Kernel.
func (c *CubeConv) Baseline() Options { return c.BaselineOpts }

// Supported implements Kernel.
func (c *CubeConv) Supported() []Strategy {
	out := make([]Strategy, len(c.SupportedStrategies))
	copy(out, c.SupportedStrategies)
	return out
}

// Build implements Kernel.
func (c *CubeConv) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return c.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (c *CubeConv) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if c.Tiles <= 0 || c.SubBlocks <= 0 || c.InTileBytes <= 0 || c.SubBytes <= 0 {
		return nil, fmt.Errorf("kernels: %s: invalid specification", c.OpName)
	}
	variant := "baseline"
	if opts != c.BaselineOpts {
		variant = "optimized"
	}
	b := newBuilder(chip, c.OpName+"/"+variant, want)
	prec := c.CubePrec
	cubeOps := c.CubeOpsPerSub
	if opts.FastAlgorithm && c.FastCubeOpsPerSub > 0 {
		cubeOps = c.FastCubeOpsPerSub
	}
	if opts.LowPrecision {
		prec = hw.INT8
		// INT8 halves the effective operand volume per operation.
	}

	// L1 staging: one or two slots (PP).
	p := 1
	if opts.PingPong {
		p = 2
	}
	l1In := make([]isa.Region, p)
	for s := 0; s < p; s++ {
		l1In[s] = b.Alloc(hw.L1, c.InTileBytes)
	}
	l1W := b.Alloc(hw.L1, c.WeightBytes)
	l0a := b.Alloc(hw.L0A, c.SubBytes)
	l0b := b.Alloc(hw.L0B, c.WeightBytes)
	l0c := b.Alloc(hw.L0C, c.OutBytesPerSub)

	// UB accumulates MergeFactor sub-block results before write-back.
	// With RSD the drain target double-buffers so the next sub-block's
	// drain does not contend with the in-flight write-back.
	merge := opts.MergeFactor
	if merge < 2 {
		merge = 1
	}
	if merge > c.SubBlocks {
		merge = c.SubBlocks
	}
	outSlots := 1
	if opts.SeparateOutputBuffer {
		outSlots = 2
	}
	ubOut := make([]isa.Region, outSlots)
	for s := 0; s < outSlots; s++ {
		ubOut[s] = b.Alloc(hw.UB, c.OutBytesPerSub*int64(merge))
	}

	// Flag events.
	evL1Ready := make([]int, p)
	for s := 0; s < p; s++ {
		evL1Ready[s] = b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	}
	evWLoaded := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evWReady := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evOutReady := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	gmW := int64(1 << 32)
	gmOut := int64(1 << 33)

	loadWeights := func() {
		b.Copy(hw.PathGMToL1,
			isa.Region{Level: hw.GM, Off: gmW, Size: c.WeightBytes},
			l1W, "load-w")
		b.Set(hw.CompMTEGM, hw.CompMTEL1, evWLoaded)
		b.Wait(hw.CompMTEGM, hw.CompMTEL1, evWLoaded)
		b.Copy(hw.PathL1ToL0B, l1W, l0b, "stage-w")
		b.Set(hw.CompMTEL1, hw.CompCube, evWReady)
	}
	if opts.HoistInvariantTransfers {
		loadWeights()
	}

	loadTile := func(k int) {
		s := k % p
		b.Copy(hw.PathGMToL1,
			isa.Region{Level: hw.GM, Off: int64(k) * c.InTileBytes, Size: c.InTileBytes},
			l1In[s], fmt.Sprintf("load-in%d", k))
		b.Set(hw.CompMTEGM, hw.CompMTEL1, evL1Ready[s])
	}

	// With AIS the first load is issued before any bookkeeping and each
	// next tile's load is issued at the top of the previous iteration.
	if opts.EarlyIssue {
		loadTile(0)
	}

	outBase := int64(0)
	pendingMerge := 0
	outSlot := 0
	for k := 0; k < c.Tiles; k++ {
		s := k % p

		scalars := c.ScalarPerTile
		if opts.EarlyIssue && scalars > 4 {
			scalars = 4
		}
		b.ScalarWork(scalars, 4)

		if opts.EarlyIssue {
			if k+1 < c.Tiles {
				loadTile(k + 1)
			}
		} else {
			loadTile(k)
		}
		if !opts.HoistInvariantTransfers {
			loadWeights()
		}

		b.Wait(hw.CompMTEGM, hw.CompMTEL1, evL1Ready[s])
		for sub := 0; sub < c.SubBlocks; sub++ {
			// Stage the sub-block into L0A.
			off := int64(sub) * c.SubBytes
			if off+c.SubBytes > c.InTileBytes {
				off = c.InTileBytes - c.SubBytes
			}
			b.Copy(hw.PathL1ToL0A,
				isa.Region{Level: hw.L1, Off: l1In[s].Off + off, Size: c.SubBytes},
				l0a, "stage-a")
			b.StageSync(hw.CompMTEL1, hw.CompCube, opts.MinimalSync)
			if k == 0 && sub == 0 {
				// The Cube must also observe the weights.
				b.Wait(hw.CompMTEL1, hw.CompCube, evWReady)
			} else if !opts.HoistInvariantTransfers && sub == 0 {
				b.Wait(hw.CompMTEL1, hw.CompCube, evWReady)
			}

			// Multiply-accumulate into L0C.
			b.Compute(hw.Cube, prec, cubeOps, 1,
				[]isa.Region{l0a, l0b}, []isa.Region{l0c}, "mad")
			b.StageSync(hw.CompCube, hw.CompVector, opts.MinimalSync)

			// Drain L0C into UB.
			ubSlot := isa.Region{
				Level: hw.UB,
				Off:   ubOut[outSlot].Off + int64(pendingMerge)*c.OutBytesPerSub,
				Size:  c.OutBytesPerSub,
			}
			b.Compute(hw.Vector, hw.FP16, c.VecOpsPerSub, 1,
				[]isa.Region{l0c}, []isa.Region{ubSlot}, "drain-l0c")
			pendingMerge++

			// Write back: every sub-block individually, or merged.
			if pendingMerge >= merge || (k == c.Tiles-1 && sub == c.SubBlocks-1) {
				size := int64(pendingMerge) * c.OutBytesPerSub
				b.Set(hw.CompVector, hw.CompMTEUB, evOutReady)
				b.Wait(hw.CompVector, hw.CompMTEUB, evOutReady)
				b.Copy(hw.PathUBToGM,
					isa.Region{Level: hw.UB, Off: ubOut[outSlot].Off, Size: size},
					isa.Region{Level: hw.GM, Off: gmOut + outBase, Size: size},
					"store-out")
				outBase += size
				pendingMerge = 0
				outSlot = (outSlot + 1) % outSlots
				if !opts.MinimalSync {
					b.Barrier()
				}
			}
		}
	}
	return b.Program()
}

// NewDepthwise returns the Depthwise operator of Section 5.2: low
// arithmetic intensity per sub-block, so it lives or dies on transfer
// pipelining.
func NewDepthwise() *CubeConv {
	return &CubeConv{
		OpName:         "depthwise",
		Tiles:          10,
		InTileBytes:    256 << 10,
		SubBlocks:      4,
		SubBytes:       64 << 10,
		WeightBytes:    16 << 10,
		CubeOpsPerSub:  2 * 9 * (32 << 10), // k=3 depthwise MACs per element
		OutBytesPerSub: 8 << 10,
		VecOpsPerSub:   32 << 10,
		// The shipped implementation loops over channels with explicit
		// scalar address computation: hundreds of scalar instructions per
		// tile, whose dispatch delays the next tile's GM->L1 load.
		ScalarPerTile: 400,
		CubePrec:      hw.FP16,
		SupportedStrategies: []Strategy{
			AIS, RUS, PP, ITG, MRT,
		},
		BaselineOpts: Options{},
	}
}

// NewConv2D returns the dense Conv2D operator: far more Cube work per
// sub-block than depthwise, a shipped implementation that reloads weights
// every tile and synchronizes with full barriers.
func NewConv2D() *CubeConv {
	return &CubeConv{
		OpName:        "conv2d",
		Tiles:         8,
		InTileBytes:   128 << 10,
		SubBlocks:     4,
		SubBytes:      32 << 10,
		WeightBytes:   32 << 10,
		CubeOpsPerSub: 2 * 512 * (16 << 10), // 512 output channels of MACs
		// Winograd F(2x2,3x3) cuts the multiplies ~2.25x.
		FastCubeOpsPerSub: 2 * 512 * (16 << 10) * 4 / 9,
		OutBytesPerSub:    32 << 10,
		VecOpsPerSub:      16 << 10,
		ScalarPerTile:     16,
		CubePrec:          hw.FP16,
		// EA (Winograd) is deliberately NOT in the default strategy set:
		// the evaluation's Conv2D stays on the direct algorithm so the
		// compute-bound behaviour on the inference chip (Fig. 14c) is
		// observable. Enable it per-instance via Apply(opts, EA).
		SupportedStrategies: []Strategy{
			RSD, MRT, RUS, PP,
		},
		BaselineOpts: Options{},
	}
}
