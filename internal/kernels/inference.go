package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// This file holds the LLM-inference operators: the tiled attention,
// KV-cache maintenance and quantized GEMM kernels that dominate
// autoregressive decoding, built from the same primitive pipeline
// stages as the training operators.

// FlashAttention is the tiled attention kernel: the query tile stays
// stationary in L0A while the key/value sequence streams through L0B
// one tile at a time, with an online-softmax rescale on the Vector unit
// between the two Cube products (Q·Kᵀ, then P·V). The output
// accumulator never leaves the core until the final normalize, so GM
// traffic is one read of K/V plus one write of O — the memory-shape
// that gives the algorithm its advantage over materialized attention.
type FlashAttention struct {
	// OpName identifies the operator.
	OpName string

	// KVTiles is the number of key/value tiles the sequence is split
	// into.
	KVTiles int

	// QBytes is the stationary query tile volume, staged into L0A once.
	QBytes int64

	// KTileBytes and VTileBytes are the per-tile key and value volumes.
	KTileBytes, VTileBytes int64

	// ScoreBytes is the S = Q·Kᵀ score tile held in L0C.
	ScoreBytes int64

	// QKOpsPerTile and PVOpsPerTile are the Cube multiply-accumulate
	// counts of the two products per tile.
	QKOpsPerTile, PVOpsPerTile int64

	// VecOpsPerTile is the online-softmax work (running row max, exp,
	// rescale of the accumulator) per tile.
	VecOpsPerTile int64

	// OutBytes is the output tile volume written back once at the end.
	OutBytes int64

	// ScalarPerTile is the per-tile scalar bookkeeping (tile addresses,
	// loop control); Adjusting Instruction Sequence elides most of it.
	ScalarPerTile int

	// SupportedStrategies lists the applicable optimizations.
	SupportedStrategies []Strategy

	// BaselineOpts is the shipped implementation's option set.
	BaselineOpts Options
}

// NewFlashAttention returns the decode-shaped tiled attention: a small
// stationary Q block against a long cached sequence. The shipped
// implementation separates its pipeline stages with full barriers and
// single-buffers the K/V stream, so the Cube idles while the MTEs
// refill — insufficient parallelism, fixed by RUS, PP and AIS.
func NewFlashAttention() *FlashAttention {
	return &FlashAttention{
		OpName:        "flash_attention",
		KVTiles:       16,
		QBytes:        16 << 10,
		KTileBytes:    12 << 10,
		VTileBytes:    12 << 10,
		ScoreBytes:    16 << 10,
		QKOpsPerTile:  6 << 20,
		PVOpsPerTile:  6 << 20,
		VecOpsPerTile: 24 << 10,
		OutBytes:      16 << 10,
		ScalarPerTile: 8,
		SupportedStrategies: []Strategy{
			RUS, PP, AIS,
		},
		BaselineOpts: Options{},
	}
}

// Name implements Kernel.
func (f *FlashAttention) Name() string { return f.OpName }

// Baseline implements Kernel.
func (f *FlashAttention) Baseline() Options { return f.BaselineOpts }

// Supported implements Kernel.
func (f *FlashAttention) Supported() []Strategy {
	out := make([]Strategy, len(f.SupportedStrategies))
	copy(out, f.SupportedStrategies)
	return out
}

// Build implements Kernel.
func (f *FlashAttention) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return f.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (f *FlashAttention) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if f.KVTiles <= 0 || f.QBytes <= 0 || f.KTileBytes <= 0 || f.VTileBytes <= 0 {
		return nil, fmt.Errorf("kernels: %s: invalid specification", f.OpName)
	}
	variant := "baseline"
	if opts != f.BaselineOpts {
		variant = "optimized"
	}
	b := newBuilder(chip, f.OpName+"/"+variant, want)

	p := 1
	if opts.PingPong {
		p = 2
	}

	// Q is stationary in L0A for the whole sequence walk.
	l0aQ := b.Alloc(hw.L0A, f.QBytes)
	l1K := make([]isa.Region, p)
	l1V := make([]isa.Region, p)
	l0bK := make([]isa.Region, p)
	l0bV := make([]isa.Region, p)
	for s := 0; s < p; s++ {
		l1K[s] = b.Alloc(hw.L1, f.KTileBytes)
		l1V[s] = b.Alloc(hw.L1, f.VTileBytes)
		l0bK[s] = b.Alloc(hw.L0B, f.KTileBytes)
		l0bV[s] = b.Alloc(hw.L0B, f.VTileBytes)
	}
	l0cS := b.Alloc(hw.L0C, f.ScoreBytes)
	l0cO := b.Alloc(hw.L0C, f.OutBytes)
	ubStats := b.Alloc(hw.UB, 2<<10) // running row max and row sum
	ubOut := b.Alloc(hw.UB, f.OutBytes)

	evQ := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evQStaged := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evK := make([]int, p)
	evV := make([]int, p)
	evKV := make([]int, p)
	for s := 0; s < p; s++ {
		evK[s] = b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
		evV[s] = b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
		evKV[s] = b.NewEvent(hw.CompMTEL1, hw.CompCube)
	}
	evOut := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	gmKV := int64(1 << 32)
	gmOut := int64(1 << 33)

	// Stage Q once: GM -> L1 -> L0A.
	l1Q := b.Alloc(hw.L1, f.QBytes)
	b.Copy(hw.PathGMToL1,
		isa.Region{Level: hw.GM, Off: 0, Size: f.QBytes}, l1Q, "load-q")
	b.Set(hw.CompMTEGM, hw.CompMTEL1, evQ)
	b.Wait(hw.CompMTEGM, hw.CompMTEL1, evQ)
	b.Copy(hw.PathL1ToL0A, l1Q, l0aQ, "stage-q")
	b.Set(hw.CompMTEL1, hw.CompCube, evQStaged)

	scalar := f.ScalarPerTile
	if opts.EarlyIssue {
		scalar = 2
	}

	for k := 0; k < f.KVTiles; k++ {
		s := k % p
		b.ScalarWork(scalar, 4)

		gmK := isa.Region{Level: hw.GM, Off: gmKV + int64(k)*(f.KTileBytes+f.VTileBytes), Size: f.KTileBytes}
		gmV := isa.Region{Level: hw.GM, Off: gmK.End(), Size: f.VTileBytes}
		b.Copy(hw.PathGMToL1, gmK, l1K[s], "load-k")
		if opts.EarlyIssue {
			// Issue the independent V load ahead of the K staging chain.
			b.Copy(hw.PathGMToL1, gmV, l1V[s], "load-v")
			b.Set(hw.CompMTEGM, hw.CompMTEL1, evK[s])
			b.Wait(hw.CompMTEGM, hw.CompMTEL1, evK[s])
		} else {
			b.Set(hw.CompMTEGM, hw.CompMTEL1, evK[s])
			b.Wait(hw.CompMTEGM, hw.CompMTEL1, evK[s])
			b.Copy(hw.PathGMToL1, gmV, l1V[s], "load-v")
		}
		b.Copy(hw.PathL1ToL0B, l1K[s], l0bK[s], "stage-k")
		if !opts.EarlyIssue {
			b.Set(hw.CompMTEGM, hw.CompMTEL1, evV[s])
			b.Wait(hw.CompMTEGM, hw.CompMTEL1, evV[s])
		}
		b.Copy(hw.PathL1ToL0B, l1V[s], l0bV[s], "stage-v")
		b.Set(hw.CompMTEL1, hw.CompCube, evKV[s])
		b.Wait(hw.CompMTEL1, hw.CompCube, evKV[s])
		if k == 0 {
			b.Wait(hw.CompMTEL1, hw.CompCube, evQStaged)
		}

		// S = Q·Kᵀ for this tile.
		b.Compute(hw.Cube, hw.FP16, f.QKOpsPerTile, 1,
			[]isa.Region{l0aQ, l0bK[s]}, []isa.Region{l0cS}, "mad-qk")
		b.StageSync(hw.CompCube, hw.CompVector, opts.MinimalSync)
		// Online softmax: update the running row max/sum and rescale.
		b.Compute(hw.Vector, hw.FP16, f.VecOpsPerTile, 1,
			[]isa.Region{l0cS, ubStats}, []isa.Region{ubStats, l0cS}, "online-softmax")
		b.StageSync(hw.CompVector, hw.CompCube, opts.MinimalSync)
		// O += P·V with the rescaled probabilities.
		b.Compute(hw.Cube, hw.FP16, f.PVOpsPerTile, 1,
			[]isa.Region{l0cS, l0bV[s]}, []isa.Region{l0cO}, "mad-pv")
		// Single-buffered K/V must not be overwritten while the Cube
		// still reads it; ping-pong gives the next tile its own slot,
		// so the loads overlap the products.
		if !opts.PingPong && k < f.KVTiles-1 {
			b.StageSync(hw.CompCube, hw.CompMTEGM, opts.MinimalSync)
		}
	}

	// Final normalize by the accumulated row sums and write back.
	b.StageSync(hw.CompCube, hw.CompVector, opts.MinimalSync)
	b.Compute(hw.Vector, hw.FP16, f.OutBytes/2, 1,
		[]isa.Region{l0cO, ubStats}, []isa.Region{ubOut}, "normalize")
	b.Set(hw.CompVector, hw.CompMTEUB, evOut)
	b.Wait(hw.CompVector, hw.CompMTEUB, evOut)
	b.Copy(hw.PathUBToGM, ubOut,
		isa.Region{Level: hw.GM, Off: gmOut, Size: f.OutBytes}, "store-o")
	return b.Program()
}

// KVCacheAppend is the decode-step cache maintenance operator: the new
// token's key and value vectors are appended to every head's cache
// slab in GM, with a rotary-embedding pass applied on the way through.
// The volumes are tiny — per head, one token's K and V — and the
// shipped implementation serializes a load/rope/store chain per head:
// insufficient parallelism, fixed by Increasing Transfer Granularity
// (batch the heads into one copy), AIS (elide per-head address
// bookkeeping) and RSD (separate staging buffers). Even merged, the
// transfers stay small, so the optimized form is left inefficient-MTE —
// the setup-dominated residue of cache maintenance.
type KVCacheAppend struct {
	// OpName identifies the operator.
	OpName string

	// Heads is the number of attention heads.
	Heads int

	// BytesPerHead is the new token's K+V volume per head.
	BytesPerHead int64

	// RopeOpsPerHead is the rotary-embedding vector work per head.
	RopeOpsPerHead int64

	// ScalarPerHead is the per-head address bookkeeping.
	ScalarPerHead int

	// SupportedStrategies lists the applicable optimizations.
	SupportedStrategies []Strategy

	// BaselineOpts is the shipped implementation's option set.
	BaselineOpts Options
}

// NewKVCacheAppend returns the decode-shaped cache append: 32 heads,
// one token's K/V each, written head by head in the shipped
// implementation.
func NewKVCacheAppend() *KVCacheAppend {
	return &KVCacheAppend{
		OpName:         "kv_cache_append",
		Heads:          32,
		BytesPerHead:   1 << 10,
		RopeOpsPerHead: 512,
		ScalarPerHead:  6,
		SupportedStrategies: []Strategy{
			ITG, AIS, RSD,
		},
		BaselineOpts: Options{},
	}
}

// Name implements Kernel.
func (a *KVCacheAppend) Name() string { return a.OpName }

// Baseline implements Kernel.
func (a *KVCacheAppend) Baseline() Options { return a.BaselineOpts }

// Supported implements Kernel.
func (a *KVCacheAppend) Supported() []Strategy {
	out := make([]Strategy, len(a.SupportedStrategies))
	copy(out, a.SupportedStrategies)
	return out
}

// Build implements Kernel.
func (a *KVCacheAppend) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return a.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (a *KVCacheAppend) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	if a.Heads <= 0 || a.BytesPerHead <= 0 {
		return nil, fmt.Errorf("kernels: %s: invalid specification", a.OpName)
	}
	variant := "baseline"
	if opts != a.BaselineOpts {
		variant = "optimized"
	}
	b := newBuilder(chip, a.OpName+"/"+variant, want)

	merge := opts.MergeFactor
	if merge < 2 {
		merge = 1
	}
	if merge > a.Heads {
		merge = a.Heads
	}
	slots := 1
	if opts.SeparateOutputBuffer {
		slots = 2
	}
	ub := make([]isa.Region, slots)
	for s := 0; s < slots; s++ {
		ub[s] = b.Alloc(hw.UB, a.BytesPerHead*int64(merge))
	}

	evIn := b.NewEvent(hw.CompMTEGM, hw.CompVector)
	evOut := b.NewEvent(hw.CompVector, hw.CompMTEUB)

	scalar := a.ScalarPerHead
	if opts.EarlyIssue {
		scalar = 1
	}

	// The cache slab sits far from the incoming token block in GM.
	gmCache := int64(1 << 32)

	slot := 0
	for h := 0; h < a.Heads; h += merge {
		group := merge
		if h+group > a.Heads {
			group = a.Heads - h
		}
		size := a.BytesPerHead * int64(group)
		r := isa.Region{Level: hw.UB, Off: ub[slot].Off, Size: size}
		slot = (slot + 1) % slots

		b.ScalarWork(scalar*group, 4)
		b.Copy(hw.PathGMToUB,
			isa.Region{Level: hw.GM, Off: int64(h) * a.BytesPerHead, Size: size}, r, "load-token-kv")
		b.Set(hw.CompMTEGM, hw.CompVector, evIn)
		b.Wait(hw.CompMTEGM, hw.CompVector, evIn)
		b.Compute(hw.Vector, hw.FP16, a.RopeOpsPerHead*int64(group), 1,
			[]isa.Region{r}, []isa.Region{r}, "rope")
		b.Set(hw.CompVector, hw.CompMTEUB, evOut)
		b.Wait(hw.CompVector, hw.CompMTEUB, evOut)
		b.Copy(hw.PathUBToGM, r,
			isa.Region{Level: hw.GM, Off: gmCache + int64(h)*a.BytesPerHead, Size: size}, "append-cache")
	}
	return b.Program()
}

// NewInt8MatMul returns the weight-quantized decode GEMM: INT8 weights
// and activations halve the transfer volumes and double the Cube rate,
// with a dequantize epilogue on the way out. Decode steps are
// batch-one, so the per-step output tiles are small and the shipped
// implementation's unfused epilogue costs a full extra GM round trip —
// fixed by Operator Fusion; the small write-backs also benefit from
// Increasing Transfer Granularity.
func NewInt8MatMul() *CubeMatMul {
	return &CubeMatMul{
		OpName:             "int8_matmul",
		Steps:              32,
		InTileBytes:        16 << 10,
		WeightBytes:        96 << 10,
		CubeOpsPerStep:     8 << 20,
		OutBytesPerStep:    8 << 10,
		VecOpsPerStep:      4 << 10,
		EpilogueOpsPerStep: 4 << 10,
		ScalarPerStep:      4,
		SupportedStrategies: []Strategy{
			OP, ITG,
		},
		BaselineOpts: Options{
			LowPrecision:         true,
			SeparateOutputBuffer: true,
			MinimalSync:          true,
			PingPong:             true,
		},
	}
}
