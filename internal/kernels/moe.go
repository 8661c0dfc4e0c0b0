package kernels

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// MoEDispatch is the mixture-of-experts token-dispatch operator: the
// router has assigned each token of the batch to an expert, so the
// kernel gathers every expert's tokens from their scattered positions
// in GM, scales them by the routing weights on the Vector unit, runs
// the expert's grouped matmul on the Cube with the expert weights
// stationary in L0A, and scatters the results back to the tokens'
// original slots. The shipped implementation gathers and scatters one
// token at a time — hundreds of tiny transfers whose setup cost
// dominates (inefficient MTE) — and single-buffers its staging, so
// ITG (merge the per-token copies into per-batch ones), PP, RSD and
// AIS all apply. The staging batch size is the tunable tile.
type MoEDispatch struct {
	// OpName identifies the operator.
	OpName string

	// Tokens is the routed batch size; ElemsPerToken its FP16 element
	// count per token (2 bytes each).
	Tokens        int
	ElemsPerToken int64

	// Experts is the number of experts; tokens distribute evenly
	// across them (the router's load-balancing loss makes that the
	// steady state).
	Experts int

	// TileElems is the staging batch size in elements — the Tunable
	// axis. Tokens are gathered, scaled, multiplied and scattered in
	// batches of TileElems/ElemsPerToken tokens.
	TileElems int64

	// WeightBytes is one expert's weight slab, staged GM->L1->L0A once
	// per expert.
	WeightBytes int64

	// CubeOpsPerToken is the grouped-matmul work per token;
	// GateOpsPerToken the routing-weight scale work per token.
	CubeOpsPerToken int64
	GateOpsPerToken int64

	// ScalarPerToken is the per-token gather/scatter address
	// bookkeeping; Adjusting Instruction Sequence elides most of it.
	ScalarPerToken int

	// SupportedStrategies lists the applicable optimizations.
	SupportedStrategies []Strategy

	// BaselineOpts is the shipped implementation's option set.
	BaselineOpts Options
}

// NewMoEDispatch returns the decode-shaped dispatch: a 256-token batch
// routed across 8 experts, 2 KiB per token, gathered token by token in
// the shipped implementation.
func NewMoEDispatch() *MoEDispatch {
	return &MoEDispatch{
		OpName:          "moe_dispatch",
		Tokens:          256,
		ElemsPerToken:   1 << 10,
		Experts:         8,
		TileElems:       8 << 10,
		WeightBytes:     48 << 10,
		CubeOpsPerToken: 1 << 20,
		GateOpsPerToken: 512,
		ScalarPerToken:  4,
		SupportedStrategies: []Strategy{
			RSD, AIS, PP, ITG,
		},
		BaselineOpts: Options{},
	}
}

// Name implements Kernel.
func (m *MoEDispatch) Name() string { return m.OpName }

// Baseline implements Kernel.
func (m *MoEDispatch) Baseline() Options { return m.BaselineOpts }

// Supported implements Kernel.
func (m *MoEDispatch) Supported() []Strategy {
	out := make([]Strategy, len(m.SupportedStrategies))
	copy(out, m.SupportedStrategies)
	return out
}

// TileSize implements Tunable: the staging batch size in elements.
func (m *MoEDispatch) TileSize() int64 { return m.TileElems }

// WithTileSize implements Tunable: a copy retiled to n elements.
func (m *MoEDispatch) WithTileSize(n int64) Kernel {
	c := *m
	c.TileElems = n
	return &c
}

// Build implements Kernel.
func (m *MoEDispatch) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return m.emit(chip, opts, nil)
}

// emit builds the program; with a non-nil want it only checks the
// build against want (emitter).
func (m *MoEDispatch) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	const elemBytes = 2
	if m.Tokens <= 0 || m.Experts <= 0 || m.ElemsPerToken <= 0 || m.TileElems <= 0 {
		return nil, fmt.Errorf("kernels: %s: invalid specification", m.OpName)
	}
	tokenBytes := m.ElemsPerToken * elemBytes
	perExpert := (m.Tokens + m.Experts - 1) / m.Experts

	// The staging batch: how many tokens move through UB per round.
	tileTokens := m.TileElems / m.ElemsPerToken
	if tileTokens < 1 {
		return nil, fmt.Errorf("kernels: %s: tile below one token", m.OpName)
	}
	if tileTokens > int64(perExpert) {
		tileTokens = int64(perExpert)
	}
	slots := 1
	if opts.PingPong {
		slots = 2
	}
	buffersPerTile := 1
	if opts.SeparateOutputBuffer {
		buffersPerTile = 2
	}
	if avail := chip.BufferSize[hw.UB]; avail > 0 {
		maxTileBytes := avail / int64(buffersPerTile*slots)
		if maxTokens := maxTileBytes / tokenBytes; tileTokens > maxTokens {
			tileTokens = maxTokens
		}
	}
	if tileTokens < 1 {
		return nil, fmt.Errorf("kernels: %s: tiles do not fit in UB", m.OpName)
	}
	tileBytes := tileTokens * tokenBytes

	variant := "baseline"
	if opts != m.BaselineOpts {
		variant = "optimized"
	}
	b := newBuilder(chip, m.OpName+"/"+variant, want)

	p := slots
	ubIn := make([]isa.Region, p)
	ubOut := make([]isa.Region, p)
	for s := 0; s < p; s++ {
		ubIn[s] = b.Alloc(hw.UB, tileBytes)
		if opts.SeparateOutputBuffer {
			ubOut[s] = b.Alloc(hw.UB, tileBytes)
		} else {
			ubOut[s] = ubIn[s]
		}
	}
	l1W := b.Alloc(hw.L1, m.WeightBytes)
	l1Tok := b.Alloc(hw.L1, tileBytes)
	l0aW := b.Alloc(hw.L0A, m.WeightBytes)
	l0bTok := b.Alloc(hw.L0B, tileBytes)
	l0cOut := b.Alloc(hw.L0C, tileBytes)

	evW := b.NewEvent(hw.CompMTEGM, hw.CompMTEL1)
	evWStaged := b.NewEvent(hw.CompMTEL1, hw.CompCube)
	evGather := make([]int, p)
	evScaled := make([]int, p)
	evL1 := make([]int, p)
	evStaged := make([]int, p)
	evDrained := make([]int, p)
	for s := 0; s < p; s++ {
		evGather[s] = b.NewEvent(hw.CompMTEGM, hw.CompVector)
		evScaled[s] = b.NewEvent(hw.CompVector, hw.CompMTEUB)
		evL1[s] = b.NewEvent(hw.CompMTEUB, hw.CompMTEL1)
		evStaged[s] = b.NewEvent(hw.CompMTEL1, hw.CompCube)
		evDrained[s] = b.NewEvent(hw.CompVector, hw.CompMTEUB)
	}

	// GM layout: the token block, then the expert weight slabs, then
	// the dispatched outputs. The router's permutation scatters each
	// expert's tokens through the block at an Experts-token stride.
	gmTokens := int64(0)
	gmWeights := int64(m.Tokens) * tokenBytes
	gmOut := int64(1 << 33)

	scalar := m.ScalarPerToken
	if opts.EarlyIssue {
		scalar = 1
	}
	merged := opts.MergeFactor >= 2

	slot := 0
	for e := 0; e < m.Experts; e++ {
		// The expert's weights are loop-invariant for all its batches:
		// staged GM -> L1 -> L0A once.
		b.Copy(hw.PathGMToL1,
			isa.Region{Level: hw.GM, Off: gmWeights + int64(e)*m.WeightBytes, Size: m.WeightBytes},
			l1W, "load-weights")
		b.Set(hw.CompMTEGM, hw.CompMTEL1, evW)
		b.Wait(hw.CompMTEGM, hw.CompMTEL1, evW)
		b.Copy(hw.PathL1ToL0A, l1W, l0aW, "stage-weights")
		b.Set(hw.CompMTEL1, hw.CompCube, evWStaged)
		b.Wait(hw.CompMTEL1, hw.CompCube, evWStaged)

		for t := 0; t < perExpert; t += int(tileTokens) {
			group := int(tileTokens)
			if t+group > perExpert {
				group = perExpert - t
			}
			size := tokenBytes * int64(group)
			in := isa.Region{Level: hw.UB, Off: ubIn[slot].Off, Size: size}
			out := isa.Region{Level: hw.UB, Off: ubOut[slot].Off, Size: size}
			s := slot
			slot = (slot + 1) % p

			b.ScalarWork(scalar*group, 4)
			// Gather: the expert's tokens sit strided through the batch
			// block. Merging models the dispatch table's segment copy —
			// one setup for the whole batch instead of one per token.
			if merged {
				b.Copy(hw.PathGMToUB,
					isa.Region{Level: hw.GM, Off: gmTokens + int64(e*perExpert+t)*tokenBytes, Size: size},
					in, "gather-tokens")
			} else {
				for i := 0; i < group; i++ {
					tok := e*perExpert + t + i
					b.Copy(hw.PathGMToUB,
						isa.Region{Level: hw.GM, Off: gmTokens + int64(tok)*tokenBytes, Size: tokenBytes},
						isa.Region{Level: hw.UB, Off: in.Off + int64(i)*tokenBytes, Size: tokenBytes},
						"gather-token")
				}
			}
			b.Set(hw.CompMTEGM, hw.CompVector, evGather[s])
			b.Wait(hw.CompMTEGM, hw.CompVector, evGather[s])
			// Scale by the routing weights on the way in.
			b.Compute(hw.Vector, hw.FP16, m.GateOpsPerToken*int64(group), 1,
				[]isa.Region{in}, []isa.Region{in}, "route-scale")
			b.Set(hw.CompVector, hw.CompMTEUB, evScaled[s])
			b.Wait(hw.CompVector, hw.CompMTEUB, evScaled[s])
			// Stage the batch to the Cube: UB -> L1 -> L0B.
			b.Copy(hw.PathUBToL1, in,
				isa.Region{Level: hw.L1, Off: l1Tok.Off, Size: size}, "stage-tokens-l1")
			b.Set(hw.CompMTEUB, hw.CompMTEL1, evL1[s])
			b.Wait(hw.CompMTEUB, hw.CompMTEL1, evL1[s])
			b.Copy(hw.PathL1ToL0B,
				isa.Region{Level: hw.L1, Off: l1Tok.Off, Size: size},
				isa.Region{Level: hw.L0B, Off: l0bTok.Off, Size: size}, "stage-tokens")
			b.Set(hw.CompMTEL1, hw.CompCube, evStaged[s])
			b.Wait(hw.CompMTEL1, hw.CompCube, evStaged[s])

			// The expert's grouped matmul over the batch.
			b.Compute(hw.Cube, hw.FP16, m.CubeOpsPerToken*int64(group), 1,
				[]isa.Region{l0aW, isa.Region{Level: hw.L0B, Off: l0bTok.Off, Size: size}},
				[]isa.Region{isa.Region{Level: hw.L0C, Off: l0cOut.Off, Size: size}}, "expert-matmul")
			b.StageSync(hw.CompCube, hw.CompVector, opts.MinimalSync)
			// Drain L0C to the output staging buffer.
			b.Compute(hw.Vector, hw.FP16, m.ElemsPerToken*int64(group), 1,
				[]isa.Region{isa.Region{Level: hw.L0C, Off: l0cOut.Off, Size: size}},
				[]isa.Region{out}, "drain-out")
			b.Set(hw.CompVector, hw.CompMTEUB, evDrained[s])
			b.Wait(hw.CompVector, hw.CompMTEUB, evDrained[s])
			// Scatter the results back to the tokens' original slots.
			if merged {
				b.Copy(hw.PathUBToGM, out,
					isa.Region{Level: hw.GM, Off: gmOut + int64(e*perExpert+t)*tokenBytes, Size: size},
					"scatter-tokens")
			} else {
				for i := 0; i < group; i++ {
					tok := e*perExpert + t + i
					b.Copy(hw.PathUBToGM,
						isa.Region{Level: hw.UB, Off: out.Off + int64(i)*tokenBytes, Size: tokenBytes},
						isa.Region{Level: hw.GM, Off: gmOut + int64(tok)*tokenBytes, Size: tokenBytes},
						"scatter-token")
				}
			}
			// Single-buffered staging must not be re-gathered into
			// while the scatter still reads it.
			if !opts.PingPong && (t+group < perExpert || e < m.Experts-1) {
				b.StageSync(hw.CompMTEUB, hw.CompMTEGM, opts.MinimalSync)
			}
		}
	}
	return b.Program()
}
