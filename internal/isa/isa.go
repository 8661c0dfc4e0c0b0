// Package isa defines the instruction set of the simulated AICore and the
// Program container that kernels emit and the simulator executes.
//
// Instructions come in four kinds:
//
//   - Compute: an arithmetic instruction on Cube, Vector or Scalar at one
//     precision, performing a given number of scalar operations. The
//     hardware repeat parameter lets one instruction cover several
//     repetitions of its base block, amortizing the fixed issue cost.
//   - Transfer: an MTE data movement over one path, moving a byte count
//     between two buffer regions.
//   - SetFlag / WaitFlag: fine-grained cross-queue synchronization. A
//     WaitFlag blocks its queue until the matching SetFlag (same producer,
//     consumer and event id, matched in order of occurrence) completes.
//   - Barrier: pipe_barrier. A PIPE_ALL barrier prevents any instruction
//     that appears after it in program order, on any queue, from starting
//     before all instructions preceding it have completed.
//
// Instructions carry the memory regions they read and write so the
// simulator can model spatial dependencies: two instructions on different
// components that touch an overlapping region (with at least one writer)
// contend for the memory port and serialize.
package isa

import (
	"fmt"
	"slices"
	"strings"
	"sync/atomic"

	"ascendperf/internal/hw"
)

// Kind discriminates instruction variants.
type Kind int

const (
	KindCompute Kind = iota
	KindTransfer
	KindSetFlag
	KindWaitFlag
	KindBarrier
)

// String names the instruction kind.
func (k Kind) String() string {
	switch k {
	case KindCompute:
		return "compute"
	case KindTransfer:
		return "transfer"
	case KindSetFlag:
		return "set_flag"
	case KindWaitFlag:
		return "wait_flag"
	case KindBarrier:
		return "pipe_barrier"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Region identifies a byte range within one memory level.
type Region struct {
	Level hw.Level
	Off   int64
	Size  int64
}

// Overlaps reports whether two regions intersect. Regions in different
// levels never overlap; zero-size regions overlap nothing.
func (r Region) Overlaps(o Region) bool {
	if r.Level != o.Level || r.Size <= 0 || o.Size <= 0 {
		return false
	}
	return r.Off < o.Off+o.Size && o.Off < r.Off+r.Size
}

// End returns the first byte past the region.
func (r Region) End() int64 { return r.Off + r.Size }

// String formats the region as "Level[off:end)".
func (r Region) String() string {
	return fmt.Sprintf("%s[%d:%d)", r.Level, r.Off, r.End())
}

// BarrierScope selects which queues a barrier synchronizes.
type BarrierScope int

const (
	// BarrierAll is pipe_barrier(PIPE_ALL): a full cross-component fence.
	BarrierAll BarrierScope = iota
	// BarrierPipe orders instructions within a single component only.
	// Within our in-order queues it costs time but adds no ordering
	// constraint beyond FIFO.
	BarrierPipe
)

// Instr is one AICore instruction. The zero value is not valid; construct
// instructions with the helper constructors.
type Instr struct {
	Kind Kind

	// Label optionally names the instruction for traces and diagnostics.
	Label string

	// Compute fields.
	Unit   hw.Unit
	Prec   hw.Precision
	Ops    int64 // scalar operations performed in total (across repeats)
	Repeat int   // hardware repeat count; 0 is treated as 1

	// Transfer fields.
	Path  hw.Path
	Bytes int64

	// Memory effects, used for hazard detection. Transfers read Src-level
	// regions and write Dst-level regions; computes read inputs and write
	// outputs.
	Reads  []Region
	Writes []Region

	// Flag fields. From is the producing component, To the consuming one,
	// EventID distinguishes independent flag streams between the same pair.
	From, To hw.Component
	EventID  int

	// Barrier fields.
	Scope BarrierScope
	Pipe  hw.Component // for BarrierPipe
}

// EffRepeat returns the effective repeat count (at least 1).
func (in *Instr) EffRepeat() int {
	if in.Repeat < 1 {
		return 1
	}
	return in.Repeat
}

// Component returns the instruction queue the instruction executes on,
// given the chip that defines path-to-engine assignment. The second result
// is false if the instruction is not routable (e.g. an illegal path).
func (in *Instr) Component(chip *hw.Chip) (hw.Component, bool) {
	switch in.Kind {
	case KindCompute:
		return hw.ComponentOf(in.Unit), true
	case KindTransfer:
		return chip.EngineOf(in.Path)
	case KindSetFlag:
		return in.From, true
	case KindWaitFlag:
		return in.To, true
	case KindBarrier:
		if in.Scope == BarrierPipe {
			return in.Pipe, true
		}
		// PIPE_ALL barriers are issued from the Scalar queue, matching
		// how kernels emit pipe_barrier from control code.
		return hw.CompScalar, true
	default:
		return 0, false
	}
}

// String disassembles the instruction. The format is parseable by Parse:
// memory regions are rendered as Level[off:end) lists so the round trip
// is lossless.
func (in *Instr) String() string {
	var b strings.Builder
	switch in.Kind {
	case KindCompute:
		fmt.Fprintf(&b, "%s.%s ops=%d repeat=%d", in.Unit, in.Prec, in.Ops, in.EffRepeat())
		// The parser accepts every numeric field on both kinds; write
		// back any that changes the instruction, so a disassembly
		// re-parses to the same program.
		if in.Bytes != 0 {
			fmt.Fprintf(&b, " bytes=%d", in.Bytes)
		}
	case KindTransfer:
		fmt.Fprintf(&b, "copy %s bytes=%d", in.Path, in.Bytes)
		if in.Ops != 0 {
			fmt.Fprintf(&b, " ops=%d", in.Ops)
		}
		if in.Repeat > 1 {
			fmt.Fprintf(&b, " repeat=%d", in.Repeat)
		}
	case KindSetFlag:
		fmt.Fprintf(&b, "set_flag %s->%s ev=%d", in.From, in.To, in.EventID)
	case KindWaitFlag:
		fmt.Fprintf(&b, "wait_flag %s->%s ev=%d", in.From, in.To, in.EventID)
	case KindBarrier:
		if in.Scope == BarrierAll {
			b.WriteString("pipe_barrier(PIPE_ALL)")
		} else {
			fmt.Fprintf(&b, "pipe_barrier(%s)", in.Pipe)
		}
	}
	if len(in.Reads) > 0 {
		b.WriteString(" reads=")
		writeRegions(&b, in.Reads)
	}
	if len(in.Writes) > 0 {
		b.WriteString(" writes=")
		writeRegions(&b, in.Writes)
	}
	if in.Label != "" {
		fmt.Fprintf(&b, " ; %s", in.Label)
	}
	return b.String()
}

// writeRegions renders a comma-separated region list.
func writeRegions(b *strings.Builder, rs []Region) {
	for i, r := range rs {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(r.String())
	}
}

// Compute constructs a compute instruction. ops is the total number of
// scalar operations the instruction performs.
func Compute(u hw.Unit, p hw.Precision, ops int64) Instr {
	return Instr{Kind: KindCompute, Unit: u, Prec: p, Ops: ops, Repeat: 1}
}

// ComputeRepeat constructs a compute instruction with an explicit hardware
// repeat count. ops remains the total operation count across all repeats.
func ComputeRepeat(u hw.Unit, p hw.Precision, ops int64, repeat int) Instr {
	return Instr{Kind: KindCompute, Unit: u, Prec: p, Ops: ops, Repeat: repeat}
}

// Transfer constructs a data-movement instruction over path p, copying
// size bytes from the src offset to the dst offset.
func Transfer(p hw.Path, srcOff, dstOff, size int64) Instr {
	return Instr{
		Kind:  KindTransfer,
		Path:  p,
		Bytes: size,
		Reads: []Region{{Level: p.Src, Off: srcOff, Size: size}},
		Writes: []Region{
			{Level: p.Dst, Off: dstOff, Size: size},
		},
	}
}

// SetFlag constructs a set-flag executed on the from component, signalling
// the to component on the given event id.
func SetFlag(from, to hw.Component, event int) Instr {
	return Instr{Kind: KindSetFlag, From: from, To: to, EventID: event}
}

// WaitFlag constructs a wait-flag executed on the to component, blocking
// it until the matching SetFlag from the from component completes.
func WaitFlag(from, to hw.Component, event int) Instr {
	return Instr{Kind: KindWaitFlag, From: from, To: to, EventID: event}
}

// BarrierAllInstr constructs a pipe_barrier(PIPE_ALL).
func BarrierAllInstr() Instr {
	return Instr{Kind: KindBarrier, Scope: BarrierAll}
}

// BarrierPipeInstr constructs a single-pipe barrier on component c.
func BarrierPipeInstr(c hw.Component) Instr {
	return Instr{Kind: KindBarrier, Scope: BarrierPipe, Pipe: c}
}

// Program is an ordered instruction stream as emitted by a kernel. Order
// is program (dispatch) order; the simulator routes each instruction to
// its component queue preserving this order per queue.
type Program struct {
	// Name identifies the kernel and variant, e.g. "add_relu/baseline".
	Name   string
	Instrs []Instr

	// fp memoizes Fingerprint. Programs are append-only after
	// construction (Append is the only mutation path; transformation
	// passes build fresh programs), so a memo taken at one instruction
	// count stays valid until the count changes.
	fp atomic.Pointer[fpMemo]
}

// fpMemo pairs a computed fingerprint with the instruction count it was
// computed at.
type fpMemo struct {
	n  int
	fp string
}

// Append adds instructions to the program. Capacity doubles when it
// runs out: plain append grows large slices by ~1.25x per step, and
// kernel builds append their whole stream one instruction at a time.
func (p *Program) Append(ins ...Instr) {
	if need := len(p.Instrs) + len(ins); need > cap(p.Instrs) {
		p.Instrs = slices.Grow(p.Instrs, max(need, 2*len(p.Instrs), 64)-len(p.Instrs))
	}
	p.Instrs = append(p.Instrs, ins...)
}

// Len returns the instruction count.
func (p *Program) Len() int { return len(p.Instrs) }

// Disassemble renders the program as text, one instruction per line.
func (p *Program) Disassemble() string {
	var b strings.Builder
	fmt.Fprintf(&b, "; program %s (%d instructions)\n", p.Name, len(p.Instrs))
	for i := range p.Instrs {
		fmt.Fprintf(&b, "%5d  %s\n", i, p.Instrs[i].String())
	}
	return b.String()
}

// Validate checks that every instruction is legal on the chip: transfer
// paths exist, compute precisions are supported, regions fit within their
// buffers, and flag endpoints are distinct components.
func (p *Program) Validate(chip *hw.Chip) error {
	// Dense images of the chip's small lookup maps: validation asks two
	// or three chip questions per instruction, and on large programs
	// the per-instruction map hashing dominates the pass. Indices
	// outside the dense bounds (a future unit/precision/level) fall
	// back to the maps.
	const nu, np = 3, 5
	var peakOK [nu][np]bool
	for up := range chip.Compute {
		if up.Unit >= 0 && int(up.Unit) < nu && up.Prec >= 0 && int(up.Prec) < np {
			peakOK[up.Unit][up.Prec] = true
		}
	}
	// 0 = illegal, 1 = MTE-scheduled, 2 = present but not MTE-scheduled.
	var pathKind [hw.NumLevels][hw.NumLevels]int8
	for pth, spec := range chip.Paths {
		if pth.Src >= 0 && int(pth.Src) < hw.NumLevels && pth.Dst >= 0 && int(pth.Dst) < hw.NumLevels {
			if spec.Engine.IsMTE() {
				pathKind[pth.Src][pth.Dst] = 1
			} else {
				pathKind[pth.Src][pth.Dst] = 2
			}
		}
	}
	var bufCap [hw.NumLevels]int64
	var bufOK [hw.NumLevels]bool
	for l, c := range chip.BufferSize {
		if l >= 0 && int(l) < hw.NumLevels {
			bufCap[l], bufOK[l] = c, true
		}
	}

	flagSets := map[flagKey]int{}
	flagWaits := map[flagKey]int{}
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Kind {
		case KindCompute:
			ok := in.Unit >= 0 && int(in.Unit) < nu && in.Prec >= 0 && int(in.Prec) < np && peakOK[in.Unit][in.Prec]
			if !ok {
				if _, mapOK := chip.PeakOf(in.Unit, in.Prec); !mapOK {
					return fmt.Errorf("isa: %s[%d]: precision %s unsupported on %s", p.Name, i, in.Prec, in.Unit)
				}
			}
			if in.Ops <= 0 {
				return fmt.Errorf("isa: %s[%d]: compute with non-positive ops", p.Name, i)
			}
		case KindTransfer:
			kind := int8(0)
			if in.Path.Src >= 0 && int(in.Path.Src) < hw.NumLevels && in.Path.Dst >= 0 && int(in.Path.Dst) < hw.NumLevels {
				kind = pathKind[in.Path.Src][in.Path.Dst]
			}
			if kind == 0 {
				return fmt.Errorf("isa: %s[%d]: illegal path %s", p.Name, i, in.Path)
			}
			if kind == 2 {
				return fmt.Errorf("isa: %s[%d]: path %s not MTE-scheduled", p.Name, i, in.Path)
			}
			if in.Bytes <= 0 {
				return fmt.Errorf("isa: %s[%d]: transfer with non-positive bytes", p.Name, i)
			}
		case KindSetFlag, KindWaitFlag:
			if in.From == in.To {
				return fmt.Errorf("isa: %s[%d]: flag with identical endpoints %s", p.Name, i, in.From)
			}
			k := flagKey{in.From, in.To, in.EventID}
			if in.Kind == KindSetFlag {
				flagSets[k]++
			} else {
				flagWaits[k]++
			}
		case KindBarrier:
			// always legal
		default:
			return fmt.Errorf("isa: %s[%d]: unknown kind %d", p.Name, i, int(in.Kind))
		}
		for _, rs := range [2][]Region{in.Reads, in.Writes} {
			for _, r := range rs {
				var cap int64
				ok := false
				if r.Level >= 0 && int(r.Level) < hw.NumLevels {
					cap, ok = bufCap[r.Level], bufOK[r.Level]
				} else {
					cap, ok = chip.BufferSize[r.Level]
				}
				if !ok {
					return fmt.Errorf("isa: %s[%d]: region in unknown level %s", p.Name, i, r.Level)
				}
				if r.Off < 0 || r.Size < 0 || r.End() > cap {
					return fmt.Errorf("isa: %s[%d]: region %s exceeds %s capacity %d", p.Name, i, r, r.Level, cap)
				}
			}
		}
	}
	for k, waits := range flagWaits {
		if sets := flagSets[k]; waits > sets {
			return fmt.Errorf("isa: %s: %d wait_flag but only %d set_flag for %s->%s ev=%d",
				p.Name, waits, sets, k.from, k.to, k.event)
		}
	}
	return nil
}

type flagKey struct {
	from, to hw.Component
	event    int
}

// Stats summarizes the static content of a program.
type Stats struct {
	Total     int
	Computes  int
	Transfers int
	Syncs     int
	Barriers  int
	Bytes     int64
	Ops       int64
}

// Intensity returns the program's arithmetic intensity: compute
// operations per byte moved over GM-attached paths (the classic roofline
// x-axis). It returns 0 when the program moves no GM bytes.
func (p *Program) Intensity() float64 {
	var ops, gmBytes int64
	for i := range p.Instrs {
		in := &p.Instrs[i]
		switch in.Kind {
		case KindCompute:
			ops += in.Ops
		case KindTransfer:
			if in.Path.Src == hw.GM || in.Path.Dst == hw.GM {
				gmBytes += in.Bytes
			}
		}
	}
	if gmBytes == 0 {
		return 0
	}
	return float64(ops) / float64(gmBytes)
}

// Stat computes static program statistics.
func (p *Program) Stat() Stats {
	var s Stats
	s.Total = len(p.Instrs)
	for i := range p.Instrs {
		switch p.Instrs[i].Kind {
		case KindCompute:
			s.Computes++
			s.Ops += p.Instrs[i].Ops
		case KindTransfer:
			s.Transfers++
			s.Bytes += p.Instrs[i].Bytes
		case KindSetFlag, KindWaitFlag:
			s.Syncs++
		case KindBarrier:
			s.Barriers++
		}
	}
	return s
}
