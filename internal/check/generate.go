package check

import (
	"fmt"
	"math/rand"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// Program generation for the metamorphic suite. GenProgram produces
// valid, deadlock-free programs that exercise every scheduler feature:
// all legal transfer paths, every supported precision-compute unit,
// hardware repeats, PIPE_ALL and single-pipe barriers, multi-key flag
// streams between many component pairs, and region annotations dense
// enough to trigger spatial dependencies and (when the chip enables
// banking) UB bank clashes.
//
// Deadlock freedom is by construction: every wait_flag is emitted after
// its matching set_flag in program order, so the program-order-earliest
// unfinished instruction can always run eventually.

// genRegionOffMax and genRegionSizeMax bound generated regions so they
// fit every preset's smallest buffer (L0A/L0B at 64 KiB).
const (
	genRegionOffMax  = 32 << 10
	genRegionSizeMax = 8 << 10
)

// flagPairs are the (producer, consumer) component pairs generated flag
// traffic uses.
var flagPairs = [][2]hw.Component{
	{hw.CompMTEGM, hw.CompVector},
	{hw.CompMTEGM, hw.CompCube},
	{hw.CompVector, hw.CompMTEUB},
	{hw.CompCube, hw.CompVector},
	{hw.CompMTEL1, hw.CompCube},
	{hw.CompScalar, hw.CompMTEGM},
}

// GenProgram generates a pseudo-random valid program of about n
// instructions for the chip. The same (chip, seed) pair always yields
// the same program.
func GenProgram(chip *hw.Chip, rng *rand.Rand, n int) *isa.Program {
	prog := &isa.Program{Name: fmt.Sprintf("gen/%d", n)}
	// Legal paths and precision-compute units of this chip.
	var paths []hw.Path
	for _, p := range hw.AllPaths() {
		if _, ok := chip.PathSpecOf(p); ok {
			paths = append(paths, p)
		}
	}
	var ups []hw.UnitPrec
	for _, u := range []hw.Unit{hw.Cube, hw.Vector, hw.Scalar} {
		ups = append(ups, chip.UnitPrecs(u)...)
	}
	// pending[k] counts set_flags emitted but not yet waited on for
	// flag-pair/event key k.
	type fkey struct {
		pair  int
		event int
	}
	pending := map[fkey]int{}
	var openKeys []fkey

	region := func(level hw.Level) isa.Region {
		return isa.Region{
			Level: level,
			Off:   int64(rng.Intn(genRegionOffMax)),
			Size:  int64(rng.Intn(genRegionSizeMax) + 1),
		}
	}
	for i := 0; i < n; i++ {
		switch rng.Intn(10) {
		case 0, 1, 2: // transfer
			p := paths[rng.Intn(len(paths))]
			size := int64(rng.Intn(genRegionSizeMax) + 1)
			srcOff := int64(rng.Intn(genRegionOffMax))
			dstOff := int64(rng.Intn(genRegionOffMax))
			prog.AppendTransfer(p, srcOff, dstOff, size)
		case 3, 4, 5: // compute, sometimes with regions and repeats
			up := ups[rng.Intn(len(ups))]
			in := isa.Compute(up.Unit, up.Prec, int64(rng.Intn(6000)+1))
			if rng.Intn(2) == 0 {
				in.Repeat = int32(rng.Intn(8) + 1)
			}
			var reads, writes []isa.Region
			if rng.Intn(2) == 0 {
				switch up.Unit {
				case hw.Vector, hw.Scalar:
					reads = []isa.Region{region(hw.UB)}
					if rng.Intn(2) == 0 {
						writes = []isa.Region{region(hw.UB)}
					}
				case hw.Cube:
					reads = []isa.Region{region(hw.L0A), region(hw.L0B)}
					writes = []isa.Region{region(hw.L0C)}
				}
			}
			prog.AppendWith(in, reads, writes)
		case 6: // set_flag on a random pair/event
			pi := rng.Intn(len(flagPairs))
			k := fkey{pair: pi, event: rng.Intn(3)}
			prog.Append(isa.SetFlag(flagPairs[pi][0], flagPairs[pi][1], k.event))
			if pending[k] == 0 {
				openKeys = append(openKeys, k)
			}
			pending[k]++
		case 7: // wait_flag for an open key (set precedes wait)
			if len(openKeys) == 0 {
				prog.Append(isa.Compute(hw.Scalar, hw.INT32, int64(rng.Intn(64)+1)))
				continue
			}
			oi := rng.Intn(len(openKeys))
			k := openKeys[oi]
			prog.Append(isa.WaitFlag(flagPairs[k.pair][0], flagPairs[k.pair][1], k.event))
			pending[k]--
			if pending[k] == 0 {
				openKeys = append(openKeys[:oi], openKeys[oi+1:]...)
			}
		case 8: // barrier
			if rng.Intn(2) == 0 {
				prog.Append(isa.BarrierAllInstr())
			} else {
				prog.Append(isa.BarrierPipeInstr(hw.Components()[rng.Intn(hw.NumComponents)]))
			}
		case 9: // labelled scalar bookkeeping
			in := isa.Compute(hw.Scalar, hw.INT32, int64(rng.Intn(128)+1))
			in.Label = fmt.Sprintf("bk%d", i)
			prog.Append(in)
		}
	}
	return prog
}

// InsertBarrier returns a copy of the program with a redundant
// pipe_barrier(PIPE_ALL) inserted before position pos.
func InsertBarrier(prog *isa.Program, pos int) *isa.Program {
	if pos < 0 {
		pos = 0
	}
	if pos > len(prog.Instrs) {
		pos = len(prog.Instrs)
	}
	out := &isa.Program{Name: prog.Name + "+barrier"}
	for i := range prog.Instrs {
		if i == pos {
			out.Append(isa.BarrierAllInstr())
		}
		out.AppendFrom(prog, i)
	}
	if pos == len(prog.Instrs) {
		out.Append(isa.BarrierAllInstr())
	}
	return out
}

// SplitTransfer returns a copy of the program with the transfer at
// index idx split into two back-to-back transfers covering the same
// bytes on the same path, or nil when the instruction is not a
// splittable transfer (needs Bytes >= 2).
func SplitTransfer(prog *isa.Program, idx int) *isa.Program {
	if idx < 0 || idx >= len(prog.Instrs) {
		return nil
	}
	in := prog.Instrs[idx]
	if in.Kind != isa.KindTransfer || in.Bytes < 2 {
		return nil
	}
	b1 := in.Bytes / 2
	b2 := in.Bytes - b1
	var srcOff, dstOff int64
	if rs := prog.Reads(idx); len(rs) > 0 {
		srcOff = rs[0].Off
	}
	if ws := prog.Writes(idx); len(ws) > 0 {
		dstOff = ws[0].Off
	}
	out := &isa.Program{Name: prog.Name + "+split"}
	for i := range prog.Instrs {
		if i != idx {
			out.AppendFrom(prog, i)
			continue
		}
		out.AppendTransfer(in.Path, srcOff, dstOff, b1)
		out.AppendTransfer(in.Path, srcOff+b1, dstOff+b1, b2)
	}
	return out
}

// SwapIndependent returns a copy of the program with instructions idx
// and idx+1 swapped, or nil when the swap is not guaranteed
// order-insensitive. The swap is safe when both instructions are plain
// compute/transfer work (no flags, no barriers) routed to different
// component queues: per-queue FIFO order is then unchanged and only the
// front-end dispatch order moves.
func SwapIndependent(chip *hw.Chip, prog *isa.Program, idx int) *isa.Program {
	if idx < 0 || idx+1 >= len(prog.Instrs) {
		return nil
	}
	a, b := &prog.Instrs[idx], &prog.Instrs[idx+1]
	plain := func(in *isa.Instr) bool {
		return in.Kind == isa.KindCompute || in.Kind == isa.KindTransfer
	}
	if !plain(a) || !plain(b) {
		return nil
	}
	ca, okA := a.Component(chip)
	cb, okB := b.Component(chip)
	if !okA || !okB || ca == cb {
		return nil
	}
	out := &isa.Program{Name: prog.Name + "+swap"}
	for i := range prog.Instrs {
		switch i {
		case idx:
			out.AppendFrom(prog, idx+1)
		case idx + 1:
			out.AppendFrom(prog, idx)
		default:
			out.AppendFrom(prog, i)
		}
	}
	return out
}
