package critpath

import (
	"math"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// Proxy is the static companion of Compute: a one-pass earliest-start
// makespan estimate computed from the program text alone, without
// running the simulator. Where Compute reconstructs the exact critical
// path from a simulated span timeline, Proxy propagates per-component
// ready times through the program in dispatch order, honouring queue
// FIFO order, PIPE_ALL fences, in-order flag matching and the
// (i+1)·DispatchLatency front-end lower bound, while ignoring spatial
// hazards and finite queue depth. The result is a cheap
// critical-path-length proxy: internal/surrogate uses it as the
// strongest single feature of the learned predictor and as the
// reference scale of the prediction-residual confidence gate.
//
// Durations mirror the documented cost model (compute = issue +
// ops/peak, transfer = setup + bytes/bandwidth, sync = SyncCost),
// rounded to the simulator's 1/2^20 ns tick lattice. Instructions that
// are unroutable or use an unsupported precision/path contribute zero
// time instead of failing: Proxy is defined (finite, non-negative) for
// every program, including fuzz-generated ones.
func Proxy(chip *hw.Chip, prog *isa.Program) float64 {
	n := len(prog.Instrs)
	if n == 0 {
		return 0
	}
	dl := Quant(chip.DispatchLatency)
	var ready [hw.NumComponents]float64
	var fence, maxEnd float64
	var sets map[isa.FlagKey][]float64
	var waits map[isa.FlagKey]int
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		c, ok := in.Component(chip)
		if !ok {
			continue
		}
		start := float64(i+1) * dl
		if r := ready[c]; r > start {
			start = r
		}
		if fence > start {
			start = fence
		}
		switch in.Kind {
		case isa.KindWaitFlag:
			k := in.FlagKey()
			if waits == nil {
				waits = map[isa.FlagKey]int{}
			}
			seq := waits[k]
			waits[k]++
			// Program-order matching: the k-th wait pairs with the k-th
			// preceding set of its key. Sets that appear later in program
			// order are invisible here — an approximation the residual
			// gate absorbs.
			if lst := sets[k]; seq < len(lst) && lst[seq] > start {
				start = lst[seq]
			}
		case isa.KindBarrier:
			if in.Scope == isa.BarrierAll && maxEnd > start {
				start = maxEnd
			}
		}
		end := start + StaticDuration(chip, in)
		ready[c] = end
		switch in.Kind {
		case isa.KindSetFlag:
			if sets == nil {
				sets = map[isa.FlagKey][]float64{}
			}
			k := in.FlagKey()
			sets[k] = append(sets[k], end)
		case isa.KindBarrier:
			if in.Scope == isa.BarrierAll {
				fence = end
			}
		}
		if end > maxEnd {
			maxEnd = end
		}
	}
	if math.IsNaN(maxEnd) || math.IsInf(maxEnd, 0) || maxEnd < 0 {
		return 0
	}
	return maxEnd
}

// Quant rounds a time in nanoseconds to the simulator's documented
// 1/2^20 ns tick lattice (the same contract internal/check duplicates as
// refQuant: lattice values are dyadic, so float sums stay exact).
func Quant(ns float64) float64 {
	const scale = 1 << 20
	return math.Round(ns*scale) / scale
}

// StaticDuration is the static per-instruction execution time: the
// documented cost model, quantized, with zero for anything the chip
// cannot express (unsupported precision, illegal path, unknown kind) and
// for non-finite specs.
func StaticDuration(chip *hw.Chip, in *isa.Instr) float64 {
	var d float64
	switch in.Kind {
	case isa.KindCompute:
		peak, ok := chip.PeakOf(in.Unit, in.Prec)
		if !ok || peak <= 0 {
			return 0
		}
		issue := chip.ComputeIssue
		if in.Unit == hw.Scalar {
			issue = chip.ScalarIssue
		}
		d = issue + float64(in.Ops)/peak
	case isa.KindTransfer:
		spec, ok := chip.PathSpecOf(in.Path)
		if !ok || spec.Bandwidth <= 0 {
			return 0
		}
		d = chip.TransferSetup + float64(in.Bytes)/spec.Bandwidth
	case isa.KindSetFlag, isa.KindWaitFlag, isa.KindBarrier:
		d = chip.SyncCost
	default:
		return 0
	}
	if math.IsNaN(d) || math.IsInf(d, 0) || d < 0 {
		return 0
	}
	return Quant(d)
}
