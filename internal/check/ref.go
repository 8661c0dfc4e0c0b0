// Package check is the correctness harness of the simulator: an
// independent oracle plus metamorphic laws that together guard the
// aggregates every downstream analysis trusts (roofline verdicts,
// sweeps, tuning, ERT fits all consume profile aggregates).
//
// The package provides three layers:
//
//   - Reference, a deliberately naive second implementation of the
//     AICore execution model documented in internal/sim: a plain
//     priority-queue event-list simulator with no pooling, no span
//     reuse, no Fenwick trees and no incremental clocks. Every
//     eligibility question is answered by rescanning the program.
//     It shares no scheduling code with internal/sim — only the
//     hardware specification (hw.Chip) and the instruction definitions
//     (isa) — so agreement between the two is evidence that both
//     implement the documented semantics rather than each other.
//   - Diff, which compares a simulator profile against the reference
//     result and pinpoints the first diverging instruction.
//   - Metamorphic properties (metamorphic.go) over generated programs
//     (generate.go) asserting scheduler laws that need no oracle at
//     all: barrier monotonicity, transfer-split byte conservation,
//     permutation invariance of aggregates, option/cache/worker
//     determinism and span well-formedness.
//
// cmd/ascendcheck drives all three over the kernel library, every
// optimization variant and the Table 2 workload inventories.
package check

import (
	"container/heap"
	"fmt"
	"math"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// Result is the reference scheduler's independently recomputed view of
// one program execution: the same aggregates a profile.Profile carries,
// plus the raw per-instruction interval times for span-level diffing.
type Result struct {
	// Name is the program name.
	Name string
	// TotalTime is the makespan in nanoseconds.
	TotalTime float64
	// Busy is per-component execution time; InstrCount the instruction
	// count per component.
	Busy       [hw.NumComponents]float64
	InstrCount [hw.NumComponents]int
	// PathBytes / PathBusy aggregate transfers per path; PrecOps /
	// PrecBusy aggregate computes per precision-compute unit.
	PathBytes map[hw.Path]int64
	PathBusy  map[hw.Path]float64
	PrecOps   map[hw.UnitPrec]int64
	PrecBusy  map[hw.UnitPrec]float64
	// Starts / Ends / Comp are indexed by program order.
	Starts, Ends []float64
	Comp         []hw.Component
}

// timeHeap is a plain min-heap of event times — the naive event list.
type timeHeap []float64

func (h timeHeap) Len() int            { return len(h) }
func (h timeHeap) Less(i, j int) bool  { return h[i] < h[j] }
func (h timeHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *timeHeap) Push(x interface{}) { *h = append(*h, x.(float64)) }
func (h *timeHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}

// refTickScale mirrors the simulator's documented time quantization
// (internal/sim/ticks.go): durations and the dispatch latency are
// rounded once to the nearest 1/2^20 ns before any scheduling
// arithmetic. Lattice values are dyadic rationals, so the float64
// additions and comparisons below are exact on them — the reference
// stays a naive float scheduler, yet agrees with the integer-tick core
// bit for bit. The constant is duplicated on purpose: it is part of the
// documented execution-model contract, not shared scheduling code.
const refTickScale = 1 << 20

// refQuant rounds a time in nanoseconds to the simulator's tick lattice.
func refQuant(ns float64) float64 {
	return math.Round(ns*refTickScale) / refTickScale
}

// refDuration recomputes an instruction's execution time from the chip
// specification. It mirrors the cost model documented in internal/sim
// (transfer = setup + bytes/bandwidth, compute = issue + ops/peak,
// sync = SyncCost) without importing it.
func refDuration(chip *hw.Chip, in *isa.Instr) (float64, error) {
	switch in.Kind {
	case isa.KindCompute:
		peak, ok := chip.PeakOf(in.Unit, in.Prec)
		if !ok {
			return 0, fmt.Errorf("check: precision %s unsupported on %s", in.Prec, in.Unit)
		}
		issue := chip.ComputeIssue
		if in.Unit == hw.Scalar {
			issue = chip.ScalarIssue
		}
		return issue + float64(in.Ops)/peak, nil
	case isa.KindTransfer:
		spec, ok := chip.PathSpecOf(in.Path)
		if !ok {
			return 0, fmt.Errorf("check: illegal path %s", in.Path)
		}
		return chip.TransferSetup + float64(in.Bytes)/spec.Bandwidth, nil
	case isa.KindSetFlag, isa.KindWaitFlag, isa.KindBarrier:
		return chip.SyncCost, nil
	default:
		return 0, fmt.Errorf("check: unknown instruction kind %d", int(in.Kind))
	}
}

// refConflict re-derives the spatial-dependency rule: instructions a and
// b of prog conflict when their declared memory regions overlap with at
// least one writer, or (with UB banking enabled) when they touch a common
// bank.
func refConflict(chip *hw.Chip, prog *isa.Program, a, b int) bool {
	over := func(x, y isa.Region) bool {
		return x.Level == y.Level && x.Size > 0 && y.Size > 0 &&
			x.Off < y.Off+y.Size && y.Off < x.Off+x.Size
	}
	for _, wa := range prog.Writes(a) {
		for _, wb := range prog.Writes(b) {
			if over(wa, wb) {
				return true
			}
		}
		for _, rb := range prog.Reads(b) {
			if over(wa, rb) {
				return true
			}
		}
	}
	for _, ra := range prog.Reads(a) {
		for _, wb := range prog.Writes(b) {
			if over(ra, wb) {
				return true
			}
		}
	}
	if chip.UBBanks > 0 {
		mask := func(i int) uint64 {
			var m uint64
			for _, r := range prog.Reads(i) {
				m |= chip.BankRange(r.Level, r.Off, r.Size)
			}
			for _, r := range prog.Writes(i) {
				m |= chip.BankRange(r.Level, r.Off, r.Size)
			}
			return m
		}
		if mask(a)&mask(b) != 0 {
			return true
		}
	}
	return false
}

// Reference executes the program on the chip with the naive event-list
// scheduler and returns the recomputed aggregates and interval times.
// Spatial-dependency modelling is always on (the real machine has no
// switch), matching sim.Run's defaults.
func Reference(chip *hw.Chip, prog *isa.Program) (*Result, error) {
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(chip); err != nil {
		return nil, err
	}
	n := len(prog.Instrs)
	r := &Result{
		Name:      prog.Name,
		PathBytes: map[hw.Path]int64{},
		PathBusy:  map[hw.Path]float64{},
		PrecOps:   map[hw.UnitPrec]int64{},
		PrecBusy:  map[hw.UnitPrec]float64{},
		Starts:    make([]float64, n),
		Ends:      make([]float64, n),
		Comp:      make([]hw.Component, n),
	}
	dur := make([]float64, n)
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		c, ok := in.Component(chip)
		if !ok {
			return nil, fmt.Errorf("check: instruction %d (%s) is not routable", i, prog.InstrString(i))
		}
		r.Comp[i] = c
		d, err := refDuration(chip, in)
		if err != nil {
			return nil, fmt.Errorf("check: instruction %d: %w", i, err)
		}
		dur[i] = refQuant(d)
	}

	const eps = 1e-12
	depth := chip.QueueDepth
	latticeDL := refQuant(chip.DispatchLatency)
	dispatch := make([]float64, n)
	started := make([]bool, n)
	running := make([]bool, n)
	done := make([]bool, n)
	events := &timeHeap{}
	if depth > 0 {
		for i := range dispatch {
			dispatch[i] = math.Inf(1)
		}
		heap.Push(events, 0.0)
	} else {
		for i := range dispatch {
			dispatch[i] = float64(i+1) * latticeDL
			heap.Push(events, dispatch[i])
		}
		if n == 0 {
			heap.Push(events, 0.0)
		}
	}
	dispIdx := 0
	dispFree := 0.0

	// outstanding counts dispatched-but-incomplete instructions on a
	// component, recomputed by scanning (no incremental counters).
	outstanding := func(c hw.Component) int {
		count := 0
		for j := 0; j < n; j++ {
			if r.Comp[j] == c && !math.IsInf(dispatch[j], 1) && !done[j] {
				count++
			}
		}
		return count
	}
	// head returns the first unstarted instruction of a component's FIFO
	// queue, found by scanning the whole program, or -1.
	head := func(c hw.Component) int {
		for j := 0; j < n; j++ {
			if r.Comp[j] == c && !started[j] {
				return j
			}
		}
		return -1
	}
	compBusy := func(c hw.Component) bool {
		for j := 0; j < n; j++ {
			if running[j] && r.Comp[j] == c {
				return true
			}
		}
		return false
	}
	eligible := func(i int, now float64) bool {
		if dispatch[i] > now+eps {
			return false
		}
		in := &prog.Instrs[i]
		// The governing PIPE_ALL barrier (the latest one preceding i in
		// program order) must have completed.
		for j := i - 1; j >= 0; j-- {
			bj := &prog.Instrs[j]
			if bj.Kind == isa.KindBarrier && bj.Scope == isa.BarrierAll {
				if !done[j] {
					return false
				}
				break
			}
		}
		// A PIPE_ALL barrier needs every earlier instruction complete.
		if in.Kind == isa.KindBarrier && in.Scope == isa.BarrierAll {
			for j := 0; j < i; j++ {
				if !done[j] {
					return false
				}
			}
		}
		// The k-th wait_flag of a key needs k+1 completed set_flags.
		if in.Kind == isa.KindWaitFlag {
			seq := 0
			for j := 0; j < i; j++ {
				w := &prog.Instrs[j]
				if w.Kind == isa.KindWaitFlag && w.From == in.From && w.To == in.To && w.EventID == in.EventID {
					seq++
				}
			}
			setsDone := 0
			for j := 0; j < n; j++ {
				s := &prog.Instrs[j]
				if s.Kind == isa.KindSetFlag && done[j] && s.From == in.From && s.To == in.To && s.EventID == in.EventID {
					setsDone++
				}
			}
			if setsDone <= seq {
				return false
			}
		}
		// No conflicting instruction executing on another component.
		for j := 0; j < n; j++ {
			if running[j] && r.Comp[j] != r.Comp[i] && refConflict(chip, prog, i, j) {
				return false
			}
		}
		return true
	}

	nDone := 0
	for nDone < n {
		if events.Len() == 0 {
			return nil, refDeadlock(chip, prog, r.Comp, started)
		}
		now := heap.Pop(events).(float64)
		// Coalesce events at (numerically) the same time.
		for events.Len() > 0 && (*events)[0] <= now+eps {
			heap.Pop(events)
		}
		// Retire everything completing now.
		for j := 0; j < n; j++ {
			if running[j] && r.Ends[j] <= now+eps {
				running[j] = false
				done[j] = true
				nDone++
			}
		}
		// Progress the finite-depth in-order dispatcher.
		if depth > 0 {
			for dispIdx < n {
				c := r.Comp[dispIdx]
				if outstanding(c) >= depth {
					break // head-of-line blocked until a completion
				}
				if dispFree > now+eps {
					break // front end busy; its free time is an event
				}
				t := dispFree
				if t < now {
					t = now
				}
				dispatch[dispIdx] = t + latticeDL
				dispFree = t + latticeDL
				heap.Push(events, dispatch[dispIdx])
				dispIdx++
			}
		}
		// Start every eligible queue head, iterating to a fixed point in
		// canonical component order (the documented deterministic
		// tie-break for simultaneous starts).
		for changed := true; changed; {
			changed = false
			for _, c := range hw.Components() {
				if compBusy(c) {
					continue
				}
				i := head(c)
				if i < 0 {
					continue
				}
				if eligible(i, now) {
					started[i] = true
					running[i] = true
					r.Starts[i] = now
					r.Ends[i] = now + dur[i]
					heap.Push(events, r.Ends[i])
					changed = true
				}
			}
		}
	}

	// Aggregate in program order (matching the simulator's accumulation
	// order, so float sums are bit-comparable).
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		c := r.Comp[i]
		r.Busy[c] += dur[i]
		r.InstrCount[c]++
		if r.Ends[i] > r.TotalTime {
			r.TotalTime = r.Ends[i]
		}
		switch in.Kind {
		case isa.KindTransfer:
			r.PathBytes[in.Path] += in.Bytes
			r.PathBusy[in.Path] += dur[i]
		case isa.KindCompute:
			up := hw.UnitPrec{Unit: in.Unit, Prec: in.Prec}
			r.PrecOps[up] += in.Ops
			r.PrecBusy[up] += dur[i]
		}
	}
	return r, nil
}

// refDeadlock reports the blocked queue heads when the event list runs
// dry with unfinished instructions.
func refDeadlock(chip *hw.Chip, prog *isa.Program, comp []hw.Component, started []bool) error {
	msg := "check: reference deadlock, blocked queue heads:"
	for _, c := range hw.Components() {
		for j := range prog.Instrs {
			if comp[j] == c && !started[j] {
				msg += fmt.Sprintf(" [%s: #%d %s]", c, j, prog.InstrString(j))
				break
			}
		}
	}
	return fmt.Errorf("%s", msg)
}
