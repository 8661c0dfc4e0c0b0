// Package passes implements program-level optimization passes over
// isa.Programs: the compiler-flavored form of the paper's synchronization
// and instruction-sequence strategies. Where internal/kernels applies RUS
// and AIS by re-generating a kernel from better options, these passes
// transform an existing instruction stream directly:
//
//   - MinimalSync strips every barrier and flag and re-derives the
//     necessary synchronization from the program's memory dependences
//     (Removing Unnecessary Synchronization as a dependence-analysis
//     pass);
//   - HoistLoads moves transfer instructions earlier in program order
//     when no dependence forbids it (Adjusting Instruction Sequence as a
//     scheduling pass).
//
// Both passes preserve program semantics: every read-after-write
// dependence between components is enforced by an explicit set/wait pair
// afterwards, which CheckOrdering verifies against a simulated schedule.
package passes

import (
	"fmt"
	"sort"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// dependence kinds between two instructions.
type depKind int

const (
	depNone depKind = iota
	depRAW          // j reads what i wrote
	depWAR          // j writes what i read
	depWAW          // j writes what i wrote
)

// dependsOn returns the strongest memory dependence of instruction j of
// prog on instruction i (i earlier in program order).
func dependsOn(prog *isa.Program, i, j int) depKind {
	switch {
	case overlapAny(prog.Writes(i), prog.Reads(j)):
		return depRAW
	case overlapAny(prog.Writes(i), prog.Writes(j)):
		return depWAW
	case overlapAny(prog.Reads(i), prog.Writes(j)):
		return depWAR
	default:
		return depNone
	}
}

// overlapAny reports whether a region of a overlaps a region of b.
func overlapAny(a, b []isa.Region) bool {
	for _, ra := range a {
		for _, rb := range b {
			if ra.Overlaps(rb) {
				return true
			}
		}
	}
	return false
}

// isWork reports whether the instruction does work (compute or transfer),
// as opposed to synchronization.
func isWork(in *isa.Instr) bool {
	return in.Kind == isa.KindCompute || in.Kind == isa.KindTransfer
}

// MinimalSync rebuilds the program's synchronization from scratch: all
// barriers and flags are dropped, and a set/wait pair is inserted for
// every cross-component true (read-after-write) dependence that program
// order alone no longer guarantees. Write-after-read and
// write-after-write conflicts need no flags — the hardware's
// spatial-dependency serialization already orders concurrent access to
// the same region, and within a component the FIFO queue orders
// everything.
//
// The result typically has far fewer synchronization points than a
// barrier-heavy input while enforcing the same data flow.
func MinimalSync(chip *hw.Chip, prog *isa.Program) (*isa.Program, error) {
	// Collect the indices of the work instructions in program order.
	var work []int
	for i := range prog.Instrs {
		if isWork(&prog.Instrs[i]) {
			work = append(work, i)
		}
	}
	out := &isa.Program{Name: prog.Name + "+minsync"}

	comps := make([]hw.Component, len(work))
	for i, w := range work {
		c, ok := prog.Instrs[w].Component(chip)
		if !ok {
			return nil, fmt.Errorf("passes: instruction not routable: %s", prog.InstrString(w))
		}
		comps[i] = c
	}

	// For each instruction, find its cross-component RAW producers. To
	// avoid redundant flags, only the LAST producer per producing
	// component needs a wait (FIFO makes earlier ones complete first).
	events := map[[2]hw.Component]int{}
	// doneUpTo[c][d] = index in `work` of the latest instruction on c
	// whose completion d already waits for (transitively through the
	// inserted flags within this pass).
	type pair struct{ from, to hw.Component }
	covered := map[pair]int{}

	for j := range work {
		// Producers per component.
		lastProducer := map[hw.Component]int{}
		for i := 0; i < j; i++ {
			if comps[i] == comps[j] {
				continue
			}
			if dependsOn(prog, work[i], work[j]) == depRAW {
				if prev, ok := lastProducer[comps[i]]; !ok || i > prev {
					lastProducer[comps[i]] = i
				}
			}
		}
		// Iterate producers in a fixed order: map range order varies
		// per process and would emit flag pairs nondeterministically,
		// making otherwise-identical programs diverge byte-for-byte.
		producers := make([]hw.Component, 0, len(lastProducer))
		for from := range lastProducer {
			producers = append(producers, from)
		}
		sort.Slice(producers, func(a, b int) bool { return producers[a] < producers[b] })
		for _, from := range producers {
			i := lastProducer[from]
			key := pair{from, comps[j]}
			if idx, ok := covered[key]; ok && idx >= i {
				// An earlier wait on this queue already covers the
				// producer (FIFO: covering a later producer covers all
				// earlier ones).
				continue
			}
			ev := events[[2]hw.Component{from, comps[j]}]
			events[[2]hw.Component{from, comps[j]}] = ev + 1
			// The set goes right after the producer, the wait right
			// before the consumer. We emit in consumer order, so append
			// set (queued on `from` after the producer because every
			// earlier `from`-instruction is already emitted) then wait.
			out.Append(isa.SetFlag(from, comps[j], ev))
			out.Append(isa.WaitFlag(from, comps[j], ev))
			covered[key] = i
		}
		out.AppendFrom(prog, work[j])
	}
	return out, fixSetPlacement(chip, prog, out)
}

// fixSetPlacement is a no-op placeholder kept for clarity: sets are
// emitted immediately before their waits, which is correct because the
// producing queue is FIFO — the set executes after every previously
// emitted instruction of that queue, in particular after the producer.
func fixSetPlacement(chip *hw.Chip, orig, out *isa.Program) error {
	return out.Validate(chip)
}

// HoistLoads moves transfer instructions as early in program order as
// their dependences allow, bounded by a window, so the front end
// dispatches them sooner (the AIS effect). Synchronization instructions
// act as full reorder fences for safety.
func HoistLoads(chip *hw.Chip, prog *isa.Program, window int) (*isa.Program, error) {
	if window <= 0 {
		window = 32
	}
	// order[k] is the index in prog of the instruction at position k.
	order := make([]int, len(prog.Instrs))
	for i := range order {
		order[i] = i
	}

	for j := 0; j < len(order); j++ {
		in := &prog.Instrs[order[j]]
		if in.Kind != isa.KindTransfer {
			continue
		}
		// Walk backwards over reorderable predecessors.
		target := j
		for k := j - 1; k >= 0 && j-k <= window; k-- {
			p := &prog.Instrs[order[k]]
			if !isWork(p) {
				break // sync fences the reorder
			}
			cj, _ := in.Component(chip)
			ck, _ := p.Component(chip)
			if ck == cj {
				break // same queue: order is semantic
			}
			if dependsOn(prog, order[k], order[j]) != depNone {
				break
			}
			target = k
		}
		if target < j {
			moved := order[j]
			copy(order[target+1:j+1], order[target:j])
			order[target] = moved
		}
	}
	out := &isa.Program{Name: prog.Name + "+hoist"}
	for _, i := range order {
		out.AppendFrom(prog, i)
	}
	if err := out.Validate(chip); err != nil {
		return nil, err
	}
	return out, nil
}

// CheckOrdering verifies that a simulated schedule of the (transformed)
// program respects every cross-component read-after-write dependence of
// the original work sequence: each consumer starts at or after its
// producers complete. It is the semantic-preservation check for the
// passes in this package. Each instruction's queue is resolved once,
// and a pair's regions are compared only when its times would violate
// the order.
func CheckOrdering(chip *hw.Chip, prog *isa.Program, p *profile.Profile) error {
	n := len(prog.Instrs)
	if p.NumSpans() != n {
		return fmt.Errorf("passes: need spans for all %d instructions", n)
	}
	starts := make([]float64, n)
	ends := make([]float64, n)
	for s := range p.Spans() {
		starts[s.Index] = s.Start
		ends[s.Index] = s.End
	}
	// The queue of every work instruction; -1 marks synchronization.
	comps := make([]int, n)
	for i := range prog.Instrs {
		comps[i] = -1
		if isWork(&prog.Instrs[i]) {
			c, _ := prog.Instrs[i].Component(chip)
			comps[i] = int(c)
		}
	}
	for j := 0; j < n; j++ {
		reads := prog.Reads(j)
		if comps[j] < 0 || len(reads) == 0 {
			continue
		}
		for i := 0; i < j; i++ {
			if comps[i] < 0 || comps[i] == comps[j] || starts[j]+1e-9 >= ends[i] {
				continue
			}
			if overlapAny(prog.Writes(i), reads) {
				return fmt.Errorf("passes: RAW violated: %d (%s) starts %.3f before %d (%s) ends %.3f",
					j, prog.InstrString(j), starts[j], i, prog.InstrString(i), ends[i])
			}
		}
	}
	return nil
}
