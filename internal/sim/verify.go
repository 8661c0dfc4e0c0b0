package sim

import (
	"fmt"
	"sort"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// VerifySchedule independently checks that a simulated schedule (the
// spans of a profile produced with KeepSpans) satisfies every rule of
// the AICore execution model. It re-derives the constraints from the
// program without sharing code with the scheduler, so it serves as a
// differential test of the simulator:
//
//  1. every instruction executes exactly once, on its component, for
//     exactly its modelled duration;
//  2. no start precedes the instruction's dispatch time;
//  3. execution within a component is FIFO in program order and never
//     overlaps;
//  4. a PIPE_ALL barrier starts only after every earlier instruction has
//     completed, and no later instruction starts before the barrier ends;
//  5. a wait_flag starts no earlier than the completion of its matching
//     set_flag (k-th wait matches k-th set per (from,to,event) key);
//  6. no instruction starts while a conflicting instruction (overlapping
//     memory regions, at least one writer) executes on another component;
//  7. tightness: every start equals one of its binding lower bounds — the
//     machine never inserts unexplained idle time.
func VerifySchedule(chip *hw.Chip, prog *isa.Program, p *profile.Profile) error {
	// Finite queue depths make dispatch times schedule-dependent, so the
	// static dispatch and tightness rules (2 and 7) do not apply there.
	finiteQueues := chip.QueueDepth > 0
	n := len(prog.Instrs)
	starts := make([]float64, n)
	ends := make([]float64, n)
	seen := make([]bool, n)

	// Rule 1: coverage, component and duration.
	for s := range p.Spans() {
		if s.Index < 0 || s.Index >= n {
			return fmt.Errorf("verify: span index %d out of range", s.Index)
		}
		if seen[s.Index] {
			return fmt.Errorf("verify: instruction %d executed twice", s.Index)
		}
		seen[s.Index] = true
		in := &prog.Instrs[s.Index]
		comp, ok := in.Component(chip)
		if !ok || comp != s.Comp {
			return fmt.Errorf("verify: instruction %d on %s, want %s", s.Index, s.Comp, comp)
		}
		d, err := duration(chip, in)
		if err != nil {
			return err
		}
		if diff := s.End - s.Start - d; diff > 1e-6 || diff < -1e-6 {
			return fmt.Errorf("verify: instruction %d duration %.3f, want %.3f", s.Index, s.End-s.Start, d)
		}
		starts[s.Index] = s.Start
		ends[s.Index] = s.End
	}
	for i := 0; i < n; i++ {
		if !seen[i] {
			return fmt.Errorf("verify: instruction %d never executed", i)
		}
	}

	// Rule 2: dispatch. (Lower bound only; exact times are dynamic with
	// finite queues, but never earlier than the unbounded-queue times.)
	// The scheduler accrues dispatch delay on the tick lattice, so the
	// bound uses the lattice image of DispatchLatency — otherwise the
	// sub-tick rounding would accumulate across i and exceed the epsilon.
	latticeDL := FromTicks(ToTicks(chip.DispatchLatency))
	for i := 0; i < n; i++ {
		if starts[i]+1e-9 < float64(i+1)*latticeDL {
			return fmt.Errorf("verify: instruction %d starts %.3f before dispatch %.3f",
				i, starts[i], float64(i+1)*latticeDL)
		}
	}

	// Rule 3: per-component FIFO without overlap.
	perComp := map[hw.Component][]int{}
	for i := 0; i < n; i++ {
		c, _ := prog.Instrs[i].Component(chip)
		perComp[c] = append(perComp[c], i)
	}
	for c, idxs := range perComp {
		// idxs is already in program order.
		for k := 1; k < len(idxs); k++ {
			prev, cur := idxs[k-1], idxs[k]
			if starts[cur]+1e-9 < ends[prev] {
				return fmt.Errorf("verify: %s executes %d (start %.3f) before %d completes (%.3f)",
					c, cur, starts[cur], prev, ends[prev])
			}
		}
	}

	// Rule 4: barriers.
	for i := 0; i < n; i++ {
		in := &prog.Instrs[i]
		if in.Kind != isa.KindBarrier || in.Scope != isa.BarrierAll {
			continue
		}
		for j := 0; j < i; j++ {
			if ends[j] > starts[i]+1e-9 {
				return fmt.Errorf("verify: barrier %d starts %.3f before instruction %d completes %.3f",
					i, starts[i], j, ends[j])
			}
		}
		for j := i + 1; j < n; j++ {
			if starts[j]+1e-9 < ends[i] {
				return fmt.Errorf("verify: instruction %d starts %.3f before barrier %d ends %.3f",
					j, starts[j], i, ends[i])
			}
		}
	}

	// Rule 5: flags. Match the k-th wait to the k-th set per key, both
	// in program order (each queue is FIFO and waits live on one queue).
	sets := map[isa.FlagKey][]int{}
	waits := map[isa.FlagKey][]int{}
	for i := 0; i < n; i++ {
		in := &prog.Instrs[i]
		k := in.FlagKey()
		switch in.Kind {
		case isa.KindSetFlag:
			sets[k] = append(sets[k], i)
		case isa.KindWaitFlag:
			waits[k] = append(waits[k], i)
		}
	}
	for k, ws := range waits {
		ss := sets[k]
		// Waits consume sets in completion order; with FIFO queues the
		// completion order of sets equals their program order within the
		// producing queue.
		sort.SliceStable(ss, func(a, b int) bool { return ends[ss[a]] < ends[ss[b]] })
		for idx, w := range ws {
			if idx >= len(ss) {
				return fmt.Errorf("verify: wait %d has no matching set", w)
			}
			if starts[w]+1e-9 < ends[ss[idx]] {
				return fmt.Errorf("verify: wait %d starts %.3f before set %d completes %.3f",
					w, starts[w], ss[idx], ends[ss[idx]])
			}
		}
	}

	// Rule 6: spatial dependencies. No instruction may start strictly
	// inside a conflicting instruction's execution on another component.
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			ci, _ := prog.Instrs[i].Component(chip)
			cj, _ := prog.Instrs[j].Component(chip)
			if ci == cj {
				continue
			}
			if !conflicts(prog, i, j) &&
				!(chip.UBBanks > 0 && bankClash(chip, prog, i, j)) {
				continue
			}
			if starts[i] > starts[j]+1e-9 && starts[i]+1e-9 < ends[j] {
				return fmt.Errorf("verify: instruction %d starts %.3f inside conflicting %d [%.3f, %.3f)",
					i, starts[i], j, starts[j], ends[j])
			}
		}
	}

	if finiteQueues {
		return nil // rule 7 needs static dispatch times
	}

	// Rule 7: tightness. Every start must equal one of its lower bounds:
	// its dispatch time, the completion of its queue predecessor, of the
	// governing barrier, of its matching set, of any earlier instruction
	// (for barriers), or of a conflicting instruction.
	prevInQueue := make([]int, n)
	for i := range prevInQueue {
		prevInQueue[i] = -1
	}
	for _, idxs := range perComp {
		for k := 1; k < len(idxs); k++ {
			prevInQueue[idxs[k]] = idxs[k-1]
		}
	}
	for i := 0; i < n; i++ {
		bounds := []float64{float64(i+1) * latticeDL}
		if p := prevInQueue[i]; p >= 0 {
			bounds = append(bounds, ends[p])
		}
		in := &prog.Instrs[i]
		if in.Kind == isa.KindBarrier && in.Scope == isa.BarrierAll {
			for j := 0; j < i; j++ {
				bounds = append(bounds, ends[j])
			}
		}
		for j := 0; j < i; j++ {
			bj := &prog.Instrs[j]
			if bj.Kind == isa.KindBarrier && bj.Scope == isa.BarrierAll {
				bounds = append(bounds, ends[j])
			}
		}
		if in.Kind == isa.KindWaitFlag {
			// Any set's end is an admissible explanation.
			k := in.FlagKey()
			for _, s := range sets[k] {
				bounds = append(bounds, ends[s])
			}
		}
		// Conflicting instructions' ends.
		for j := 0; j < n; j++ {
			if j == i {
				continue
			}
			ci, _ := prog.Instrs[i].Component(chip)
			cj, _ := prog.Instrs[j].Component(chip)
			if ci != cj && (conflicts(prog, i, j) ||
				(chip.UBBanks > 0 && bankClash(chip, prog, i, j))) {
				bounds = append(bounds, ends[j])
			}
		}
		tight := false
		for _, b := range bounds {
			if diff := starts[i] - b; diff < 1e-6 && diff > -1e-6 {
				tight = true
				break
			}
		}
		// Also allow starting exactly at a bound that is the max.
		if !tight {
			max := 0.0
			for _, b := range bounds {
				if b > max {
					max = b
				}
			}
			if starts[i]-max > 1e-6 {
				return fmt.Errorf("verify: instruction %d starts %.3f with unexplained idle (max bound %.3f)",
					i, starts[i], max)
			}
		}
	}
	return nil
}
