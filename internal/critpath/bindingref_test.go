package critpath

import (
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// This file keeps the hazard scan that binding replaced, copied verbatim
// apart from its name: it tests regionsConflict against every
// instruction before the time test. It is the reference that Compute and
// Bindings are checked against (TestBindingMatchesReference).

// ReferenceBindings is Bindings computed with the reference scan.
func ReferenceBindings(chip *hw.Chip, prog *isa.Program, p *profile.Profile) ([]Binding, error) {
	v, err := newSchedView(chip, prog, p)
	if err != nil {
		return nil, err
	}
	out := make([]Binding, len(prog.Instrs))
	for i := range out {
		out[i] = v.refBinding(i)
	}
	return out, nil
}

// ReferenceSteps walks the critical path the way Compute does, through
// the reference bindings, and returns its steps in time order.
func ReferenceSteps(chip *hw.Chip, prog *isa.Program, p *profile.Profile) ([]Step, error) {
	v, err := newSchedView(chip, prog, p)
	if err != nil {
		return nil, err
	}
	last := 0
	for i := range v.ends {
		if v.ends[i] > v.ends[last] {
			last = i
		}
	}
	var steps []Step
	visited := map[int]bool{}
	for i := last; i >= 0 && !visited[i]; i = steps[len(steps)-1].Pred {
		visited[i] = true
		b := v.refBinding(i)
		steps = append(steps, Step{Index: i, Comp: v.comp[i], Start: v.starts[i], End: v.ends[i], Via: b.Via, Pred: b.Pred})
		if b.Via == EdgeStart || b.Pred < 0 {
			break
		}
	}
	for l, r := 0, len(steps)-1; l < r; l, r = l+1, r-1 {
		steps[l], steps[r] = steps[r], steps[l]
	}
	return steps, nil
}

// refBinding returns the constraint explaining instruction i's start: the
// predecessor whose completion time is the largest lower bound.
func (v *schedView) refBinding(i int) Binding {
	const eps = 1e-6
	n := len(v.prog.Instrs)
	in := &v.prog.Instrs[i]
	bestKind, bestPred, bestT := EdgeStart, -1, 0.0
	consider := func(kind EdgeKind, pred int, t float64) {
		if t > bestT+eps || (t > bestT-eps && pred > bestPred) {
			bestKind, bestPred, bestT = kind, pred, t
		}
	}
	if p := v.prev[i]; p >= 0 {
		consider(EdgeQueue, p, v.ends[p])
	}
	if b := v.barrierBefore[i]; b >= 0 {
		consider(EdgeBarrier, b, v.ends[b])
	}
	if in.Kind == isa.KindBarrier && in.Scope == isa.BarrierAll {
		for j := 0; j < i; j++ {
			consider(EdgeBarrier, j, v.ends[j])
		}
	}
	if in.Kind == isa.KindWaitFlag {
		k := in.FlagKey()
		if seq := v.waitSeq[i]; seq < len(v.sets[k]) {
			s := v.sets[k][seq]
			consider(EdgeFlag, s, v.ends[s])
		}
	}
	// Spatial dependencies and bank conflicts.
	for j := 0; j < n; j++ {
		if j == i || v.comp[j] == v.comp[i] {
			continue
		}
		if regionsConflict(v.chip, v.prog, i, j) && v.ends[j] <= v.starts[i]+eps {
			consider(EdgeHazard, j, v.ends[j])
		}
	}
	consider(EdgeDispatch, -1, float64(i+1)*v.chip.DispatchLatency)
	if bestT < v.starts[i]-eps {
		// The start is later than every known bound (should not
		// happen on verified schedules); attribute to dispatch.
		return Binding{EdgeDispatch, -1}
	}
	return Binding{bestKind, bestPred}
}
