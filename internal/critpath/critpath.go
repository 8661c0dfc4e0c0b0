// Package critpath computes the critical path of a simulated schedule:
// the chain of binding constraints that determines the operator's
// makespan. It mechanizes the paper's "inspect the pipeline status"
// diagnosis step (Section 5): where the component-based roofline says
// *which* component limits an operator, the critical path says *why* —
// how much of the makespan is raw execution on each component, and how
// much is spent blocked on dispatch, flags, barriers or spatial
// dependencies.
//
// The path is reconstructed post hoc from the instruction spans: the
// simulator's schedules are tight (VerifySchedule rule 7 — every start
// equals one of its lower bounds), so walking backwards from the
// last-finishing instruction through each instruction's binding
// constraint yields a connected chain back to time zero.
package critpath

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
	"strings"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// EdgeKind classifies why a critical-path instruction started when it
// did.
type EdgeKind int

const (
	// EdgeDispatch: the instruction waited for the in-order front end.
	EdgeDispatch EdgeKind = iota
	// EdgeQueue: it waited for its predecessor on the same component.
	EdgeQueue
	// EdgeFlag: it waited on a set_flag (an explicit data dependency).
	EdgeFlag
	// EdgeBarrier: it waited on a pipe_barrier (synchronization).
	EdgeBarrier
	// EdgeHazard: it waited out a spatial dependency (memory contention).
	EdgeHazard
	// EdgeStart: the chain origin at time zero.
	EdgeStart
)

// String names the edge kind.
func (e EdgeKind) String() string {
	switch e {
	case EdgeDispatch:
		return "dispatch"
	case EdgeQueue:
		return "queue"
	case EdgeFlag:
		return "flag"
	case EdgeBarrier:
		return "barrier"
	case EdgeHazard:
		return "hazard"
	case EdgeStart:
		return "start"
	default:
		return fmt.Sprintf("EdgeKind(%d)", int(e))
	}
}

// Step is one critical-path element: an instruction plus the constraint
// that bound its start.
type Step struct {
	// Index is the instruction's program index.
	Index int
	// Comp is the executing component.
	Comp hw.Component
	// Start and End bound the execution.
	Start, End float64
	// Via is the binding constraint kind; Pred is the instruction the
	// constraint points to (-1 for dispatch/start edges).
	Via  EdgeKind
	Pred int
}

// Analysis is a critical-path decomposition of a schedule.
type Analysis struct {
	// Makespan is the operator total time.
	Makespan float64
	// Steps is the path from the chain origin to the last-finishing
	// instruction, in time order.
	Steps []Step
	// ExecTime is the critical-path execution time per component.
	ExecTime map[hw.Component]float64
	// WaitTime is the critical-path blocked time per edge kind
	// (dispatch waits count the gap between the binding predecessor
	// edge and the start).
	WaitTime map[EdgeKind]float64
}

// Binding is the constraint that bound one instruction's start: the
// edge kind plus the predecessor instruction the edge points to (-1 for
// dispatch and chain-origin edges). It is the per-instruction answer to
// "why did this instruction start when it did, and not earlier?".
type Binding struct {
	Via  EdgeKind
	Pred int
}

// schedView is the precomputed dependency view of one schedule shared by
// Compute and Bindings: span times indexed by instruction, per-queue
// predecessors, flag set/wait pairing and governing barriers.
type schedView struct {
	chip *hw.Chip
	prog *isa.Program

	starts, ends  []float64
	comp          []hw.Component
	prev          []int // per-queue predecessor, -1 for queue heads
	barrierBefore []int // latest preceding PIPE_ALL barrier, -1 if none

	sets    map[isa.FlagKey][]int // set_flag indices per key, completion order
	waitSeq []int                 // ordinal of each wait_flag within its key

	byEnd  []int // instruction indices by end time, ties by index
	window []int // binding's scratch for hazard candidates
}

// newSchedView validates that the profile carries one span per
// instruction and assembles the dependency view.
func newSchedView(chip *hw.Chip, prog *isa.Program, p *profile.Profile) (*schedView, error) {
	n := len(prog.Instrs)
	if n == 0 || p == nil || p.NumSpans() != n {
		have := 0
		if p != nil {
			have = p.NumSpans()
		}
		return nil, fmt.Errorf("critpath: need one span per instruction (have %d of %d)", have, n)
	}
	v := &schedView{
		chip:    chip,
		prog:    prog,
		starts:  make([]float64, n),
		ends:    make([]float64, n),
		comp:    make([]hw.Component, n),
		prev:    make([]int, n),
		sets:    map[isa.FlagKey][]int{},
		waitSeq: make([]int, n),
	}
	for s := range p.Spans() {
		v.starts[s.Index] = s.Start
		v.ends[s.Index] = s.End
		v.comp[s.Index] = s.Comp
	}
	var lastInQueue [hw.NumComponents]int
	for c := range lastInQueue {
		lastInQueue[c] = -1
	}
	for i := 0; i < n; i++ {
		v.prev[i] = lastInQueue[v.comp[i]]
		lastInQueue[v.comp[i]] = i
	}
	waitCount := map[isa.FlagKey]int{}
	for i := 0; i < n; i++ {
		in := &prog.Instrs[i]
		k := in.FlagKey()
		switch in.Kind {
		case isa.KindSetFlag:
			v.sets[k] = append(v.sets[k], i)
		case isa.KindWaitFlag:
			v.waitSeq[i] = waitCount[k]
			waitCount[k]++
		}
	}
	for k := range v.sets {
		ss := v.sets[k]
		sort.SliceStable(ss, func(a, b int) bool { return v.ends[ss[a]] < v.ends[ss[b]] })
	}
	v.byEnd = make([]int, n)
	for i := range v.byEnd {
		v.byEnd[i] = i
	}
	slices.SortFunc(v.byEnd, func(a, b int) int {
		return cmp.Or(cmp.Compare(v.ends[a], v.ends[b]), a-b)
	})
	v.barrierBefore = make([]int, n)
	last := -1
	for i := 0; i < n; i++ {
		v.barrierBefore[i] = last
		in := &prog.Instrs[i]
		if in.Kind == isa.KindBarrier && in.Scope == isa.BarrierAll {
			last = i
		}
	}
	return v, nil
}

// binding returns the constraint explaining instruction i's start: the
// predecessor whose completion time is the largest lower bound.
func (v *schedView) binding(i int) Binding {
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
	// Spatial dependencies and bank conflicts. Only instructions that
	// finished by starts[i]+eps can bind, and consider accepts t only
	// above bestT-eps. Each acceptance lowers bestT by less than eps
	// (plus rounding, covered by the factor 2), so nothing ending at or
	// below bestT-(n+1)·eps can be accepted: binary-search that window
	// in end-time order, then visit it in program order so that eps-ties
	// resolve as a scan over every j would. The region test is the
	// expensive one, so it runs only on candidates consider would accept;
	// consider changes nothing when it rejects.
	floor := bestT - 2*float64(n+1)*eps
	lo := sort.Search(n, func(k int) bool { return v.ends[v.byEnd[k]] >= floor })
	hi := lo + sort.Search(n-lo, func(k int) bool { return v.ends[v.byEnd[lo+k]] > v.starts[i]+eps })
	v.window = append(v.window[:0], v.byEnd[lo:hi]...)
	slices.Sort(v.window)
	for _, j := range v.window {
		if j == i || v.comp[j] == v.comp[i] {
			continue
		}
		t := v.ends[j]
		if !(t > bestT+eps || (t > bestT-eps && j > bestPred)) {
			continue
		}
		if regionsConflict(v.chip, v.prog, i, j) {
			consider(EdgeHazard, j, t)
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

// Bindings computes the binding constraint of every instruction in the
// schedule, indexed by program order. The trace metrics layer uses it to
// attribute each queue's waiting time to dispatch, flag, barrier or
// hazard causes; Compute uses the same relation to walk the critical
// chain. The profile must carry one span per instruction.
func Bindings(chip *hw.Chip, prog *isa.Program, p *profile.Profile) ([]Binding, error) {
	v, err := newSchedView(chip, prog, p)
	if err != nil {
		return nil, err
	}
	out := make([]Binding, len(prog.Instrs))
	for i := range out {
		out[i] = v.binding(i)
	}
	return out, nil
}

// Compute reconstructs the critical path of a schedule. The profile must
// carry spans (sim.Run keeps them by default).
func Compute(chip *hw.Chip, prog *isa.Program, p *profile.Profile) (*Analysis, error) {
	v, err := newSchedView(chip, prog, p)
	if err != nil {
		return nil, err
	}
	n := len(prog.Instrs)
	starts, ends, comp := v.starts, v.ends, v.comp

	// Walk back from the last-finishing instruction.
	lastIdx := 0
	for i := 1; i < n; i++ {
		if ends[i] > ends[lastIdx] {
			lastIdx = i
		}
	}
	a := &Analysis{
		Makespan: p.TotalTime,
		ExecTime: map[hw.Component]float64{},
		WaitTime: map[EdgeKind]float64{},
	}
	visited := map[int]bool{}
	for i := lastIdx; i >= 0 && !visited[i]; {
		visited[i] = true
		b := v.binding(i)
		kind, pred := b.Via, b.Pred
		a.Steps = append(a.Steps, Step{
			Index: i, Comp: comp[i], Start: starts[i], End: ends[i],
			Via: kind, Pred: pred,
		})
		a.ExecTime[comp[i]] += ends[i] - starts[i]
		predEnd := 0.0
		if pred >= 0 {
			predEnd = ends[pred]
		}
		if gap := starts[i] - predEnd; gap > 0 {
			// Slack between the binding predecessor and the start is
			// front-end (dispatch) time by construction.
			a.WaitTime[EdgeDispatch] += gap
		}
		if kind == EdgeStart || pred < 0 {
			break
		}
		// Follow the edge. It takes no time (the start coincides with
		// the predecessor's end); its kind is the diagnosis, and
		// EdgeCount tallies the kinds along the path.
		i = pred
	}
	// Reverse into time order.
	for l, r := 0, len(a.Steps)-1; l < r; l, r = l+1, r-1 {
		a.Steps[l], a.Steps[r] = a.Steps[r], a.Steps[l]
	}
	return a, nil
}

// regionsConflict mirrors the simulator's conflict rule for
// instructions a and b of prog, including bank clashes when the chip
// models banking.
func regionsConflict(chip *hw.Chip, prog *isa.Program, a, b int) bool {
	for _, wa := range prog.Writes(a) {
		for _, wb := range prog.Writes(b) {
			if wa.Overlaps(wb) {
				return true
			}
		}
		for _, rb := range prog.Reads(b) {
			if wa.Overlaps(rb) {
				return true
			}
		}
	}
	for _, ra := range prog.Reads(a) {
		for _, wb := range prog.Writes(b) {
			if ra.Overlaps(wb) {
				return true
			}
		}
	}
	if chip.UBBanks > 0 {
		var ma, mb uint64
		for _, r := range prog.Reads(a) {
			ma |= chip.BankRange(r.Level, r.Off, r.Size)
		}
		for _, r := range prog.Writes(a) {
			ma |= chip.BankRange(r.Level, r.Off, r.Size)
		}
		for _, r := range prog.Reads(b) {
			mb |= chip.BankRange(r.Level, r.Off, r.Size)
		}
		for _, r := range prog.Writes(b) {
			mb |= chip.BankRange(r.Level, r.Off, r.Size)
		}
		if ma&mb != 0 {
			return true
		}
	}
	return false
}

// EdgeCount tallies the binding-edge kinds along the path.
func (a *Analysis) EdgeCount() map[EdgeKind]int {
	out := map[EdgeKind]int{}
	for _, s := range a.Steps {
		out[s.Via]++
	}
	return out
}

// Report renders the decomposition.
func (a *Analysis) Report() string {
	var b strings.Builder
	fmt.Fprintf(&b, "critical path: %d steps over %.3f us\n", len(a.Steps), a.Makespan/1000)
	var exec float64
	comps := make([]hw.Component, 0, len(a.ExecTime))
	for c := range a.ExecTime {
		comps = append(comps, c)
	}
	sort.Slice(comps, func(i, j int) bool { return comps[i] < comps[j] })
	for _, c := range comps {
		t := a.ExecTime[c]
		exec += t
		fmt.Fprintf(&b, "  exec %-7s %10.3f us (%5.1f%%)\n", c, t/1000, 100*t/a.Makespan)
	}
	if d := a.WaitTime[EdgeDispatch]; d > 0 {
		fmt.Fprintf(&b, "  wait dispatch %9.3f us (%5.1f%%)\n", d/1000, 100*d/a.Makespan)
	}
	counts := a.EdgeCount()
	kinds := []EdgeKind{EdgeQueue, EdgeFlag, EdgeBarrier, EdgeHazard}
	var parts []string
	for _, k := range kinds {
		if counts[k] > 0 {
			parts = append(parts, fmt.Sprintf("%s x%d", k, counts[k]))
		}
	}
	if len(parts) > 0 {
		fmt.Fprintf(&b, "  binding edges: %s\n", strings.Join(parts, ", "))
	}
	return b.String()
}
