// Package sim is a discrete-event simulator of the Ascend AICore execution
// model. It executes an isa.Program against a hw.Chip and produces a
// profile.Profile with the same aggregate metrics the paper extracts from
// hardware profiling.
//
// Execution semantics (Section 2.1 of the paper):
//
//   - Every instruction is dispatched in program order by the front end,
//     paying Chip.DispatchLatency per instruction. Instructions late in
//     the stream therefore see the accumulated dispatch delay of
//     everything before them — the effect exploited by the "Adjusting
//     Instruction Sequence" optimization.
//   - Each component (Cube, Vector, Scalar, MTE-GM, MTE-L1, MTE-UB) owns a
//     FIFO instruction queue. Instructions within one queue execute
//     serially; queues run in parallel.
//   - wait_flag blocks a queue until the matching set_flag completes;
//     pipe_barrier(PIPE_ALL) prevents every later instruction from
//     starting until every earlier instruction has completed.
//   - Spatial dependencies: an instruction cannot start while another
//     component executes an instruction whose declared memory regions
//     conflict with its own (overlap with at least one writer). This
//     models memory-port contention — the effect removed by the
//     "Reducing Spatial Dependency" optimization.
//
// Costs: a transfer takes TransferSetup + bytes/bandwidth; a Cube/Vector
// compute takes ComputeIssue + ops/peak (so higher repeat parameters that
// pack more work per instruction amortize the issue cost); a scalar
// instruction takes ScalarIssue + ops/peak; synchronization instructions
// take SyncCost. Durations are quantized once to the integer tick
// lattice documented in ticks.go; all scheduling arithmetic is int64.
//
// The scheduler is an event-driven simulation of the machine: time
// advances through completion and dispatch ticks, and a blocked queue
// head is re-examined only when something it actually waits on happens —
// its dispatch tick arriving, the completion of a conflicting or
// governing instruction, a matching set_flag completing, or the last
// predecessor of a PIPE_ALL barrier retiring. Within one tick,
// simultaneous starts resolve in fixed component order, making
// simulation deterministic. Eligibility can only decrease as a tick's
// starts accumulate (every other precondition is a completion- or
// time-monotone event), so one ordered pass per tick reaches the same
// fixed point the documented rescan semantics defines. The schedule is
// independently checkable with VerifySchedule and is diffed against the
// naive reference scheduler of internal/check by cmd/ascendcheck.
package sim

import (
	"fmt"
	"math/bits"
	"sync"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// The simulator's tick lattice must be the profile timeline's lattice:
// buildProfile copies start/end ticks into profile.SpanSeq without
// conversion. Fails to compile if the two constants ever diverge.
const _ = uint((TickScale - profile.TickScale) * (profile.TickScale - TickScale))

// Options tunes a simulation run.
type Options struct {
	// DisableHazards turns off spatial-dependency modelling. Used by
	// tests to isolate effects; real runs keep it false.
	DisableHazards bool
	// KeepSpans retains the full per-instruction timeline in the profile.
	// Beware the zero-value pitfall: RunOpts(chip, prog, Options{})
	// silently drops spans (no per-instruction timeline is materialized
	// at all, which is what makes large batch runs cheap), while Run
	// keeps them. Pass Options{KeepSpans: true} explicitly when the
	// caller needs Profile.Gaps, trace export (internal/trace), the
	// critical path (internal/critpath) or schedule verification.
	// Options are part of the engine.Simulate cache key, so span-keeping
	// and span-less runs of the same program occupy separate cache
	// entries and never corrupt each other.
	KeepSpans bool
}

// Run simulates the program on the chip with default options (hazards on,
// spans kept).
func Run(chip *hw.Chip, prog *isa.Program) (*profile.Profile, error) {
	return RunOpts(chip, prog, Options{KeepSpans: true})
}

// RunOpts simulates the program on the chip with explicit options.
func RunOpts(chip *hw.Chip, prog *isa.Program, opts Options) (*profile.Profile, error) {
	if err := chip.Validate(); err != nil {
		return nil, err
	}
	if err := prog.Validate(chip); err != nil {
		return nil, err
	}
	s := acquireState()
	defer releaseState(s)
	if err := s.init(chip, prog, opts); err != nil {
		return nil, err
	}
	if err := s.schedule(); err != nil {
		return nil, err
	}
	p := s.buildProfile()
	s.flushCounters()
	return p, nil
}

// compMask is a bitmask over the six components; bit c is component c.
type compMask uint8

// schedState is the per-run scheduler state. Instances are pooled:
// every slice below is a reusable backing array sized to the largest
// program the pooled instance has seen, so steady-state Run calls on
// the sweep/tune/optimizer paths allocate (almost) nothing.
type schedState struct {
	chip *hw.Chip
	prog *isa.Program
	opts Options
	n    int

	comp     []hw.Component // per instruction
	dispatch []int64        // per instruction: earliest dispatch-complete tick
	dur      []int64        // per instruction: execution duration in ticks
	starts   []int64        // per instruction: start tick
	ends     []int64        // per instruction: end tick

	queues       [hw.NumComponents][]int32 // instruction indices per component
	qpos         [hw.NumComponents]int     // next unstarted position per queue
	queueBacking []int32

	completed []bool
	nDone     int

	// executing[c] is the instruction currently running on component c
	// (or -1); endOf[c] its completion tick.
	executing [hw.NumComponents]int32
	endOf     [hw.NumComponents]int64

	// barrierBefore[i] is the index of the latest PIPE_ALL barrier
	// preceding instruction i in program order, or -1.
	barrierBefore []int32

	// keyID maps each flag key to a compact id; setsDone[id] counts
	// completed set_flags; setKeyID[i]/waitKeyID[i] give instruction i's
	// key id (-1 for non-flag instructions); waitSeq[i] is the ordinal
	// of wait_flag i within its key (the k-th wait needs k+1 completed
	// sets).
	keyID     map[isa.FlagKey]int32
	setsDone  []int32
	setKeyID  []int32
	waitKeyID []int32
	waitSeq   []int32
	// denseKey interns the common flag keys (event < denseEvents)
	// without hashing: slot (from*NumComponents+to)*denseEvents+event
	// holds id+1. denseUsed lists occupied slots so reset cost is
	// O(keys), not O(table). Out-of-range events fall back to keyID.
	denseKey  []int32
	denseUsed []int32
	nKeys     int

	// Precomputed hazard summaries, the conflict-candidate filter: two
	// instructions can only conflict when their memory-level masks
	// intersect with a writer involved, or their UB bank masks overlap.
	// The exact region-overlap test runs only on instructions that pass
	// this integer prefilter.
	readMask  []uint8 // bit l = instruction reads memory level l
	writeMask []uint8 // bit l = instruction writes memory level l
	bankMask  []uint64
	// iflags caches the instruction properties the event loop tests, so
	// eligibility never touches the (cache-cold) instruction stream.
	iflags []uint8

	// Wake lists. instrWaiters[j] is the set of components whose queue
	// head is blocked on the completion of instruction j (a conflicting
	// execution or a governing barrier); flagWaiters[id] the components
	// blocked on the next set_flag completion of key id;
	// pendingBarrier the single PIPE_ALL barrier head waiting for its
	// predecessors (at most one can be in that state — any later
	// barrier is still blocked on its governing one); dispWake[c] the
	// tick at which component c's head becomes dispatched (0 = none).
	instrWaiters   []uint8
	flagWaiters    []uint8
	pendingBarrier int32
	dispWake       [hw.NumComponents]int64
	candidates     compMask

	// busyMask has bit c set while component c executes; timerMask while
	// dispWake[c] holds a pending dispatch-tick timer. The event loop
	// iterates set bits instead of all components.
	busyMask  compMask
	timerMask compMask

	// Finite-queue dispatch state (Chip.QueueDepth > 0): the front end
	// dispatches in order, one instruction per DispatchLatency, stalling
	// while the target queue holds QueueDepth incomplete instructions.
	dispIdx     int
	dispFree    int64
	dispTick    int64
	outstanding [hw.NumComponents]int32

	// startSeq records instruction indices in start order; starts are
	// non-decreasing along it, so span ordering needs only a per-tick
	// tie fix instead of a full sort. rank is its inverse (instruction
	// index -> timeline position), filled by buildProfile when spans
	// are kept.
	startSeq []int32
	rank     []int32

	// Per-run counter deltas, flushed to the package totals on success.
	cRounds, cEligChecks, cWakes uint64
	activeComps                  int
	// stripe is the state's counter stripe (see ticks.go), assigned
	// once at construction.
	stripe uint32
}

var statePool = sync.Pool{New: func() any {
	s := &schedState{keyID: make(map[isa.FlagKey]int32), stripe: nextStripe()}
	counterCells[s.stripe].poolMisses.Add(1)
	return s
}}

func acquireState() *schedState {
	s := statePool.Get().(*schedState)
	if s.n > 0 || len(s.startSeq) > 0 {
		counterCells[s.stripe].poolHits.Add(1)
	}
	return s
}

func releaseState(s *schedState) {
	s.chip, s.prog = nil, nil
	statePool.Put(s)
}

// grow ensures every per-instruction backing array holds n entries,
// reallocating geometrically so a pooled state converges to the largest
// program size it serves.
func (s *schedState) grow(n int) {
	if cap(s.dispatch) < n {
		c := 2 * cap(s.dispatch)
		if c < n {
			c = n
		}
		s.dispatch = make([]int64, c)
		s.dur = make([]int64, c)
		s.starts = make([]int64, c)
		s.ends = make([]int64, c)
		s.comp = make([]hw.Component, c)
		s.completed = make([]bool, c)
		s.barrierBefore = make([]int32, c)
		s.setKeyID = make([]int32, c)
		s.waitKeyID = make([]int32, c)
		s.waitSeq = make([]int32, c)
		s.readMask = make([]uint8, c)
		s.writeMask = make([]uint8, c)
		s.bankMask = make([]uint64, c)
		s.iflags = make([]uint8, c)
		s.instrWaiters = make([]uint8, c)
		s.queueBacking = make([]int32, c)
		s.startSeq = make([]int32, 0, c)
		s.rank = make([]int32, c)
	}
}

// init prepares the pooled state for one (chip, program, options) run.
func (s *schedState) init(chip *hw.Chip, prog *isa.Program, opts Options) error {
	n := len(prog.Instrs)
	s.chip, s.prog, s.opts, s.n = chip, prog, opts, n
	s.grow(n)
	s.nDone = 0
	s.dispIdx, s.dispFree = 0, 0
	s.dispTick = ToTicks(chip.DispatchLatency)
	s.pendingBarrier = -1
	s.candidates, s.busyMask, s.timerMask = 0, 0, 0
	s.startSeq = s.startSeq[:0]
	s.cRounds, s.cEligChecks, s.cWakes = 0, 0, 0
	for c := range s.executing {
		s.executing[c] = -1
		s.qpos[c] = 0
		s.outstanding[c] = 0
		s.dispWake[c] = 0
		s.queues[c] = nil
	}
	clear(s.keyID)
	for _, slot := range s.denseUsed {
		s.denseKey[slot] = 0
	}
	s.denseUsed = s.denseUsed[:0]
	s.nKeys = 0
	done := s.completed[:n]
	waiters := s.instrWaiters[:n]
	for i := range done {
		done[i] = false
		waiters[i] = 0
	}

	// One pass over the (cold, cache-hostile) instruction structs does
	// everything per-instruction: routing, durations, hazard masks, flag
	// interning. Queue membership needs the final per-component counts
	// before the pooled backing can be sliced, so the queues are filled
	// afterwards by a second loop that walks only the small comp array —
	// the instruction structs are touched exactly once. Routing mirrors
	// isa.Instr.Component but reads the compiled chip table instead of
	// the path map.
	tab := tableOf(chip)
	var queueLen [hw.NumComponents]int
	lastBarrier := int32(-1)
	banked := chip.UBBanks > 0
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		c := hw.Component(hw.NumComponents) // not routable
		switch in.Kind {
		case isa.KindCompute:
			c = hw.ComponentOf(in.Unit)
		case isa.KindTransfer:
			if in.Path.Src < hw.NumLevels && in.Path.Dst < hw.NumLevels {
				if e := tab.pathEng[in.Path.Src][in.Path.Dst]; e >= 0 {
					c = hw.Component(e)
				}
			}
		case isa.KindSetFlag:
			c = in.From
		case isa.KindWaitFlag:
			c = in.To
		case isa.KindBarrier:
			if in.Scope == isa.BarrierPipe {
				c = in.Pipe
			} else {
				c = hw.CompScalar
			}
		}
		if c >= hw.NumComponents {
			return fmt.Errorf("sim: instruction %d (%s) is not routable", i, prog.InstrString(i))
		}
		s.comp[i] = c
		queueLen[c]++
		s.dispatch[i] = int64(i+1) * s.dispTick
		// Duration in ticks, via the compiled table (same cost model as
		// duration(), which VerifySchedule re-derives independently).
		switch in.Kind {
		case isa.KindCompute:
			var peak float64
			if in.Unit < numUnits && in.Prec < numPrec {
				peak = tab.peak[in.Unit][in.Prec]
			} else {
				peak, _ = chip.PeakOf(in.Unit, in.Prec)
			}
			if peak <= 0 {
				return fmt.Errorf("sim: instruction %d: precision %s unsupported on %s", i, in.Prec, in.Unit)
			}
			issue := chip.ComputeIssue
			if in.Unit == hw.Scalar {
				issue = chip.ScalarIssue
			}
			s.dur[i] = ToTicks(issue + float64(in.Ops)/peak)
		case isa.KindTransfer:
			bw := tab.pathBW[in.Path.Src][in.Path.Dst] // routable, so legal
			s.dur[i] = ToTicks(chip.TransferSetup + float64(in.Bytes)/bw)
		default: // set_flag, wait_flag, barrier — validated kinds
			s.dur[i] = tab.syncTick
		}
		s.barrierBefore[i] = lastBarrier
		s.setKeyID[i], s.waitKeyID[i] = -1, -1
		s.iflags[i] = 0
		var rm, wm uint8
		var bm uint64
		for _, r := range prog.Reads(i) {
			rm |= 1 << uint(r.Level)
			if banked {
				bm |= chip.BankRange(r.Level, r.Off, r.Size)
			}
		}
		for _, r := range prog.Writes(i) {
			wm |= 1 << uint(r.Level)
			if banked {
				bm |= chip.BankRange(r.Level, r.Off, r.Size)
			}
		}
		s.readMask[i], s.writeMask[i], s.bankMask[i] = rm, wm, bm
		switch in.Kind {
		case isa.KindBarrier:
			if in.Scope == isa.BarrierAll {
				s.iflags[i] = iflagBarrierAll
				lastBarrier = int32(i)
			}
		case isa.KindSetFlag:
			s.setKeyID[i] = s.keyOf(in)
		case isa.KindWaitFlag:
			id := s.keyOf(in)
			s.waitKeyID[i] = id
			// waitSeq is the per-key wait ordinal; reuse setsDone as the
			// running counter during setup (re-zeroed below).
			s.waitSeq[i] = s.setsDone[id]
			s.setsDone[id]++
		}
	}
	used := 0
	s.activeComps = 0
	for c := 0; c < hw.NumComponents; c++ {
		if queueLen[c] == 0 {
			continue
		}
		s.activeComps++
		s.queues[c] = s.queueBacking[used : used : used+queueLen[c]]
		used += queueLen[c]
	}
	for i, c := range s.comp[:n] {
		s.queues[c] = append(s.queues[c], int32(i))
	}
	nk := s.nKeys
	if cap(s.setsDone) < nk {
		s.setsDone = make([]int32, nk)
		s.flagWaiters = make([]uint8, nk)
	}
	s.setsDone = s.setsDone[:nk]
	s.flagWaiters = s.flagWaiters[:nk]
	for i := range s.setsDone {
		s.setsDone[i] = 0
		s.flagWaiters[i] = 0
	}
	return nil
}

// iflagBarrierAll marks a PIPE_ALL barrier in iflags.
const iflagBarrierAll = 1

// denseEvents bounds the hash-free flag-key intern table; events at or
// above it (rare) fall back to the keyID map.
const denseEvents = 256

// keyOf interns the flag key of a set_flag or wait_flag, without hashing
// for the common small event ids. nKeys tracks the total interned count
// across both paths.
func (s *schedState) keyOf(in *isa.Instr) int32 {
	from, to, event := in.From, in.To, in.EventID
	if event >= 0 && event < denseEvents && from < hw.NumComponents && to < hw.NumComponents {
		slot := (int(from)*hw.NumComponents+int(to))*denseEvents + int(event)
		if s.denseKey == nil {
			s.denseKey = make([]int32, hw.NumComponents*hw.NumComponents*denseEvents)
		}
		if id := s.denseKey[slot]; id != 0 {
			return id - 1
		}
		id := s.newKeyID()
		s.denseKey[slot] = id + 1
		s.denseUsed = append(s.denseUsed, int32(slot))
		return id
	}
	k := in.FlagKey()
	id, ok := s.keyID[k]
	if !ok {
		id = s.newKeyID()
		s.keyID[k] = id
	}
	return id
}

// newKeyID allocates the next compact flag-key id. setsDone doubles as
// the per-key wait counter during init, so it grows with the key table.
func (s *schedState) newKeyID() int32 {
	id := int32(s.nKeys)
	s.nKeys++
	if int(id) >= cap(s.setsDone) {
		grown := make([]int32, int(id)+1, 2*(int(id)+1))
		copy(grown, s.setsDone)
		s.setsDone = grown
		s.flagWaiters = make([]uint8, cap(grown))[:len(grown)]
	} else {
		s.setsDone = s.setsDone[:id+1]
		s.setsDone[id] = 0
	}
	return id
}

// duration computes the execution time of one instruction on the chip,
// in nanoseconds (quantized to ticks by the caller).
func duration(chip *hw.Chip, in *isa.Instr) (float64, error) {
	switch in.Kind {
	case isa.KindCompute:
		peak, ok := chip.PeakOf(in.Unit, in.Prec)
		if !ok {
			return 0, fmt.Errorf("precision %s unsupported on %s", in.Prec, in.Unit)
		}
		issue := chip.ComputeIssue
		if in.Unit == hw.Scalar {
			issue = chip.ScalarIssue
		}
		return issue + float64(in.Ops)/peak, nil
	case isa.KindTransfer:
		spec, ok := chip.PathSpecOf(in.Path)
		if !ok {
			return 0, fmt.Errorf("illegal path %s", in.Path)
		}
		return chip.TransferSetup + float64(in.Bytes)/spec.Bandwidth, nil
	case isa.KindSetFlag, isa.KindWaitFlag, isa.KindBarrier:
		return chip.SyncCost, nil
	default:
		return 0, fmt.Errorf("unknown instruction kind %d", int(in.Kind))
	}
}

// schedule runs the event-driven simulation to completion.
func (s *schedState) schedule() error {
	n := s.n
	depth := s.chip.QueueDepth
	if depth > 0 {
		// Dynamic dispatch: clear the precomputed times; instructions
		// become startable only once dispatched.
		for i := 0; i < n; i++ {
			s.dispatch[i] = maxTick
		}
	}
	// Every non-empty component is a candidate for the first tick.
	for c := 0; c < hw.NumComponents; c++ {
		if len(s.queues[c]) > 0 {
			s.candidates |= 1 << uint(c)
		}
	}
	now := int64(0)
	for s.nDone < n {
		s.cRounds++
		// Dispatch-tick timers that fire now become candidates.
		for m := s.timerMask; m != 0; m &= m - 1 {
			c := bits.TrailingZeros8(uint8(m))
			if w := s.dispWake[c]; w <= now {
				s.dispWake[c] = 0
				s.timerMask &^= 1 << uint(c)
				s.candidates |= 1 << uint(c)
			}
		}
		// Retire everything completing at the current tick.
		for m := s.busyMask; m != 0; m &= m - 1 {
			c := bits.TrailingZeros8(uint8(m))
			if s.endOf[c] == now {
				s.complete(int(s.executing[c]), hw.Component(c))
			}
		}
		// Progress the finite-depth dispatcher up to the current tick.
		if depth > 0 {
			s.progressDispatcher(now, depth)
		}
		// Start every woken queue head that is eligible now, in
		// ascending (deterministic) component order. Starting an
		// instruction can only remove eligibility (all other
		// preconditions are completion- or time-monotone within a
		// tick), so a single ordered pass reaches the rescan semantics'
		// fixed point.
		if cand := s.candidates &^ s.busyMask; cand != 0 {
			s.candidates = 0
			for m := cand; m != 0; m &= m - 1 {
				c := bits.TrailingZeros8(uint8(m))
				if s.qpos[c] >= len(s.queues[c]) {
					continue
				}
				i := int(s.queues[c][s.qpos[c]])
				s.cEligChecks++
				if s.eligible(i, hw.Component(c), now) {
					s.start(i, hw.Component(c), now)
				}
			}
		} else {
			s.candidates = 0
		}
		// Advance to the next event tick: the earliest completion, the
		// earliest dispatch wake of an idle head, or (finite queues)
		// the dispatcher becoming free for a non-full queue. A
		// zero-duration start keeps next == now, so retirement and any
		// dependent starts still happen tick-exactly.
		next := int64(maxTick)
		for m := s.busyMask; m != 0; m &= m - 1 {
			if e := s.endOf[bits.TrailingZeros8(uint8(m))]; e < next {
				next = e
			}
		}
		for m := s.timerMask &^ s.busyMask; m != 0; m &= m - 1 {
			if w := s.dispWake[bits.TrailingZeros8(uint8(m))]; w > now && w < next {
				next = w
			}
		}
		if depth > 0 && s.dispIdx < n && int(s.outstanding[s.comp[s.dispIdx]]) < depth {
			if d := s.dispFree; d > now && d < next {
				next = d
			}
		}
		if next == maxTick {
			if s.nDone < n {
				return s.deadlockError()
			}
			break
		}
		now = next
	}
	return nil
}

// progressDispatcher advances the finite-depth in-order front end to
// the current tick, waking any queue head it dispatches.
func (s *schedState) progressDispatcher(now int64, depth int) {
	for s.dispIdx < s.n {
		c := s.comp[s.dispIdx]
		if int(s.outstanding[c]) >= depth {
			break // head-of-line blocked until a completion
		}
		if s.dispFree > now {
			break // front end not free yet; an event will fire
		}
		d := now + s.dispTick
		s.dispatch[s.dispIdx] = d
		s.dispFree = d
		s.outstanding[c]++
		// If this is the queue head of an idle component, arrange its
		// eligibility check at the dispatch tick.
		if s.executing[c] < 0 && s.qpos[c] < len(s.queues[c]) && int(s.queues[c][s.qpos[c]]) == s.dispIdx {
			if d <= now {
				s.candidates |= 1 << uint(c)
			} else {
				s.dispWake[c] = d
				s.timerMask |= 1 << uint(c)
			}
		}
		s.dispIdx++
	}
}

// eligible reports whether instruction i (component c's idle queue
// head) may start at tick t. When it may not, the head is registered on
// the wake list of its first blocking condition, so it is re-checked
// exactly when that condition can change. Conditions are ordered
// monotone-first: dispatch, barriers and flags can only become (and
// stay) satisfied, so a head woken from a conflict wait never needs
// them re-registered spuriously.
func (s *schedState) eligible(i int, c hw.Component, t int64) bool {
	if d := s.dispatch[i]; d > t {
		if d != maxTick {
			s.dispWake[c] = d
			s.timerMask |= 1 << uint(c)
		}
		// An undispatched head (finite queues) is woken by the
		// dispatcher when it assigns the dispatch tick.
		return false
	}

	// Governing PIPE_ALL barrier must have completed.
	if b := s.barrierBefore[i]; b >= 0 && !s.completed[b] {
		s.instrWaiters[b] |= 1 << uint(c)
		return false
	}

	// A PIPE_ALL barrier requires every earlier instruction complete.
	// While it waits, nothing at or after it can complete, so nDone
	// counts exactly its completed predecessors.
	if s.iflags[i]&iflagBarrierAll != 0 && s.nDone < i {
		s.pendingBarrier = int32(i)
		return false
	}

	// wait_flag requires enough completed set_flags.
	if id := s.waitKeyID[i]; id >= 0 && s.setsDone[id] <= s.waitSeq[i] {
		s.flagWaiters[id] |= 1 << uint(c)
		return false
	}

	// Spatial dependencies: no conflicting instruction executing on
	// another component. With UB banking enabled, touching the same UB
	// bank conflicts even when the byte ranges are disjoint. The head
	// registers on the first blocker found; when that retires it is
	// re-checked (and re-registered if another blocker remains).
	if !s.opts.DisableHazards && s.readMask[i]|s.writeMask[i] != 0 {
		for m := s.busyMask &^ (1 << uint(c)); m != 0; m &= m - 1 {
			j := s.executing[bits.TrailingZeros8(uint8(m))]
			if s.conflictsWith(i, int(j)) {
				s.instrWaiters[j] |= 1 << uint(c)
				return false
			}
		}
	}
	return true
}

// conflictsWith reports a spatial conflict between instructions i and j
// using the precomputed masks as a prefilter before the exact
// region-overlap test.
func (s *schedState) conflictsWith(i, j int) bool {
	if s.bankMask[i]&s.bankMask[j] != 0 {
		return true
	}
	if (s.writeMask[i]&(s.readMask[j]|s.writeMask[j]) | s.writeMask[j]&s.readMask[i]) == 0 {
		return false
	}
	return conflicts(s.prog, i, j)
}

// bankClash reports whether instructions i and j of prog touch a common
// UB bank. (Kept for VerifySchedule, which re-derives constraints from
// scratch.)
func bankClash(chip *hw.Chip, prog *isa.Program, i, j int) bool {
	banks := func(k int) uint64 {
		var m uint64
		for _, r := range prog.Reads(k) {
			m |= chip.BankRange(r.Level, r.Off, r.Size)
		}
		for _, r := range prog.Writes(k) {
			m |= chip.BankRange(r.Level, r.Off, r.Size)
		}
		return m
	}
	ma := banks(i)
	return ma != 0 && ma&banks(j) != 0
}

// start begins execution of instruction i on component c at tick t.
func (s *schedState) start(i int, c hw.Component, t int64) {
	s.starts[i] = t
	e := t + s.dur[i]
	s.ends[i] = e
	s.executing[c] = int32(i)
	s.endOf[c] = e
	s.busyMask |= 1 << uint(c)
	s.qpos[c]++
	s.startSeq = append(s.startSeq, int32(i))
}

// complete retires instruction i on component c, waking every queue
// head that was waiting on it.
func (s *schedState) complete(i int, c hw.Component) {
	s.completed[i] = true
	s.executing[c] = -1
	s.busyMask &^= 1 << uint(c)
	s.nDone++
	// The component's next head (or its still-blocked current head)
	// becomes a candidate.
	s.candidates |= 1 << uint(c)
	if s.chip.QueueDepth > 0 {
		s.outstanding[c]--
	}
	if w := s.instrWaiters[i]; w != 0 {
		s.instrWaiters[i] = 0
		s.candidates |= compMask(w)
		s.cWakes++
	}
	if id := s.setKeyID[i]; id >= 0 {
		s.setsDone[id]++
		if w := s.flagWaiters[id]; w != 0 {
			s.flagWaiters[id] = 0
			s.candidates |= compMask(w)
			s.cWakes++
		}
	}
	if b := s.pendingBarrier; b >= 0 && s.nDone == int(b) {
		s.pendingBarrier = -1
		s.candidates |= 1 << uint(s.comp[b])
		s.cWakes++
	}
}

// conflicts reports whether instructions i and j of prog have a memory
// conflict: overlapping regions with at least one writer.
func conflicts(prog *isa.Program, i, j int) bool {
	for _, wa := range prog.Writes(i) {
		for _, wb := range prog.Writes(j) {
			if wa.Overlaps(wb) {
				return true
			}
		}
		for _, rb := range prog.Reads(j) {
			if wa.Overlaps(rb) {
				return true
			}
		}
	}
	for _, ra := range prog.Reads(i) {
		for _, wb := range prog.Writes(j) {
			if ra.Overlaps(wb) {
				return true
			}
		}
	}
	return false
}

// deadlockError reports the blocked queue heads.
func (s *schedState) deadlockError() error {
	msg := "sim: deadlock, blocked queue heads:"
	for c := 0; c < hw.NumComponents; c++ {
		if s.qpos[c] < len(s.queues[c]) {
			i := int(s.queues[c][s.qpos[c]])
			msg += fmt.Sprintf(" [%s: #%d %s]", hw.Component(c), i, s.prog.InstrString(i))
		}
	}
	return fmt.Errorf("%s", msg)
}

// buildProfile assembles the profile from the completed schedule. Tick
// times convert to nanoseconds exactly (see ticks.go), so aggregates
// are identical whether accumulated here or by the reference scheduler.
// When spans are kept they are emitted in start order straight from the
// recorded start sequence; only ties at one tick need reordering by
// program index, so no full O(n log n) sort runs. With KeepSpans off no
// span storage is allocated at all.
func (s *schedState) buildProfile() *profile.Profile {
	p := profile.New(s.prog.Name)
	n := len(s.prog.Instrs)

	// Span preparation happens first so the main instruction loop below
	// can emit each instruction's span as it aggregates it — one pass
	// over the (large) instruction structs instead of two. rank inverts
	// the recorded start sequence after fixing start-tick ties: within
	// one tick, starts happened in component order but spans sort by
	// program index. Tie groups are bounded by the component count, so
	// an in-place insertion sort beats sort.Slice and sidesteps its
	// per-call reflection swapper allocation (which used to dominate
	// the span path's alloc count).
	var q *profile.SpanSeq
	if s.opts.KeepSpans {
		for lo := 0; lo < len(s.startSeq); {
			hi := lo + 1
			t := s.starts[s.startSeq[lo]]
			for hi < len(s.startSeq) && s.starts[s.startSeq[hi]] == t {
				hi++
			}
			if hi-lo > 1 {
				tie := s.startSeq[lo:hi]
				for a := 1; a < len(tie); a++ {
					for b := a; b > 0 && tie[b] < tie[b-1]; b-- {
						tie[b], tie[b-1] = tie[b-1], tie[b]
					}
				}
			}
			for w := lo; w < hi; w++ {
				s.rank[s.startSeq[w]] = int32(w)
			}
			lo = hi
		}
		// Label stays nil until a labeled instruction shows up — the
		// common unlabeled program skips a pointer-array allocation
		// (and its GC scanning) entirely.
		q = &profile.SpanSeq{
			Index: make([]int32, n),
			Comp:  make([]uint8, n),
			Kind:  make([]uint8, n),
			Start: make([]int64, n),
			End:   make([]int64, n),
		}
		p.Timeline = q
	}

	// Per-path and per-precision sums accumulate in dense arrays (program
	// order per key, so float sums match a direct map accumulation bit
	// for bit — lattice sums are exact anyway) and flush to the profile
	// maps once per present key instead of once per instruction.
	var pathBytes [hw.NumLevels][hw.NumLevels]int64
	var pathBusy [hw.NumLevels][hw.NumLevels]float64
	var pathSeen [hw.NumLevels][hw.NumLevels]bool
	var precOps [numUnits][numPrec]int64
	var precBusy [numUnits][numPrec]float64
	var precSeen [numUnits][numPrec]bool
	for i := range s.prog.Instrs {
		in := &s.prog.Instrs[i]
		c := s.comp[i]
		d := FromTicks(s.dur[i])
		p.Busy[c] += d
		p.InstrCount[c]++
		if e := FromTicks(s.ends[i]); e > p.TotalTime {
			p.TotalTime = e
		}
		if q != nil {
			// The simulator's tick lattice is the timeline's tick
			// lattice (both 2^-20 ns), so start/end copy over without
			// conversion and consumers read them exactly.
			w := s.rank[i]
			q.Index[w] = int32(i)
			q.Comp[w] = uint8(c)
			q.Kind[w] = uint8(in.Kind)
			q.Start[w] = s.starts[i]
			q.End[w] = s.ends[i]
			if in.Label != "" {
				if q.Label == nil {
					q.Label = make([]string, n)
				}
				q.Label[w] = in.Label
			}
		}
		switch in.Kind {
		case isa.KindTransfer:
			src, dst := in.Path.Src, in.Path.Dst // routable, so in range
			pathBytes[src][dst] += in.Bytes
			pathBusy[src][dst] += d
			pathSeen[src][dst] = true
		case isa.KindCompute:
			if u, pr := int(in.Unit), int(in.Prec); pr >= 0 && pr < numPrec {
				precOps[u][pr] += in.Ops
				precBusy[u][pr] += d
				precSeen[u][pr] = true
			} else { // exotic precision outside the dense table
				up := hw.UnitPrec{Unit: in.Unit, Prec: in.Prec}
				p.PrecOps[up] += in.Ops
				p.PrecBusy[up] += d
			}
		}
	}
	for src := 0; src < hw.NumLevels; src++ {
		for dst := 0; dst < hw.NumLevels; dst++ {
			if pathSeen[src][dst] {
				path := hw.Path{Src: hw.Level(src), Dst: hw.Level(dst)}
				p.PathBytes[path] = pathBytes[src][dst]
				p.PathBusy[path] = pathBusy[src][dst]
			}
		}
	}
	for u := 0; u < numUnits; u++ {
		for pr := 0; pr < numPrec; pr++ {
			if precSeen[u][pr] {
				up := hw.UnitPrec{Unit: hw.Unit(u), Prec: hw.Precision(pr)}
				p.PrecOps[up] = precOps[u][pr]
				p.PrecBusy[up] = precBusy[u][pr]
			}
		}
	}
	return p
}
