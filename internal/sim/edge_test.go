package sim

import (
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// The event-ordering edge cases: simultaneous events at one tick must
// coalesce the way the reference scheduler's event loop does. Each test
// pins exact times — the tick lattice makes float equality legitimate —
// and cross-checks with VerifySchedule. These are regression tests for
// the event-driven core's wake lists: each scenario has a wakeup whose
// trigger lands on exactly the same tick as another event, where a
// dropped or late wake would deadlock or mis-order the schedule.

// spanOf returns the span of instruction i.
func spanOf(t *testing.T, p interface {
	At(int) (float64, float64, bool)
}, i int) (float64, float64) {
	t.Helper()
	s, e, ok := p.At(i)
	if !ok {
		t.Fatalf("instruction %d has no span", i)
	}
	return s, e
}

// at adapts a profile for spanOf.
type at struct{ spans []span }
type span struct{ start, end float64 }

func (a at) At(i int) (float64, float64, bool) {
	if i < 0 || i >= len(a.spans) {
		return 0, 0, false
	}
	s := a.spans[i]
	return s.start, s.end, true
}

func spansByIndex(t *testing.T, chip *hw.Chip, prog *isa.Program) at {
	t.Helper()
	p, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(chip, prog, p); err != nil {
		t.Fatal(err)
	}
	out := at{spans: make([]span, len(prog.Instrs))}
	for s := range p.Spans() {
		out.spans[s.Index] = span{s.Start, s.End}
	}
	return out
}

// TestZeroDurationBarrierRetiresAtDispatchTick: a zero-duration barrier
// starts and retires at the same tick an earlier instruction completes,
// and its successor starts at that very tick too — three scheduler
// rounds coalesced at one timestamp.
func TestZeroDurationBarrierRetiresAtDispatchTick(t *testing.T) {
	chip := testChip() // SyncCost = 0: barriers are zero-duration
	chip.DispatchLatency = 5
	prog := &isa.Program{Name: "zero-dur-barrier"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 10) // dispatch 5, runs [5, 15)
	prog.Append(
		isa.BarrierAllInstr(),              // dispatch 10, gated on i0 -> [15, 15)
		isa.Compute(hw.Vector, hw.FP16, 5), // dispatch 15, gated on barrier -> [15, 20)
	)
	sp := spansByIndex(t, chip, prog)
	if s, e := spanOf(t, sp, 0); s != 5 || e != 15 {
		t.Errorf("transfer ran [%v, %v), want [5, 15)", s, e)
	}
	if s, e := spanOf(t, sp, 1); s != 15 || e != 15 {
		t.Errorf("barrier ran [%v, %v), want the zero-length [15, 15)", s, e)
	}
	if s, e := spanOf(t, sp, 2); s != 15 || e != 20 {
		t.Errorf("compute ran [%v, %v), want [15, 20): it must start the same tick the zero-duration barrier retires", s, e)
	}
}

// TestWaitFlagWakesAtIdenticalTimestamp: the matching set_flag
// completes at exactly the wait_flag's dispatch tick; the wait must
// start at that tick, not a tick (or an epsilon) later.
func TestWaitFlagWakesAtIdenticalTimestamp(t *testing.T) {
	chip := testChip()
	chip.DispatchLatency = 5
	chip.SyncCost = 5
	prog := &isa.Program{Name: "flag-same-tick"}
	prog.Append(
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),  // dispatch 5, runs [5, 10)
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0), // dispatch 10 == set completion
		isa.Compute(hw.Vector, hw.FP16, 5),           // FIFO behind the wait
	)
	sp := spansByIndex(t, chip, prog)
	if s, e := spanOf(t, sp, 0); s != 5 || e != 10 {
		t.Errorf("set_flag ran [%v, %v), want [5, 10)", s, e)
	}
	if s, e := spanOf(t, sp, 1); s != 10 || e != 15 {
		t.Errorf("wait_flag ran [%v, %v), want [10, 15): its flag arrives exactly at its dispatch tick", s, e)
	}
	if s, e := spanOf(t, sp, 2); s != 15 || e != 20 {
		t.Errorf("compute ran [%v, %v), want [15, 20)", s, e)
	}
}

// TestBankClashReEligibleAtRetireTick: an instruction blocked only by a
// UB bank clash (disjoint regions, aliasing banks) must start exactly
// when the conflicting instruction retires — the retirement has to wake
// the blocked component's queue head.
func TestBankClashReEligibleAtRetireTick(t *testing.T) {
	chip := testChip()
	chip.UBBanks = 4
	chip.UBBankWidth = 1 << 10
	chip.DispatchLatency = 1
	prog := &isa.Program{Name: "bank-wake"}
	// Writes UB[0:1024) = bank 0 on MTE-GM: dispatch 1, runs [1, 1025).
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1024) // Reads UB[4096:4608), also bank 0, on MTE-UB: dispatch 2, then
	// blocked by the clash until the write retires.
	prog.AppendTransfer(hw.PathUBToGM, 4096, 1<<19, 512)
	sp := spansByIndex(t, chip, prog)
	s0, e0 := spanOf(t, sp, 0)
	if s0 != 1 || e0 != 1025 {
		t.Errorf("write ran [%v, %v), want [1, 1025)", s0, e0)
	}
	s1, e1 := spanOf(t, sp, 1)
	if s1 != e0 {
		t.Errorf("clashing read starts at %v, want exactly the write's retire time %v", s1, e0)
	}
	if e1 != e0+512 {
		t.Errorf("read ends at %v, want %v", e1, e0+512)
	}

	// Sanity: without banking the two transfers overlap, proving the
	// serialization above came from the bank clash alone.
	chip2 := testChip()
	chip2.DispatchLatency = 1
	p2, err := Run(chip2, prog)
	if err != nil {
		t.Fatal(err)
	}
	if p2.TotalTime >= e1 {
		t.Errorf("without banking total = %v, want < %v (overlap)", p2.TotalTime, e1)
	}
}
