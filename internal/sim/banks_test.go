package sim

import (
	"math/rand"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// bankedChip returns the training chip with UB banking enabled.
func bankedChip(banks int, width int64) *hw.Chip {
	c := hw.TrainingChip()
	c.UBBanks = banks
	c.UBBankWidth = width
	return c
}

// TestBankConflictSerializes: disjoint UB regions that alias onto the
// same bank serialize when banking is on, run in parallel when off.
func TestBankConflictSerializes(t *testing.T) {
	// 4 banks of 1 KiB: offsets 0 and 4096 are both bank 0.
	chip := bankedChip(4, 1<<10)
	prog := &isa.Program{Name: "bank-alias"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1024)        // UB[0:1024) bank 0
	prog.AppendTransfer(hw.PathUBToGM, 4096, 1<<20, 1024) // UB[4096:5120) bank 0
	p, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(chip, prog, p); err != nil {
		t.Fatal(err)
	}
	// Serial: the second transfer starts after the first ends.
	if p.SpanAt(1).Start < p.SpanAt(0).End-1e-9 {
		t.Errorf("bank-aliased transfers overlapped: %v vs %v", p.SpanAt(1).Start, p.SpanAt(0).End)
	}

	off := hw.TrainingChip() // banking off
	pOff, err := Run(off, prog)
	if err != nil {
		t.Fatal(err)
	}
	if pOff.TotalTime >= p.TotalTime-1e-9 {
		t.Errorf("banking should slow the aliased program: %.1f vs %.1f", pOff.TotalTime, p.TotalTime)
	}
}

// TestDifferentBanksParallel: disjoint regions on different banks still
// run in parallel with banking on.
func TestDifferentBanksParallel(t *testing.T) {
	chip := bankedChip(4, 1<<10)
	prog := &isa.Program{Name: "bank-disjoint"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1024)        // bank 0
	prog.AppendTransfer(hw.PathUBToGM, 1024, 1<<20, 1024) // bank 1
	p, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(chip, prog, p); err != nil {
		t.Fatal(err)
	}
	if p.SpanAt(1).Start >= p.SpanAt(0).End {
		t.Error("different banks should not serialize")
	}
}

// TestWideRegionTouchesAllBanks: a region spanning every bank conflicts
// with any UB access.
func TestWideRegionTouchesAllBanks(t *testing.T) {
	chip := bankedChip(4, 1<<10)
	mask := chip.BankRange(hw.UB, 0, 8<<10)
	if mask != 0b1111 {
		t.Errorf("8KiB over 4x1KiB banks mask = %b, want 1111", mask)
	}
	if chip.BankRange(hw.GM, 0, 8<<10) != 0 {
		t.Error("non-UB regions have no banks")
	}
	if hw.TrainingChip().BankRange(hw.UB, 0, 8<<10) != 0 {
		t.Error("banking off must yield no banks")
	}
}

// TestBankingValidSchedules: over random programs, banked execution
// produces verifier-clean schedules with unchanged aggregate work.
// (Banked makespans are USUALLY longer, but not always: the machine
// starts whatever is eligible without lookahead, so an added constraint
// can reorder execution and occasionally shorten the makespan — the
// classic Graham scheduling anomaly. We assert the typical direction in
// aggregate, not per trial.)
func TestBankingValidSchedules(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	banked := bankedChip(8, 1<<10)
	plain := hw.TrainingChip()
	slower := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		prog := randomProgram(rng, 80)
		pb, err := Run(banked, prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySchedule(banked, prog, pb); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		pp, err := Run(plain, prog)
		if err != nil {
			t.Fatal(err)
		}
		if pb.TotalTime >= pp.TotalTime-1e-6 {
			slower++
		}
		// Work aggregates are identical regardless of banking.
		for path, bytes := range pp.PathBytes {
			if pb.PathBytes[path] != bytes {
				t.Fatalf("trial %d: banking changed bytes on %s", trial, path)
			}
		}
	}
	if slower < trials*3/4 {
		t.Errorf("banking slowed only %d/%d trials; expected it to usually slow execution", slower, trials)
	}
}

// TestBankOf sanity-checks the mapping.
func TestBankOf(t *testing.T) {
	chip := bankedChip(4, 1<<10)
	cases := map[int64]int{0: 0, 1023: 0, 1024: 1, 4096: 0, 5120: 1}
	for off, want := range cases {
		if got := chip.BankOf(off); got != want {
			t.Errorf("BankOf(%d) = %d, want %d", off, got, want)
		}
	}
	if hw.TrainingChip().BankOf(0) != -1 {
		t.Error("banking off must return -1")
	}
	// Default width applies when unset.
	d := hw.TrainingChip()
	d.UBBanks = 2
	if d.BankOf(1<<10) != 1 {
		t.Error("default bank width should be 1KiB")
	}
}
