package sim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// testChip returns a chip with unit rates and zero overheads so expected
// times are trivially hand-computable: every bandwidth is 1 B/ns and every
// compute peak is 1 op/ns.
func testChip() *hw.Chip {
	c := &hw.Chip{
		Name:     "test",
		ClockGHz: 1,
		Compute:  map[hw.UnitPrec]hw.PrecSpec{},
		Paths:    map[hw.Path]hw.PathSpec{},
		BufferSize: map[hw.Level]int64{
			hw.GM: 1 << 40, hw.L1: 1 << 20, hw.UB: 1 << 20,
			hw.L0A: 1 << 16, hw.L0B: 1 << 16, hw.L0C: 1 << 18,
		},
	}
	for _, up := range []hw.UnitPrec{
		{Unit: hw.Cube, Prec: hw.FP16}, {Unit: hw.Cube, Prec: hw.INT8},
		{Unit: hw.Vector, Prec: hw.FP16}, {Unit: hw.Vector, Prec: hw.FP32},
		{Unit: hw.Scalar, Prec: hw.INT32},
	} {
		c.Compute[up] = hw.PrecSpec{Peak: 1}
	}
	for _, p := range hw.AllPaths() {
		e, _ := hw.TrainingChip().EngineOf(p)
		c.Paths[p] = hw.PathSpec{Bandwidth: 1, Engine: e}
	}
	return c
}

func mustRun(t *testing.T, chip *hw.Chip, prog *isa.Program) *profileResult {
	t.Helper()
	p, err := Run(chip, prog)
	if err != nil {
		t.Fatalf("Run(%s): %v", prog.Name, err)
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("profile invalid: %v", err)
	}
	return &profileResult{p.TotalTime, p}
}

type profileResult struct {
	total float64
	p     interface {
		TimeRatio(hw.Component) float64
	}
}

func approx(a, b float64) bool { return math.Abs(a-b) < 1e-6 }

func TestSingleTransfer(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "one-copy"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	r := mustRun(t, chip, prog)
	if !approx(r.total, 1000) {
		t.Errorf("total = %v, want 1000", r.total)
	}
}

func TestSameMTESerializes(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "same-mte"}
	// Both on MTE-GM: must serialize even though paths differ.
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	prog.AppendTransfer(hw.PathGMToL1, 4096, 0, 1000)
	r := mustRun(t, chip, prog)
	if !approx(r.total, 2000) {
		t.Errorf("total = %v, want 2000 (serialized within MTE-GM)", r.total)
	}
}

func TestDifferentMTEsParallel(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "cross-mte"}
	// Disjoint regions on different engines: fully parallel.
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)       // writes UB[0:1000)
	prog.AppendTransfer(hw.PathUBToGM, 2000, 8192, 1000) // reads UB[2000:3000)
	r := mustRun(t, chip, prog)
	if !approx(r.total, 1000) {
		t.Errorf("total = %v, want 1000 (parallel across MTEs)", r.total)
	}
}

func TestSpatialDependencySerializes(t *testing.T) {
	chip := testChip()
	// MTE-GM writes UB[0:1000) while MTE-UB reads UB[500:1500): conflict.
	prog := &isa.Program{Name: "hazard"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	prog.AppendTransfer(hw.PathUBToGM, 500, 8192, 1000)
	r := mustRun(t, chip, prog)
	if !approx(r.total, 2000) {
		t.Errorf("total = %v, want 2000 (hazard serialization)", r.total)
	}

	// With hazards disabled the same program runs in parallel.
	p, err := RunOpts(chip, prog, Options{DisableHazards: true, KeepSpans: true})
	if err != nil {
		t.Fatal(err)
	}
	if !approx(p.TotalTime, 1000) {
		t.Errorf("hazards off: total = %v, want 1000", p.TotalTime)
	}
}

func TestReadsDoNotConflict(t *testing.T) {
	chip := testChip()
	// A Vector compute and an MTE-UB transfer both *reading* the same UB
	// region run on different components and do not conflict.
	prog := &isa.Program{Name: "rr"}
	vec := isa.Compute(hw.Vector, hw.FP16, 1000)
	prog.AppendWith(vec, []isa.Region{{Level: hw.UB, Off: 0, Size: 1000}}, nil)
	prog.AppendTransfer(hw.PathUBToGM, 0, 0, 1000)
	r := mustRun(t, chip, prog)
	if !approx(r.total, 1000) {
		t.Errorf("total = %v, want 1000 (read-read parallel)", r.total)
	}

	// The same pair with the compute *writing* the region serializes.
	prog2 := &isa.Program{Name: "wr"}
	vecW := isa.Compute(hw.Vector, hw.FP16, 1000)
	prog2.AppendWith(vecW, nil, []isa.Region{{Level: hw.UB, Off: 0, Size: 1000}})
	prog2.AppendTransfer(hw.PathUBToGM, 0, 0, 1000)
	r2 := mustRun(t, chip, prog2)
	if !approx(r2.total, 2000) {
		t.Errorf("total = %v, want 2000 (write-read conflict)", r2.total)
	}
}

func TestWaitFlagOrdersAcrossQueues(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "flags"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	prog.Append(
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.Compute(hw.Vector, hw.FP16, 500),
	)
	r := mustRun(t, chip, prog)
	// transfer 1000, set 0-cost, wait, compute 500 => 1500.
	if !approx(r.total, 1500) {
		t.Errorf("total = %v, want 1500", r.total)
	}
}

func TestFlagSemaphoreOrdering(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "two-flags"}
	// Two producer/consumer rounds on the same event id; the second wait
	// must match the second set.
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 100) // [0,100)
	prog.Append(isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0))
	prog.AppendTransfer(hw.PathGMToUB, 4096, 4096, 100) // [100,200) on MTE-GM
	prog.Append(
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.Compute(hw.Vector, hw.FP16, 50),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.Compute(hw.Vector, hw.FP16, 50),
	)
	r := mustRun(t, chip, prog)
	// MTE-GM: copy [0,100), set, copy [100,200), set (sets are 0-cost).
	// Vector: wait1 done at 100 -> compute [100,150); wait2 needs second
	// set at 200 -> compute [200,250).
	if !approx(r.total, 250) {
		t.Errorf("total = %v, want 250", r.total)
	}
}

func TestBarrierAllFences(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "barrier"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	prog.AppendTransfer(hw.PathUBToGM, 2000, 8192, 400) // parallel, ends at 400
	prog.Append(isa.BarrierAllInstr())
	prog.AppendTransfer(hw.PathUBToL1, 4000, 0, 100)
	r := mustRun(t, chip, prog)
	// Barrier waits for 1000; final transfer runs [1000,1100).
	if !approx(r.total, 1100) {
		t.Errorf("total = %v, want 1100", r.total)
	}
}

func TestBarrierRemovalNeverSlower(t *testing.T) {
	chip := testChip()
	with := &isa.Program{Name: "with-barrier"}
	with.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	with.Append(isa.BarrierAllInstr())
	with.AppendTransfer(hw.PathUBToGM, 2000, 8192, 1000)
	without := &isa.Program{Name: "no-barrier"}
	without.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	without.AppendTransfer(hw.PathUBToGM, 2000, 8192, 1000)
	a := mustRun(t, chip, with)
	b := mustRun(t, chip, without)
	if b.total > a.total {
		t.Errorf("removing barrier increased time: %v -> %v", a.total, b.total)
	}
	if !approx(a.total, 2000) || !approx(b.total, 1000) {
		t.Errorf("expected 2000/1000, got %v/%v", a.total, b.total)
	}
}

func TestDispatchLatencyDelaysLateInstructions(t *testing.T) {
	chip := testChip()
	chip.DispatchLatency = 10
	prog := &isa.Program{Name: "dispatch"}
	// Ten scalar computes then one transfer: transfer dispatched at 110.
	for i := 0; i < 10; i++ {
		prog.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
	}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 100)
	p, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	// Find the transfer span: it must start at 11*10 = 110.
	found := false
	for s := range p.Spans() {
		if s.Comp == hw.CompMTEGM {
			found = true
			if !approx(s.Start, 110) {
				t.Errorf("transfer start = %v, want 110", s.Start)
			}
		}
	}
	if !found {
		t.Fatal("no MTE-GM span found")
	}
}

func TestInstructionOrderMatters(t *testing.T) {
	// The AIS effect: issuing the independent GM transfer before a long
	// dependent chain lets it overlap; issuing it last delays it by the
	// accumulated dispatch latency.
	chip := testChip()
	chip.DispatchLatency = 50

	late := &isa.Program{Name: "late-load"}
	late.AppendTransfer(hw.PathGMToL1, 0, 0, 400)
	for i := 0; i < 10; i++ {
		late.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
	}
	late.AppendTransfer(hw.PathGMToL1, 4096, 4096, 400) // issued late

	early := &isa.Program{Name: "early-load"}
	early.AppendTransfer(hw.PathGMToL1, 0, 0, 400)
	early.AppendTransfer(hw.PathGMToL1, 4096, 4096, 400) // issued early
	for i := 0; i < 10; i++ {
		early.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
	}
	a := mustRun(t, chip, late)
	b := mustRun(t, chip, early)
	if b.total >= a.total {
		t.Errorf("early issue (%v) should beat late issue (%v)", b.total, a.total)
	}
	// Late: second transfer is dispatch-bound at 12*50 = 600, ends 1000.
	if !approx(a.total, 1000) {
		t.Errorf("late total = %v, want 1000", a.total)
	}
	// Early: second transfer is engine-bound at 450, ends 850.
	if !approx(b.total, 850) {
		t.Errorf("early total = %v, want 850", b.total)
	}
}

func TestTransferSetupGranularity(t *testing.T) {
	// Many small transfers must be slower than one merged transfer of the
	// same total size (the ITG effect).
	chip := testChip()
	chip.TransferSetup = 100
	small := &isa.Program{Name: "small"}
	for i := int64(0); i < 8; i++ {
		small.AppendTransfer(hw.PathUBToGM, i*100, i*100, 100)
	}
	merged := &isa.Program{Name: "merged"}
	merged.AppendTransfer(hw.PathUBToGM, 0, 0, 800)
	a := mustRun(t, chip, small)
	b := mustRun(t, chip, merged)
	if !approx(a.total, 8*(100+100)) {
		t.Errorf("small total = %v, want 1600", a.total)
	}
	if !approx(b.total, 100+800) {
		t.Errorf("merged total = %v, want 900", b.total)
	}
}

func TestComputeIssueAmortization(t *testing.T) {
	// The AIP effect: one instruction with repeat=98 versus 98 separate
	// instructions of the same total work.
	chip := testChip()
	chip.ComputeIssue = 50
	many := &isa.Program{Name: "repeat-1"}
	for i := 0; i < 98; i++ {
		many.Append(isa.Compute(hw.Vector, hw.FP16, 64))
	}
	one := &isa.Program{Name: "repeat-98"}
	one.Append(isa.ComputeRepeat(hw.Vector, hw.FP16, 98*64, 98))
	a := mustRun(t, chip, many)
	b := mustRun(t, chip, one)
	if !approx(a.total, 98*(50+64)) {
		t.Errorf("many total = %v, want %v", a.total, 98.0*(50+64))
	}
	if !approx(b.total, 50+98*64) {
		t.Errorf("one total = %v, want %v", b.total, 50.0+98*64)
	}
}

func TestDeadlockDetection(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "deadlock"}
	// The wait precedes the barrier; the set follows it. The barrier
	// cannot complete before the wait, the wait needs the set, the set
	// needs the barrier.
	prog.Append(
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.BarrierAllInstr(),
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
	)
	_, err := Run(chip, prog)
	if err == nil {
		t.Fatal("expected deadlock error")
	}
	if !strings.Contains(err.Error(), "deadlock") {
		t.Errorf("error should mention deadlock: %v", err)
	}
}

func TestProfileAggregates(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "agg"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 300)
	prog.AppendTransfer(hw.PathGMToUB, 4096, 4096, 200)
	prog.Append(
		isa.Compute(hw.Vector, hw.FP16, 100),
		isa.Compute(hw.Vector, hw.FP32, 50),
	)
	p, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	if p.PathBytes[hw.PathGMToUB] != 500 {
		t.Errorf("GM->UB bytes = %d, want 500", p.PathBytes[hw.PathGMToUB])
	}
	if p.PrecOps[hw.UnitPrec{Unit: hw.Vector, Prec: hw.FP16}] != 100 {
		t.Error("FP16 vector ops wrong")
	}
	if p.PrecOps[hw.UnitPrec{Unit: hw.Vector, Prec: hw.FP32}] != 50 {
		t.Error("FP32 vector ops wrong")
	}
	if p.InstrCount[hw.CompMTEGM] != 2 || p.InstrCount[hw.CompVector] != 2 {
		t.Error("instruction counts wrong")
	}
	if !approx(p.Busy[hw.CompMTEGM], 500) {
		t.Errorf("MTE-GM busy = %v, want 500", p.Busy[hw.CompMTEGM])
	}
	if !approx(p.Busy[hw.CompVector], 150) {
		t.Errorf("Vector busy = %v, want 150", p.Busy[hw.CompVector])
	}
}

func TestRejectsInvalidProgram(t *testing.T) {
	chip := testChip()
	prog := &isa.Program{Name: "bad"}
	prog.Append(isa.Compute(hw.Cube, hw.FP64, 10)) // unsupported on Cube
	if _, err := Run(chip, prog); err == nil {
		t.Fatal("expected validation error")
	}
}

func TestEmptyProgram(t *testing.T) {
	chip := testChip()
	p, err := Run(chip, &isa.Program{Name: "empty"})
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalTime != 0 {
		t.Errorf("empty program total = %v", p.TotalTime)
	}
}

// randomProgram builds a random but deadlock-free program: transfers and
// computes with random parameters, occasional barriers, and matched
// set/wait pairs where the set always precedes the wait in program order.
func randomProgram(rng *rand.Rand, n int) *isa.Program {
	prog := &isa.Program{Name: "random"}
	pending := 0 // sets emitted but not yet waited on
	event := 0
	paths := hw.AllPaths()
	for i := 0; i < n; i++ {
		switch rng.Intn(6) {
		case 0, 1:
			path := paths[rng.Intn(len(paths))]
			size := int64(rng.Intn(4000) + 1)
			off := int64(rng.Intn(8192))
			prog.AppendTransfer(path, off, off, size)
		case 2, 3:
			ups := []hw.UnitPrec{
				{Unit: hw.Cube, Prec: hw.FP16}, {Unit: hw.Cube, Prec: hw.INT8},
				{Unit: hw.Vector, Prec: hw.FP16}, {Unit: hw.Vector, Prec: hw.FP32},
				{Unit: hw.Scalar, Prec: hw.INT32},
			}
			up := ups[rng.Intn(len(ups))]
			prog.Append(isa.Compute(up.Unit, up.Prec, int64(rng.Intn(5000)+1)))
		case 4:
			if rng.Intn(3) == 0 {
				prog.Append(isa.BarrierAllInstr())
			} else {
				prog.Append(isa.SetFlag(hw.CompMTEGM, hw.CompVector, event))
				pending++
			}
		case 5:
			if pending > 0 {
				prog.Append(isa.WaitFlag(hw.CompMTEGM, hw.CompVector, event))
				pending--
			} else {
				prog.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
			}
		}
	}
	return prog
}

// TestRandomProgramInvariants property-checks simulator invariants over
// random programs: the profile validates (no per-component overlap), the
// makespan is at least the longest component busy time, and at least the
// critical instruction duration.
func TestRandomProgramInvariants(t *testing.T) {
	chip := hw.TrainingChip()
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		prog := randomProgram(rng, 120)
		p, err := Run(chip, prog)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("trial %d: profile invalid: %v", trial, err)
		}
		for _, c := range hw.Components() {
			if p.Busy[c] > p.TotalTime+1e-6 {
				t.Fatalf("trial %d: %s busy %v exceeds total %v", trial, c, p.Busy[c], p.TotalTime)
			}
		}
	}
}

// TestHazardsNeverSpeedUp checks that enabling hazard modelling can only
// increase the makespan.
func TestHazardsNeverSpeedUp(t *testing.T) {
	chip := hw.TrainingChip()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 30; trial++ {
		prog := randomProgram(rng, 80)
		with, err := RunOpts(chip, prog, Options{})
		if err != nil {
			t.Fatal(err)
		}
		without, err := RunOpts(chip, prog, Options{DisableHazards: true})
		if err != nil {
			t.Fatal(err)
		}
		if with.TotalTime < without.TotalTime-1e-6 {
			t.Fatalf("trial %d: hazards decreased time %v -> %v", trial, without.TotalTime, with.TotalTime)
		}
	}
}

// TestDeterminism checks that repeated runs produce identical schedules.
func TestDeterminism(t *testing.T) {
	chip := hw.TrainingChip()
	rng := rand.New(rand.NewSource(3))
	prog := randomProgram(rng, 200)
	a, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime {
		t.Fatalf("nondeterministic totals: %v vs %v", a.TotalTime, b.TotalTime)
	}
	if a.NumSpans() != b.NumSpans() {
		t.Fatal("span counts differ")
	}
	for i := 0; i < a.NumSpans(); i++ {
		if a.SpanAt(i) != b.SpanAt(i) {
			t.Fatalf("span %d differs", i)
		}
	}
}
