package critpath_test

import (
	"ascendperf/internal/critpath"
	"math"
	"math/rand"
	"strings"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

func run(t *testing.T, chip *hw.Chip, prog *isa.Program) *critpath.Analysis {
	t.Helper()
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	a, err := critpath.Compute(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// zeroChip removes all fixed overheads so chains are exact.
func zeroChip() *hw.Chip {
	c := hw.TrainingChip()
	c.DispatchLatency = 0
	c.TransferSetup = 0
	c.ComputeIssue = 0
	c.ScalarIssue = 0
	c.SyncCost = 0
	return c
}

// TestSerialChain: a flag-serialized three-stage pipeline has a critical
// path covering the whole makespan with flag edges.
func TestSerialChain(t *testing.T) {
	chip := zeroChip()
	prog := &isa.Program{Name: "chain"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 32000)
	prog.Append(
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.Compute(hw.Vector, hw.FP16, 25600),
		isa.SetFlag(hw.CompVector, hw.CompMTEUB, 0),
		isa.WaitFlag(hw.CompVector, hw.CompMTEUB, 0),
	)
	prog.AppendTransfer(hw.PathUBToGM, 0, 64000, 16000)
	a := run(t, chip, prog)
	// Path execution must cover the full makespan (zero overheads, no
	// idle in a tight serial chain).
	var exec float64
	for _, v := range a.ExecTime {
		exec += v
	}
	if math.Abs(exec-a.Makespan) > 1e-6 {
		t.Errorf("critical path exec %.3f != makespan %.3f", exec, a.Makespan)
	}
	if a.EdgeCount()[critpath.EdgeFlag] < 2 {
		t.Errorf("expected at least 2 flag edges, got %v", a.EdgeCount())
	}
	// Steps must be time-ordered and chained.
	for i := 1; i < len(a.Steps); i++ {
		if a.Steps[i].Start < a.Steps[i-1].Start-1e-9 {
			t.Error("steps not time-ordered")
		}
	}
}

// TestHazardDominatedPath: the in-place Add_ReLU-style conflict appears
// as hazard edges on the critical path.
func TestHazardDominatedPath(t *testing.T) {
	chip := zeroChip()
	prog := &isa.Program{Name: "hazard"}
	// Two rounds sharing one UB buffer: round 2's load must wait out
	// round 1's store (write-read conflict on UB[0:32000)).
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 32000)
	prog.AppendTransfer(hw.PathUBToGM, 0, 1<<20, 32000)
	prog.AppendTransfer(hw.PathGMToUB, 65536, 0, 32000)
	prog.AppendTransfer(hw.PathUBToGM, 0, 2<<20, 32000)
	a := run(t, chip, prog)
	if a.EdgeCount()[critpath.EdgeHazard] == 0 {
		t.Errorf("expected hazard edges, got %v", a.EdgeCount())
	}
	if !strings.Contains(a.Report(), "hazard") {
		t.Error("report should mention hazards")
	}
}

// TestBarrierOnPath: a barrier between phases appears as a barrier edge.
func TestBarrierOnPath(t *testing.T) {
	chip := zeroChip()
	prog := &isa.Program{Name: "barrier"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 32000)
	prog.Append(isa.BarrierAllInstr())
	prog.AppendTransfer(hw.PathUBToGM, 65536, 1<<20, 16000)
	a := run(t, chip, prog)
	if a.EdgeCount()[critpath.EdgeBarrier] == 0 {
		t.Errorf("expected a barrier edge, got %v", a.EdgeCount())
	}
}

// TestDispatchWaitAccounted: with a huge dispatch latency the path
// reports front-end wait time.
func TestDispatchWaitAccounted(t *testing.T) {
	chip := zeroChip()
	chip.DispatchLatency = 1000
	prog := &isa.Program{Name: "dispatch"}
	prog.Append(
		isa.Compute(hw.Scalar, hw.INT32, 1),
		isa.Compute(hw.Scalar, hw.INT32, 1),
	)
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 3200)
	a := run(t, chip, prog)
	if a.WaitTime[critpath.EdgeDispatch] <= 0 {
		t.Errorf("expected dispatch wait, got %v", a.WaitTime)
	}
}

// TestPathConsistency: over random programs, the critical path's steps
// chain correctly (each step's binding predecessor is the previous step)
// and exec+dispatch accounts for the whole makespan.
func TestPathConsistency(t *testing.T) {
	chip := hw.TrainingChip()
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		prog := randomValidProgram(rng, 100)
		p, err := sim.Run(chip, prog)
		if err != nil {
			t.Fatal(err)
		}
		a, err := critpath.Compute(chip, prog, p)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		var exec float64
		for _, v := range a.ExecTime {
			exec += v
		}
		total := exec + a.WaitTime[critpath.EdgeDispatch]
		if math.Abs(total-a.Makespan) > 1e-3 {
			t.Errorf("trial %d: path accounts for %.3f of makespan %.3f", trial, total, a.Makespan)
		}
		for i := 1; i < len(a.Steps); i++ {
			if a.Steps[i].Pred >= 0 && a.Steps[i].Pred != a.Steps[i-1].Index {
				t.Errorf("trial %d: step %d predecessor %d is not previous step %d",
					trial, i, a.Steps[i].Pred, a.Steps[i-1].Index)
			}
		}
		// The last step finishes at the makespan.
		if lastEnd := a.Steps[len(a.Steps)-1].End; math.Abs(lastEnd-a.Makespan) > 1e-6 {
			t.Errorf("trial %d: last step ends %.3f, makespan %.3f", trial, lastEnd, a.Makespan)
		}
	}
}

// TestKernelDiagnosis: the baseline Add_ReLU's path shows hazards (the
// RSD defect); the optimized one does not.
func TestKernelDiagnosis(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.NewAddReLU()
	base, err := k.Build(chip, k.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	pb, err := sim.Run(chip, base)
	if err != nil {
		t.Fatal(err)
	}
	ab, err := critpath.Compute(chip, base, pb)
	if err != nil {
		t.Fatal(err)
	}
	if ab.EdgeCount()[critpath.EdgeHazard] == 0 {
		t.Error("baseline Add_ReLU path should contain hazard edges")
	}

	opt, err := k.Build(chip, kernels.FullyOptimized(k))
	if err != nil {
		t.Fatal(err)
	}
	po, err := sim.Run(chip, opt)
	if err != nil {
		t.Fatal(err)
	}
	ao, err := critpath.Compute(chip, opt, po)
	if err != nil {
		t.Fatal(err)
	}
	if ab.EdgeCount()[critpath.EdgeHazard] <= ao.EdgeCount()[critpath.EdgeHazard] {
		t.Errorf("RSD should reduce hazard edges: %d -> %d",
			ab.EdgeCount()[critpath.EdgeHazard], ao.EdgeCount()[critpath.EdgeHazard])
	}
}

func TestComputeErrors(t *testing.T) {
	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "empty"}
	if _, err := critpath.Compute(chip, prog, nil); err == nil {
		t.Error("expected error for empty program")
	}
}

// randomValidProgram mirrors the simulator tests' generator (kept local
// to avoid exporting test helpers across packages).
func randomValidProgram(rng *rand.Rand, n int) *isa.Program {
	prog := &isa.Program{Name: "random"}
	pending := 0
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
				{Unit: hw.Cube, Prec: hw.FP16}, {Unit: hw.Vector, Prec: hw.FP16},
				{Unit: hw.Scalar, Prec: hw.INT32},
			}
			up := ups[rng.Intn(len(ups))]
			prog.Append(isa.Compute(up.Unit, up.Prec, int64(rng.Intn(5000)+1)))
		case 4:
			if rng.Intn(3) == 0 {
				prog.Append(isa.BarrierAllInstr())
			} else {
				prog.Append(isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0))
				pending++
			}
		case 5:
			if pending > 0 {
				prog.Append(isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0))
				pending--
			} else {
				prog.Append(isa.Compute(hw.Scalar, hw.INT32, 1))
			}
		}
	}
	return prog
}

func TestEdgeKindStrings(t *testing.T) {
	want := map[critpath.EdgeKind]string{
		critpath.EdgeDispatch: "dispatch", critpath.EdgeQueue: "queue", critpath.EdgeFlag: "flag",
		critpath.EdgeBarrier: "barrier", critpath.EdgeHazard: "hazard", critpath.EdgeStart: "start",
	}
	for k, w := range want {
		if k.String() != w {
			t.Errorf("%d = %q, want %q", int(k), k.String(), w)
		}
	}
	if critpath.EdgeKind(42).String() != "EdgeKind(42)" {
		t.Error("unknown edge kind formatting")
	}
}

// TestBankClashOnPath: with UB banking enabled, a bank-aliased wait
// shows up as a hazard edge even though the byte ranges are disjoint.
func TestBankClashOnPath(t *testing.T) {
	chip := zeroChip()
	chip.UBBanks = 4
	chip.UBBankWidth = 1 << 10
	prog := &isa.Program{Name: "banked"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1024)        // bank 0
	prog.AppendTransfer(hw.PathUBToGM, 4096, 1<<20, 1024) // bank 0 again, disjoint bytes
	a := run(t, chip, prog)
	if a.EdgeCount()[critpath.EdgeHazard] == 0 {
		t.Errorf("expected a bank-clash hazard edge, got %v", a.EdgeCount())
	}
}

// TestReportPercentagesSum: exec percentages plus dispatch wait account
// for the whole makespan in the rendered report.
func TestReportPercentagesSum(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.NewMul()
	prog, err := k.Build(chip, k.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	a, err := critpath.Compute(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	var exec float64
	for _, v := range a.ExecTime {
		exec += v
	}
	total := exec + a.WaitTime[critpath.EdgeDispatch]
	if math.Abs(total-a.Makespan) > 1e-3 {
		t.Errorf("path accounts for %.3f of %.3f", total, a.Makespan)
	}
	if !strings.Contains(a.Report(), "critical path:") {
		t.Error("report header missing")
	}
}
