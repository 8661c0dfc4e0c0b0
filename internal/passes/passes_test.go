package passes

import (
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

func simulate(t *testing.T, chip *hw.Chip, prog *isa.Program) float64 {
	t.Helper()
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	if err := CheckOrdering(chip, prog, p); err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	return p.TotalTime
}

// barrierHeavy builds a three-stage pipeline over several tiles with a
// PIPE_ALL barrier after every stage — the over-synchronized shape RUS
// targets.
func barrierHeavy() *isa.Program {
	prog := &isa.Program{Name: "barrier-heavy"}
	const tiles = 6
	const tileBytes = 32 << 10
	for k := int64(0); k < tiles; k++ {
		in := isa.Region{Level: hw.UB, Off: 0, Size: tileBytes}
		out := isa.Region{Level: hw.UB, Off: tileBytes, Size: tileBytes}
		prog.AppendTransfer(hw.PathGMToUB, k*tileBytes, in.Off, tileBytes)
		prog.Append(isa.BarrierAllInstr())
		c := isa.Compute(hw.Vector, hw.FP16, tileBytes/2)
		prog.AppendWith(c, []isa.Region{in}, []isa.Region{out})
		prog.Append(isa.BarrierAllInstr())
		prog.AppendTransfer(hw.PathUBToGM, out.Off, 1<<20+k*tileBytes, tileBytes)
		prog.Append(isa.BarrierAllInstr())
	}
	return prog
}

// TestMinimalSyncPreservesAndImproves: the pass removes every barrier,
// keeps all RAW dependences intact (CheckOrdering inside simulate), and
// speeds the program up.
func TestMinimalSyncPreservesAndImproves(t *testing.T) {
	chip := hw.TrainingChip()
	orig := barrierHeavy()
	before := simulate(t, chip, orig)

	min, err := MinimalSync(chip, orig)
	if err != nil {
		t.Fatal(err)
	}
	if min.Stat().Barriers != 0 {
		t.Errorf("barriers remain: %d", min.Stat().Barriers)
	}
	if min.Stat().Syncs == 0 {
		t.Error("no flags inserted despite cross-component dependences")
	}
	after := simulate(t, chip, min)
	if after >= before {
		t.Errorf("minimal sync did not improve: %.1f -> %.1f us", before/1000, after/1000)
	}
	// The work content is identical.
	so, sm := orig.Stat(), min.Stat()
	if so.Computes != sm.Computes || so.Transfers != sm.Transfers ||
		so.Bytes != sm.Bytes || so.Ops != sm.Ops {
		t.Error("pass changed the work content")
	}
}

// TestMinimalSyncOnKernels: applying the pass to the barrier-heavy
// depthwise baseline approaches the quality of the kernel's own RUS
// option.
func TestMinimalSyncOnKernels(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.NewDepthwise()
	base, err := k.Build(chip, k.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	before := simulate(t, chip, base)

	min, err := MinimalSync(chip, base)
	if err != nil {
		t.Fatal(err)
	}
	after := simulate(t, chip, min)
	if after >= before {
		t.Errorf("pass regressed depthwise: %.1f -> %.1f us", before/1000, after/1000)
	}

	rus, err := k.Build(chip, kernels.Apply(k.Baseline(), kernels.RUS))
	if err != nil {
		t.Fatal(err)
	}
	handTuned := simulate(t, chip, rus)
	// The automatic pass should land within 25% of the hand-tuned RUS
	// variant.
	if after > handTuned*1.25 {
		t.Errorf("pass (%.1f us) too far behind hand-tuned RUS (%.1f us)", after/1000, handTuned/1000)
	}
}

// TestHoistLoadsImprovesDispatchBound: on a program whose second load is
// buried behind scalar bookkeeping, hoisting recovers the AIS gain.
func TestHoistLoadsImprovesDispatchBound(t *testing.T) {
	chip := hw.TrainingChip()
	chip.DispatchLatency = 50
	prog := &isa.Program{Name: "buried-load"}
	prog.AppendTransfer(hw.PathGMToL1, 0, 0, 65536)
	for i := 0; i < 80; i++ {
		prog.Append(isa.Compute(hw.Scalar, hw.INT32, 4))
	}
	prog.AppendTransfer(hw.PathGMToL1, 1<<20, 65536, 65536)

	before := simulate(t, chip, prog)
	hoisted, err := HoistLoads(chip, prog, 128)
	if err != nil {
		t.Fatal(err)
	}
	after := simulate(t, chip, hoisted)
	if after >= before {
		t.Errorf("hoist did not improve: %.1f -> %.1f us", before/1000, after/1000)
	}
	// The hoisted load sits right after the first one.
	if hoisted.Instrs[1].Kind != isa.KindTransfer {
		t.Error("second transfer not hoisted to position 1")
	}
}

// TestHoistRespectsDependences: a transfer depending on a compute result
// must not move above it.
func TestHoistRespectsDependences(t *testing.T) {
	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "dependent"}
	c := isa.Compute(hw.Vector, hw.FP16, 1000)
	prog.AppendWith(c, nil, []isa.Region{{Level: hw.UB, Off: 0, Size: 4096}})
	prog.AppendTransfer(hw.PathUBToGM, 0, 0, 4096) // reads what c wrote
	hoisted, err := HoistLoads(chip, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hoisted.Instrs[0].Kind != isa.KindCompute {
		t.Error("dependent transfer hoisted past its producer")
	}
	simulate(t, chip, hoisted)
}

// TestHoistFencesAtSync: synchronization instructions stop the motion.
func TestHoistFencesAtSync(t *testing.T) {
	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "fenced"}
	prog.Append(
		isa.Compute(hw.Vector, hw.FP16, 100),
		isa.BarrierAllInstr(),
	)
	prog.AppendTransfer(hw.PathGMToUB, 0, 8192, 4096)
	hoisted, err := HoistLoads(chip, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hoisted.Instrs[2].Kind != isa.KindTransfer {
		t.Error("transfer moved past a barrier")
	}
}

// TestHoistSameQueueStable: transfers on the same engine keep their
// order.
func TestHoistSameQueueStable(t *testing.T) {
	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "same-queue"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	prog.AppendTransfer(hw.PathGMToL1, 1<<20, 0, 4096)
	hoisted, err := HoistLoads(chip, prog, 64)
	if err != nil {
		t.Fatal(err)
	}
	if hoisted.Instrs[0].Path != hw.PathGMToUB {
		t.Error("same-engine transfers reordered")
	}
}

// TestCheckOrderingCatchesViolation: a fabricated schedule where the
// consumer starts before the producer ends is rejected.
func TestCheckOrderingCatchesViolation(t *testing.T) {
	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "raw"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	prog.Append(
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
	)
	c := isa.Compute(hw.Vector, hw.FP16, 100)
	prog.AppendWith(c, []isa.Region{{Level: hw.UB, Off: 0, Size: 4096}}, nil)
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckOrdering(chip, prog, p); err != nil {
		t.Fatalf("clean schedule rejected: %v", err)
	}
	// Corrupt: pull the compute to time zero.
	q := p.Timeline
	for i := range q.Index {
		if q.Index[i] == 3 {
			d := q.End[i] - q.Start[i]
			q.Start[i] = 0
			q.End[i] = d
		}
	}
	if err := CheckOrdering(chip, prog, p); err == nil {
		t.Fatal("RAW violation not detected")
	}
}

// TestAllKernelsRespectDataFlow: every library kernel's simulated
// schedule, baseline and optimized, respects all cross-component RAW
// dependences — the library-wide data-race check that found real staging
// bugs during development.
func TestAllKernelsRespectDataFlow(t *testing.T) {
	chip := hw.TrainingChip()
	for name, k := range kernels.Registry() {
		for _, opts := range []kernels.Options{k.Baseline(), kernels.FullyOptimized(k)} {
			prog, err := k.Build(chip, opts)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p, err := sim.Run(chip, prog)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := CheckOrdering(chip, prog, p); err != nil {
				t.Errorf("%s: %v", name, err)
			}
		}
	}
}

// TestMinimalSyncIdempotent: re-running the pass on its own output
// changes nothing material.
func TestMinimalSyncIdempotent(t *testing.T) {
	chip := hw.TrainingChip()
	orig := barrierHeavy()
	once, err := MinimalSync(chip, orig)
	if err != nil {
		t.Fatal(err)
	}
	twice, err := MinimalSync(chip, once)
	if err != nil {
		t.Fatal(err)
	}
	if once.Stat().Syncs != twice.Stat().Syncs {
		t.Errorf("sync count changed on reapplication: %d -> %d",
			once.Stat().Syncs, twice.Stat().Syncs)
	}
	a := simulate(t, chip, once)
	b := simulate(t, chip, twice)
	if a != b {
		t.Errorf("time changed on reapplication: %v -> %v", a, b)
	}
}
