package sim

import (
	"math/rand"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// deepChip returns the training chip with the given queue depth.
func deepChip(depth int) *hw.Chip {
	c := hw.TrainingChip()
	c.QueueDepth = depth
	return c
}

// TestQueueDepthHeadOfLineBlocking: with depth 1, the front end stalls on
// a full queue, delaying the dispatch of instructions bound for OTHER
// queues — head-of-line blocking at dispatch.
func TestQueueDepthHeadOfLineBlocking(t *testing.T) {
	prog := &isa.Program{Name: "hol"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1<<18)    // slow: ~9.2 us
	prog.AppendTransfer(hw.PathGMToL1, 1<<20, 0, 1024) // same queue: fills it
	prog.Append(
		isa.Compute(hw.Vector, hw.FP16, 256), // different queue
	)
	unbounded, err := Run(hw.TrainingChip(), prog)
	if err != nil {
		t.Fatal(err)
	}
	bounded, err := Run(deepChip(1), prog)
	if err != nil {
		t.Fatal(err)
	}
	if err := VerifySchedule(deepChip(1), prog, bounded); err != nil {
		t.Fatal(err)
	}
	var vecUnbounded, vecBounded float64
	for s := range unbounded.Spans() {
		if s.Comp == hw.CompVector {
			vecUnbounded = s.Start
		}
	}
	for s := range bounded.Spans() {
		if s.Comp == hw.CompVector {
			vecBounded = s.Start
		}
	}
	// Unbounded: the vector op dispatches immediately. Bounded at depth
	// 1: the second transfer cannot dispatch until the first completes,
	// and the vector op queues behind that stall.
	if vecBounded <= vecUnbounded+1000 {
		t.Errorf("depth-1 queues should delay the vector op: %.1f vs %.1f ns",
			vecBounded, vecUnbounded)
	}
}

// TestLargeDepthMatchesUnbounded: a depth larger than the program length
// reproduces the unbounded schedule exactly.
func TestLargeDepthMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for trial := 0; trial < 15; trial++ {
		prog := randomProgram(rng, 100)
		unbounded, err := Run(hw.TrainingChip(), prog)
		if err != nil {
			t.Fatal(err)
		}
		deep, err := Run(deepChip(1000), prog)
		if err != nil {
			t.Fatal(err)
		}
		if unbounded.TotalTime != deep.TotalTime {
			t.Fatalf("trial %d: deep queue changed total: %v vs %v",
				trial, unbounded.TotalTime, deep.TotalTime)
		}
	}
}

// TestFiniteQueuesNeverFaster: over random programs, bounding the queues
// never reduces the makespan below the unbounded schedule... except via
// scheduling anomalies, so assert the aggregate direction.
func TestFiniteQueuesNeverFaster(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	slower := 0
	const trials = 20
	for trial := 0; trial < trials; trial++ {
		prog := randomProgram(rng, 80)
		unbounded, err := Run(hw.TrainingChip(), prog)
		if err != nil {
			t.Fatal(err)
		}
		tight, err := Run(deepChip(2), prog)
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifySchedule(deepChip(2), prog, tight); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if tight.TotalTime >= unbounded.TotalTime-1e-6 {
			slower++
		}
	}
	if slower < trials*3/4 {
		t.Errorf("depth-2 queues slowed only %d/%d trials", slower, trials)
	}
}

// TestQueueDepthDeadlockStillDetected: the classic barrier deadlock is
// still reported with finite queues.
func TestQueueDepthDeadlockStillDetected(t *testing.T) {
	prog := &isa.Program{Name: "deadlock"}
	prog.Append(
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.BarrierAllInstr(),
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
	)
	if _, err := Run(deepChip(4), prog); err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestQueueDepthJSONRoundTrip: the spec field survives serialization.
func TestQueueDepthJSONRoundTrip(t *testing.T) {
	// Covered structurally in hw; here check the simulator honors a
	// round-tripped chip identically.
	chip := deepChip(3)
	prog := &isa.Program{Name: "rt"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	prog.AppendTransfer(hw.PathGMToUB, 8192, 8192, 4096)
	prog.Append(isa.Compute(hw.Vector, hw.FP16, 512))
	a, err := Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(deepChip(3), prog)
	if err != nil {
		t.Fatal(err)
	}
	if a.TotalTime != b.TotalTime {
		t.Error("nondeterministic under finite queues")
	}
}
