package critpath_test

import (
	"math/rand"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/critpath"
	"ascendperf/internal/hw"
	"ascendperf/internal/sim"
)

// BenchmarkCritpathCompute reconstructs the critical path of a
// generated 4000-instruction program's schedule.
func BenchmarkCritpathCompute(b *testing.B) {
	chip := hw.TrainingChip()
	prog := check.GenProgram(chip, rand.New(rand.NewSource(1)), 4000)
	p, err := sim.Run(chip, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := critpath.Compute(chip, prog, p); err != nil {
			b.Fatal(err)
		}
	}
}
