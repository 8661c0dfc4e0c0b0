package isa_test

import (
	"math/rand"
	"runtime"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// TestParseAllocs pins the allocation count of a valid parse: the
// Program, its instruction slice, the region arena and the label
// string, however long the program.
func TestParseAllocs(t *testing.T) {
	prog := check.GenProgram(hw.TrainingChip(), rand.New(rand.NewSource(1)), 2000)
	for i := range prog.Instrs {
		prog.Instrs[i].Label = []string{"", "load-a", "mad"}[i%3]
	}
	src := prog.Disassemble()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := isa.ParseString("p", src); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("parsing %d instructions allocates %.0f times, want at most 4", prog.Len(), allocs)
	}
}

// BenchmarkParse parses the registry disassembly corpus (every kernel,
// baseline and fully optimized, on every chip preset) per iteration and
// reports the cost per parsed instruction.
func BenchmarkParse(b *testing.B) {
	corpus := parseCorpus(b)
	instrs := 0
	for _, src := range corpus {
		p, err := isa.ParseString("p", src)
		if err != nil {
			b.Fatal(err)
		}
		instrs += p.Len()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, src := range corpus {
			if _, err := isa.ParseString("p", src); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N) * float64(instrs)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/instr")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/instr")
}
