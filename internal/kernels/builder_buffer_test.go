package kernels

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// corpusBuild is one program of the registry corpus: every registry
// kernel, baseline and fully optimized, on the three preset chips.
type corpusBuild struct {
	chip *hw.Chip
	name string
	k    Kernel
	opts Options
}

func corpus() []corpusBuild {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []corpusBuild
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, n := range names {
			k := reg[n]
			out = append(out,
				corpusBuild{chip, n + "/baseline", k, k.Baseline()},
				corpusBuild{chip, n + "/optimized", k, FullyOptimized(k)})
		}
	}
	return out
}

// emit appends n scalar computes whose labels, op counts and read
// regions identify the tag and position, so a stream whose instructions
// or regions another builder overwrote cannot compare equal to
// want(tag, n).
func emit(b *Builder, tag string, from, n int) {
	for i := from; i < from+n; i++ {
		b.Compute(hw.Scalar, hw.INT32, int64(i+1), 1, []isa.Region{emitRegion(tag, i)}, nil, fmt.Sprintf("%s%d", tag, i))
	}
}

// emitRegion is the region emit reads at position i of tag's stream.
func emitRegion(tag string, i int) isa.Region {
	return isa.Region{Level: hw.UB, Off: int64(i), Size: int64(tag[0])}
}

// want is the program emit(b, tag, 0, n) builds under the given name.
func want(name, tag string, n int) *isa.Program {
	p := &isa.Program{Name: name}
	for i := 0; i < n; i++ {
		p.AppendWith(isa.Instr{Kind: isa.KindCompute, Unit: hw.Scalar, Prec: hw.INT32,
			Ops: int64(i + 1), Repeat: 1, Label: fmt.Sprintf("%s%d", tag, i)},
			[]isa.Region{emitRegion(tag, i)}, nil)
	}
	return p
}

func mustProgram(t *testing.T, b *Builder) *isa.Program {
	t.Helper()
	p, err := b.Program()
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestBuilderBufferNotShared checks that programs from sequential
// builds own their instructions and regions: exact length, and a write
// through one never shows in another.
func TestBuilderBufferNotShared(t *testing.T) {
	chip := hw.TrainingChip()
	var progs []*isa.Program
	for i, n := range []int{300, 40, 500, 300} {
		b := NewBuilder(chip, fmt.Sprint("seq", i))
		emit(b, fmt.Sprint("s", i), 0, n)
		p := mustProgram(t, b)
		if len(p.Instrs) != cap(p.Instrs) {
			t.Errorf("build %d: len %d cap %d, want an exact-length slice", i, len(p.Instrs), cap(p.Instrs))
		}
		progs = append(progs, p)
	}
	for i, p := range progs {
		if w := want(fmt.Sprint("seq", i), fmt.Sprint("s", i), p.Len()); !p.Equal(w) {
			t.Fatalf("build %d changed after later builds", i)
		}
	}
	for i := range progs[0].Instrs {
		progs[0].Instrs[i].Label = "poison"
		progs[0].Reads(i)[0].Off = -1
	}
	for i, p := range progs[1:] {
		if w := want(fmt.Sprint("seq", i+1), fmt.Sprint("s", i+1), p.Len()); !p.Equal(w) {
			t.Fatalf("writing build 0 changed build %d", i+1)
		}
	}
}

// TestBuilderBufferReleased checks that a builder never writes into the
// buffer it gave back: not when Program is called twice, not after a
// failed build, and not when instructions are appended after Program
// while another builder fills the reused buffer.
func TestBuilderBufferReleased(t *testing.T) {
	chip := hw.TrainingChip()

	b := NewBuilder(chip, "twice")
	emit(b, "t", 0, 200)
	p1 := mustProgram(t, b)
	p2 := mustProgram(t, b)
	if p1 == p2 || !p1.Equal(p2) || !p1.Equal(want("twice", "t", 200)) {
		t.Fatal("second Program call does not return a separate copy of the same stream")
	}
	other := NewBuilder(chip, "other")
	emit(other, "o", 0, 150)
	emit(b, "t", 200, 100) // interleaved with other's use of the buffer b released
	emit(other, "o", 150, 150)
	if p := mustProgram(t, other); !p.Equal(want("other", "o", 300)) {
		t.Fatal("appending after Program wrote into another builder's stream")
	}
	if !p1.Equal(want("twice", "t", 200)) || !p2.Equal(want("twice", "t", 200)) {
		t.Fatal("appending after Program changed a returned program")
	}
	if p3 := mustProgram(t, b); !p3.Equal(want("twice", "t", 300)) {
		t.Fatal("Program after further appends does not return the whole stream")
	}

	bad := NewBuilder(chip, "bad")
	emit(bad, "b", 0, 100)
	bad.Alloc(hw.UB, 0)
	if _, err := bad.Program(); err == nil {
		t.Fatal("expected an allocation error")
	}
	next := NewBuilder(chip, "next")
	emit(next, "n", 0, 150)
	emit(bad, "b", 100, 300)
	emit(next, "n", 150, 150)
	if p := mustProgram(t, next); !p.Equal(want("next", "n", 300)) {
		t.Fatal("appending after a failed build wrote into another builder's stream")
	}
	if _, err := bad.Program(); err == nil {
		t.Fatal("a failed build succeeded on the second Program call")
	}
}

// TestBuilderConcurrentBuilds builds the registry corpus serially, then
// on several goroutines at once in different orders, and requires the
// same programs.
func TestBuilderConcurrentBuilds(t *testing.T) {
	c := corpus()
	serial := make([]*isa.Program, len(c))
	for i, e := range c {
		p, err := e.k.Build(e.chip, e.opts)
		if err != nil {
			t.Fatalf("%s on %s: %v", e.name, e.chip.Name, err)
		}
		serial[i] = p
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range c {
				i := (j + w*len(c)/workers) % len(c)
				p, err := c[i].k.Build(c[i].chip, c[i].opts)
				if err != nil || !p.Equal(serial[i]) {
					t.Errorf("worker %d: %s on %s differs from the serial build (err %v)", w, c[i].name, c[i].chip.Name, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// buildCorpus builds every corpus program once and returns the total
// instruction count.
func buildCorpus(tb testing.TB, c []corpusBuild) int {
	n := 0
	for _, e := range c {
		p, err := e.k.Build(e.chip, e.opts)
		if err != nil {
			tb.Fatalf("%s on %s: %v", e.name, e.chip.Name, err)
		}
		n += p.Len()
	}
	return n
}

// TestKernelBuildBytesPerInstr bounds the heap bytes a kernel build
// allocates per instruction emitted. A program's instructions take 64
// bytes each, plus the 24-byte regions transfers and computes carry in
// the program's arena: about 90 bytes in all, or 100 when a collection
// empties the buffer pool during the measured pass. Growing each
// program's arrays by doubling while it is built costs about as much
// again, which this bound rejects, and so would instructions that
// carried their regions in slices of their own (198 bytes).
func TestKernelBuildBytesPerInstr(t *testing.T) {
	if raceEnabled {
		// The detector drops pooled buffers at random and allocates
		// for its own bookkeeping, so the count would measure it.
		t.Skip("allocation bound; skipped under -race")
	}
	c := corpus()
	buildCorpus(t, c) // fill the buffer pool
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	n := buildCorpus(t, c)
	runtime.ReadMemStats(&after)
	perInstr := float64(after.TotalAlloc-before.TotalAlloc) / float64(n)
	t.Logf("%d instructions, %.0f B/instr", n, perInstr)
	if limit := 150.0; perInstr > limit {
		t.Errorf("kernel builds allocate %.0f B per instruction, want at most %.0f", perInstr, limit)
	}
}

// TestKernelBuildAllocs bounds the allocations of each registry kernel,
// baseline and fully optimized, on the training chip, per instruction it
// emits. A build allocates its builder, its few buffer plans and the
// copied-out program; emitting an instruction allocates nothing, as the
// regions a kernel passes are copied into the program's arena.
func TestKernelBuildAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation bound; skipped under -race")
	}
	chip := hw.TrainingChip()
	worst, worstName := 0.0, ""
	for _, e := range corpus() {
		if e.chip.Name != chip.Name {
			continue
		}
		p, err := e.k.Build(chip, e.opts)
		if err != nil {
			t.Fatalf("%s: %v", e.name, err)
		}
		allocs := testing.AllocsPerRun(10, func() {
			if _, err := e.k.Build(chip, e.opts); err != nil {
				t.Fatal(err)
			}
		})
		per := allocs / float64(p.Len())
		if per > worst {
			worst, worstName = per, e.name
		}
		if per > 0.1 {
			t.Errorf("%s: %.0f allocations for %d instructions, %.3f per instruction, want at most 0.1",
				e.name, allocs, p.Len(), per)
		}
	}
	t.Logf("most allocations per instruction: %.3f (%s)", worst, worstName)
}

// BenchmarkKernelBuild builds the registry corpus and reports time,
// heap bytes and allocations per instruction emitted.
func BenchmarkKernelBuild(b *testing.B) {
	c := corpus()
	instrs := buildCorpus(b, c)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buildCorpus(b, c)
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	total := float64(instrs) * float64(b.N)
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/total, "ns/instr")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/total, "B/instr")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/total, "allocs/instr")
}
