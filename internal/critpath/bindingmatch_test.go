package critpath_test

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/critpath"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

// bankedChip is the training preset with Unified Buffer banking on, so
// the bank-clash branch of the conflict rule is exercised.
func bankedChip() *hw.Chip {
	c := hw.TrainingChip()
	c.Name = "training-banked"
	c.UBBanks = 8
	return c
}

// tieChip is zeroChip under its own name: with no fixed overheads, many
// instructions end at exactly the same time, so equal-time candidates
// (the later index wins) decide bindings.
func tieChip() *hw.Chip {
	c := zeroChip()
	c.Name = "training-zero-overhead"
	return c
}

// TestBindingMatchesReference: Compute's steps and every instruction's
// binding equal those of the reference hazard scan on registry kernels
// (baseline and fully optimized) and generated programs, on every chip
// preset, a UB-banked chip and a chip without fixed overheads.
func TestBindingMatchesReference(t *testing.T) {
	if raceEnabled {
		// The reference scan is quadratic and single-threaded: the
		// detector multiplies its ~5 s to a minute and has nothing to
		// find. The plain test run covers the full corpus.
		t.Skip("single-threaded equivalence check; skipped under -race")
	}
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	chips := []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip(), bankedChip(), tieChip()}
	type item struct {
		what string
		chip *hw.Chip
		prog *isa.Program
	}
	var corpus []item
	for _, chip := range chips {
		for _, n := range names {
			k := reg[n]
			for _, opts := range []kernels.Options{k.Baseline(), kernels.FullyOptimized(k)} {
				p, err := k.Build(chip, opts)
				if err != nil {
					continue
				}
				corpus = append(corpus, item{chip.Name + " " + p.Name, chip, p})
			}
		}
	}
	for seed := int64(1); seed <= 4; seed++ {
		for _, n := range []int{200, 1000, 4000} {
			chip := chips[int(seed)%len(chips)]
			p := check.GenProgram(chip, rand.New(rand.NewSource(seed)), n)
			corpus = append(corpus, item{fmt.Sprintf("%s gen seed %d n %d", chip.Name, seed, n), chip, p})
		}
	}
	for _, it := range corpus {
		prof, err := sim.Run(it.chip, it.prog)
		if err != nil {
			t.Fatalf("%s: %v", it.what, err)
		}
		a, err := critpath.Compute(it.chip, it.prog, prof)
		if err != nil {
			t.Fatalf("%s: %v", it.what, err)
		}
		steps, err := critpath.ReferenceSteps(it.chip, it.prog, prof)
		if err != nil {
			t.Fatalf("%s: %v", it.what, err)
		}
		if !reflect.DeepEqual(a.Steps, steps) {
			t.Fatalf("%s: Compute steps differ from the reference", it.what)
		}
		got, err := critpath.Bindings(it.chip, it.prog, prof)
		if err != nil {
			t.Fatalf("%s: %v", it.what, err)
		}
		want, err := critpath.ReferenceBindings(it.chip, it.prog, prof)
		if err != nil {
			t.Fatalf("%s: %v", it.what, err)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s: instr %d binding %+v, reference %+v", it.what, i, got[i], want[i])
			}
		}
	}
}
