package passes

import (
	"fmt"
	"sort"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// refCheckOrdering is the CheckOrdering the current one replaced,
// verbatim: it resolves both queues and classifies the full dependence
// of every pair. TestCheckOrderingMatchesReference holds the current
// one to its verdicts and error text.
func refCheckOrdering(chip *hw.Chip, prog *isa.Program, p *profile.Profile) error {
	n := len(prog.Instrs)
	if p.NumSpans() != n {
		return fmt.Errorf("passes: need spans for all %d instructions", n)
	}
	starts := make([]float64, n)
	ends := make([]float64, n)
	for s := range p.Spans() {
		starts[s.Index] = s.Start
		ends[s.Index] = s.End
	}
	for j := 0; j < n; j++ {
		if !isWork(&prog.Instrs[j]) {
			continue
		}
		cj, _ := prog.Instrs[j].Component(chip)
		for i := 0; i < j; i++ {
			if !isWork(&prog.Instrs[i]) {
				continue
			}
			ci, _ := prog.Instrs[i].Component(chip)
			if ci == cj {
				continue
			}
			if dependsOn(prog, i, j) == depRAW {
				if starts[j]+1e-9 < ends[i] {
					return fmt.Errorf("passes: RAW violated: %d (%s) starts %.3f before %d (%s) ends %.3f",
						j, prog.InstrString(j), starts[j], i, prog.InstrString(i), ends[i])
				}
			}
		}
	}
	return nil
}

// sameVerdict fails unless CheckOrdering and the reference agree on the
// schedule: both accept it, or both reject it with the same text.
func sameVerdict(t *testing.T, what string, chip *hw.Chip, prog *isa.Program, p *profile.Profile) {
	t.Helper()
	got, want := CheckOrdering(chip, prog, p), refCheckOrdering(chip, prog, p)
	if (got == nil) != (want == nil) || got != nil && got.Error() != want.Error() {
		t.Fatalf("%s: CheckOrdering says %v, reference %v", what, got, want)
	}
}

// squash returns a copy of p whose spans all start at time zero, keeping
// their durations: a schedule that breaks most dependences.
func squash(p *profile.Profile) *profile.Profile {
	q := p.Clone()
	tl := q.Timeline
	for k := range tl.Index {
		tl.End[k] -= tl.Start[k]
		tl.Start[k] = 0
	}
	return q
}

// TestCheckOrderingMatchesReference: on the MinimalSync and HoistLoads
// outputs of every registry kernel (baseline and fully optimized) on
// every preset, on those schedules squashed to time zero, and on
// TestCheckOrderingCatchesViolation's fabricated schedule, CheckOrdering
// gives the reference's verdict and error text.
func TestCheckOrderingMatchesReference(t *testing.T) {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	rejected := 0
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, name := range names {
			k := reg[name]
			for _, opts := range []kernels.Options{k.Baseline(), kernels.FullyOptimized(k)} {
				prog, err := k.Build(chip, opts)
				if err != nil {
					continue
				}
				synced, err := MinimalSync(chip, prog)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, chip.Name, err)
				}
				hoisted, err := HoistLoads(chip, synced, 8)
				if err != nil {
					t.Fatalf("%s on %s: %v", name, chip.Name, err)
				}
				for _, out := range []*isa.Program{synced, hoisted} {
					p, err := sim.Run(chip, out)
					if err != nil {
						t.Fatalf("%s on %s: %v", out.Name, chip.Name, err)
					}
					what := fmt.Sprintf("%s %v on %s", out.Name, opts, chip.Name)
					sameVerdict(t, what, chip, out, p)
					sq := squash(p)
					sameVerdict(t, what+" squashed", chip, out, sq)
					if CheckOrdering(chip, out, sq) != nil {
						rejected++
					}
				}
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no squashed schedule was rejected: the comparison never saw an error")
	}

	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "raw"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	prog.Append(
		isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
	)
	prog.AppendWith(isa.Compute(hw.Vector, hw.FP16, 100), []isa.Region{{Level: hw.UB, Off: 0, Size: 4096}}, nil)
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	sameVerdict(t, "fabricated schedule", chip, prog, p)
	q := p.Timeline
	for i := range q.Index {
		if q.Index[i] == 3 {
			q.End[i] -= q.Start[i]
			q.Start[i] = 0
		}
	}
	sameVerdict(t, "fabricated violation", chip, prog, p)
	if CheckOrdering(chip, prog, p) == nil {
		t.Fatal("fabricated violation not detected")
	}
}
