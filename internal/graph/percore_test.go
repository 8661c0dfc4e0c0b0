package graph

import (
	"fmt"
	"sort"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/multicore"
)

// TestPerCoreBuildsMatch pins the condition durations relies on to
// build each operator once per request: a kernel builds the same
// program, or fails alike, for multicore.PerCoreChip(chip, o) as for
// chip, at every occupancy o the scheduler uses. It checks every
// registry kernel at its baseline, with each supported strategy alone
// and with all of them, and every operator of every workload at its
// baseline, on every preset.
func TestPerCoreBuildsMatch(t *testing.T) {
	type build struct {
		what string
		k    kernels.Kernel
		opts kernels.Options
	}
	var builds []build
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		k := reg[n]
		builds = append(builds, build{n + " baseline", k, k.Baseline()})
		for _, s := range k.Supported() {
			builds = append(builds, build{fmt.Sprintf("%s %s", n, s), k, kernels.Apply(k.Baseline(), s)})
		}
		builds = append(builds, build{n + " all strategies", k, kernels.FullyOptimized(k)})
	}
	for _, m := range model.Extended() {
		for i, op := range m.Ops {
			builds = append(builds, build{fmt.Sprintf("%s op %d (%s)", m.Name, i, op.Kernel.Name()), op.Kernel, op.Kernel.Baseline()})
		}
	}
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, b := range builds {
			want, wantErr := b.k.Build(chip, b.opts)
			for o := 2; o <= 8; o++ {
				got, err := b.k.Build(multicore.PerCoreChip(chip, o), b.opts)
				if (err == nil) != (wantErr == nil) {
					t.Fatalf("%s on %s: %d-core build error %v, whole-chip error %v", b.what, chip.Name, o, err, wantErr)
				}
				if err == nil && !got.Equal(want) {
					t.Fatalf("%s on %s: the %d-core build differs from the whole-chip build", b.what, chip.Name, o)
				}
			}
		}
	}
}
