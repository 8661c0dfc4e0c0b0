package opt

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenBudgets are the exact-simulation budgets the search golden
// covers: unlimited, then ever tighter caps, so budgeted searches stop
// in the seeds, mid-beam, in the refinement sweep and in the pass
// refinement.
var goldenBudgets = []int{0, 64, 32, 16, 8}

// TestSearchGolden pins every search result, byte for byte: for each
// registry kernel on each chip preset, the beam search at beam 1 and
// the default beam under every budget in goldenBudgets, plus the
// exhaustive reference. One line per search, sorted. The results feed
// reports and the episode store, so a drift here must be deliberate
// (re-bless with `go test -run SearchGolden -update`).
func TestSearchGolden(t *testing.T) {
	if raceEnabled {
		t.Skip("930 searches under the race detector take minutes; the plain run pins the results")
	}
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	var lines []string
	add := func(chip *hw.Chip, tag string, res *SearchResult, err error) {
		if err != nil {
			lines = append(lines, fmt.Sprintf("%s %s error %v", chip.Name, tag, err))
			return
		}
		data, err := json.Marshal(res)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, fmt.Sprintf("%s %s %s", chip.Name, tag, data))
	}
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, n := range names {
			k := reg[n]
			for _, beam := range []int{1, DefaultBeam} {
				for _, budget := range goldenBudgets {
					res, err := New(chip).Search(k, SearchConfig{Beam: beam, Budget: budget})
					if err == nil && budget > 0 && res.ExactSims > budget {
						t.Errorf("%s %s beam=%d: %d exact sims over budget %d", chip.Name, n, beam, res.ExactSims, budget)
					}
					add(chip, fmt.Sprintf("%s beam=%d budget=%d", n, beam, budget), res, err)
				}
			}
			res, err := New(chip).ExhaustiveJoint(k)
			add(chip, n+" exhaustive", res, err)
		}
	}
	sort.Strings(lines)
	var buf bytes.Buffer
	for _, l := range lines {
		buf.WriteString(l)
		buf.WriteByte('\n')
	}

	got := buf.Bytes()
	golden := filepath.Join("testdata", "search.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", golden)
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if !bytes.Equal(got, want) {
		gl, wl := bytes.Split(got, []byte("\n")), bytes.Split(want, []byte("\n"))
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if !bytes.Equal(gl[i], wl[i]) {
				t.Fatalf("search results drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("search results drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}
