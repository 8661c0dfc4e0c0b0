package isa_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestFingerprintGolden pins Program.Fingerprint values. Fingerprints
// key the on-disk simulation cache and the episode store, so any change
// to the encoding orphans every entry written before it: a drift here
// must be deliberate (re-bless with `go test -run FingerprintGolden
// -update`) and documented as a cache-format change.
func TestFingerprintGolden(t *testing.T) {
	var buf bytes.Buffer
	line := func(chip, name string, p *isa.Program) {
		fmt.Fprintf(&buf, "%s %s %d %s\n", chip, name, p.Len(), p.Fingerprint())
	}
	chips := []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()}
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, chip := range chips {
		for _, n := range names {
			k := reg[n]
			for _, v := range []struct {
				tag  string
				opts kernels.Options
			}{{"baseline", k.Baseline()}, {"optimized", kernels.FullyOptimized(k)}} {
				p, err := k.Build(chip, v.opts)
				if err != nil {
					fmt.Fprintf(&buf, "%s %s/%s error\n", chip.Name, n, v.tag)
					continue
				}
				line(chip.Name, n+"/"+v.tag, p)
			}
		}
		for seed := int64(1); seed <= 4; seed++ {
			p := check.GenProgram(chip, rand.New(rand.NewSource(seed)), 50*int(seed)*int(seed))
			line(chip.Name, fmt.Sprintf("gen/seed%d", seed), p)
		}
	}
	// Every field the encoding covers, including labels, barrier
	// scopes and empty names.
	hand := &isa.Program{}
	hand.Append(
		isa.Transfer(hw.Path{Src: hw.GM, Dst: hw.UB}, 0, 64, 4096),
		isa.ComputeRepeat(hw.Vector, hw.FP16, 2048, 8),
		isa.SetFlag(hw.CompVector, hw.CompMTEUB, 3),
		isa.WaitFlag(hw.CompVector, hw.CompMTEUB, 3),
		isa.BarrierPipeInstr(hw.CompCube),
		isa.BarrierAllInstr(),
	)
	hand.Instrs[1].Label = "relu ×8"
	line("-", "hand/unnamed", hand)

	got := buf.Bytes()
	golden := filepath.Join("testdata", "fingerprints.golden")
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
				t.Fatalf("fingerprints drifted from %s at line %d:\n got: %s\nwant: %s", golden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("fingerprints drifted from %s: %d lines, want %d", golden, len(gl), len(wl))
	}
}

// BenchmarkFingerprint hashes a generated program of 2000 instructions
// from scratch each iteration (a fresh Program, so the memo never hits).
func BenchmarkFingerprint(b *testing.B) {
	src := check.GenProgram(hw.TrainingChip(), rand.New(rand.NewSource(1)), 2000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p := &isa.Program{Name: src.Name, Instrs: src.Instrs}
		_ = p.Fingerprint()
	}
}
