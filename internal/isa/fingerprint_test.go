package isa_test

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestFingerprintGolden pins Program.Fingerprint values: SHA-256 over
// the compact encoding (name, instruction count, then per instruction
// its kind, a presence mask and the non-zero fields as varints; see
// Fingerprint). Fingerprints key the episode store on disk, so any
// change to the encoding orphans every episode written before it: a
// drift here must be deliberate (re-bless with
// `go test -run FingerprintGolden -update`), documented as an
// episode-format change, and paired with a new episode schema
// (internal/opt/episodic.go) so stored episodes miss cleanly.
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
	hand.AppendTransfer(hw.Path{Src: hw.GM, Dst: hw.UB}, 0, 64, 4096)
	hand.Append(
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
// It reports the time per instruction and the encoded bytes hashed per
// instruction.
func BenchmarkFingerprint(b *testing.B) {
	src := check.GenProgram(hw.TrainingChip(), rand.New(rand.NewSource(1)), 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = isa.Alias(src).Fingerprint()
	}
	n := float64(src.Len())
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/instr")
	b.ReportMetric(float64(len(isa.Encode(src)))/n, "B/instr")
}

// mutateLeaf changes the leaf'th mutable leaf reachable from v (exported
// fields of structs, elements of slices, and each slice itself, which
// grows by one zero element) and reports whether v had that many leaves,
// with the path it changed. Every exported leaf of isa.Instr is reached,
// so a field added later is mutated too; a field of a kind it cannot
// change fails the test instead of going unchecked. Instr's unexported
// fields address its regions in the program's arena (TestInstrLayout);
// the regions themselves are mutated through instrRegions.
func mutateLeaf(t *testing.T, v reflect.Value, path string, leaf *int) (string, bool) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if !v.Type().Field(i).IsExported() {
				continue
			}
			if p, ok := mutateLeaf(t, v.Field(i), path+"."+v.Type().Field(i).Name, leaf); ok {
				return p, true
			}
		}
		return "", false
	case reflect.Slice:
		if *leaf == 0 {
			v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
			return path + "[+]", true
		}
		*leaf--
		for i := 0; i < v.Len(); i++ {
			if p, ok := mutateLeaf(t, v.Index(i), fmt.Sprintf("%s[%d]", path, i), leaf); ok {
				return p, true
			}
		}
		return "", false
	}
	if *leaf > 0 {
		*leaf--
		return "", false
	}
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Float32, reflect.Float64:
		v.SetFloat(v.Float() + 1)
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.String:
		v.SetString(v.String() + "'")
	default:
		t.Fatalf("%s: cannot mutate a %s field", path, v.Kind())
	}
	return path, true
}

// instrRegions is one instruction with copies of its arena regions: the
// value TestEqualCoversEveryField mutates.
type instrRegions struct {
	Instr         isa.Instr
	Reads, Writes []isa.Region
}

// TestEqualCoversEveryField mutates one leaf of one instruction at a
// time, its regions in the arena included, in a copy of a registry
// program and requires both Equal and Fingerprint to tell the copy from
// the original.
func TestEqualCoversEveryField(t *testing.T) {
	chip := hw.TrainingChip()
	k := kernels.Registry()["add_relu"]
	build := func() *isa.Program {
		p, err := k.Build(chip, k.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	orig := build()
	at := -1
	for i := range orig.Instrs {
		if len(orig.Reads(i)) > 0 && len(orig.Writes(i)) > 0 {
			at = i
			break
		}
	}
	if at < 0 {
		t.Fatal("no instruction with both reads and writes")
	}
	mutated := 0
	for leaf := 0; ; leaf++ {
		w := instrRegions{orig.Instrs[at], slices.Clone(orig.Reads(at)), slices.Clone(orig.Writes(at))}
		n := leaf
		path, ok := mutateLeaf(t, reflect.ValueOf(&w).Elem(), "", &n)
		if !ok {
			break
		}
		mutated++
		p := &isa.Program{Name: orig.Name}
		for i := range orig.Instrs {
			if i == at {
				p.AppendWith(w.Instr, w.Reads, w.Writes)
			} else {
				p.AppendFrom(orig, i)
			}
		}
		if p.Equal(orig) || orig.Equal(p) {
			t.Errorf("%s changed but Equal still holds", path)
		}
		if p.Fingerprint() == orig.Fingerprint() {
			t.Errorf("%s changed but Fingerprint did not", path)
		}
	}
	// Every exported field of Instr, and each of the two region lists
	// (grown, plus a region's three fields), at the least.
	fields := 0
	for _, f := range reflect.VisibleFields(reflect.TypeOf(isa.Instr{})) {
		if f.IsExported() {
			fields++
		}
	}
	if want := fields + 2*(1+3); mutated < want {
		t.Fatalf("mutated %d leaves, fewer than %d", mutated, want)
	}
	renamed := build()
	renamed.Name += "'"
	if renamed.Equal(orig) {
		t.Error("programs with different names are Equal")
	}
	if !build().Equal(orig) {
		t.Error("two builds of one program are not Equal")
	}
}

// TestEqualAgreesWithFingerprint compares every pair drawn from two
// separate builds of the registry corpus (every kernel, baseline and
// optimized, on the three preset chips): Equal must hold exactly when
// the fingerprints match.
func TestEqualAgreesWithFingerprint(t *testing.T) {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	buildAll := func() []*isa.Program {
		var out []*isa.Program
		for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
			for _, n := range names {
				k := reg[n]
				for _, opts := range []kernels.Options{k.Baseline(), kernels.FullyOptimized(k)} {
					p, err := k.Build(chip, opts)
					if err != nil {
						t.Fatalf("%s on %s: %v", n, chip.Name, err)
					}
					out = append(out, p)
				}
			}
		}
		return out
	}
	a, b := buildAll(), buildAll()
	equal := 0
	for i, p := range a {
		for j, q := range b {
			same := p.Fingerprint() == q.Fingerprint()
			if p.Equal(q) != same {
				t.Fatalf("%s #%d vs %s #%d: Equal %v, fingerprints equal %v", p.Name, i, q.Name, j, !same, same)
			}
			if same {
				equal++
			}
		}
	}
	if equal < len(a) {
		t.Fatalf("%d equal pairs, fewer than the %d programs built twice", equal, len(a))
	}
	t.Logf("%d programs, %d equal pairs", len(a), equal)
}
