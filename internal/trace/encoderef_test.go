package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/critpath"
	"ascendperf/internal/graph"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// refWriteDocument is the encoder writeDocument replaced: encoding/json
// with a one-space indent. It is the reference the append encoder is
// held to byte for byte.
func refWriteDocument(w io.Writer, doc *Document) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}

// matchReference encodes doc with both encoders and fails on any byte
// difference, reporting the first one with context.
func matchReference(t testing.TB, what string, doc *Document) {
	t.Helper()
	var got, want bytes.Buffer
	err := writeDocument(&got, doc)
	refErr := refWriteDocument(&want, doc)
	if (err == nil) != (refErr == nil) {
		t.Fatalf("%s: encoder error %v, reference error %v", what, err, refErr)
	}
	if err != nil {
		return
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: output diverges from encoding/json at byte %d of %d/%d:\n got  %q\n want %q",
			what, i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// tracedDoc simulates prog with spans and builds its trace document with
// the critical-path overlay, the form /v1/trace serves.
func tracedDoc(t testing.TB, chip *hw.Chip, prog *isa.Program) *Document {
	t.Helper()
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := critpath.Compute(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := New(chip, prog, p, Options{CritPath: cp})
	if err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestWriteMatchesReference holds the append encoder to encoding/json
// on every kind of document the repository emits, plus hand-built
// documents aimed at the escaping and number-format rules.
func TestWriteMatchesReference(t *testing.T) {
	chips := []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()}
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, chip := range chips {
		for _, name := range names {
			k := reg[name]
			prog, err := k.Build(chip, k.Baseline())
			if err != nil {
				t.Fatal(err)
			}
			matchReference(t, name+" on "+chip.Name, tracedDoc(t, chip, prog))
		}
	}

	chip := hw.TrainingChip()
	for _, n := range []int{200, 2000, 4000} {
		for seed := int64(1); seed <= 3; seed++ {
			prog := check.GenProgram(chip, rand.New(rand.NewSource(seed)), n)
			matchReference(t, fmt.Sprintf("generated n=%d seed=%d", n, seed), tracedDoc(t, chip, prog))
		}
	}

	for _, m := range model.Extended() {
		s, err := graph.Run(chip, m, graph.Options{Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		matchReference(t, "graph "+m.Name, NewGraph(s))
	}

	dur := 1e-7
	labels := []string{
		`quote " backslash \ <tag> & amp`,
		"control \x00\x01\b\f\n\r\t\x1f\x7f end",
		"separators \u2028 and \u2029",
		"invalid \xff\xfe utf8 \xe2\x80 cut",
		"multi-byte 漢字 é \U0001F600",
		"",
	}
	times := []float64{0, -0.0, 1e-7, 9.99e-7, 1e-6, 0.5, 123.456, 1e20, 1e21, 1.5e300, -2.5e-8, -1e21, math.SmallestNonzeroFloat64}
	for i, label := range labels {
		doc := &Document{
			DisplayTimeUnit: label,
			OtherData:       map[string]any{label: label, "n": int64(-7), "b": false, "f": times[i]},
		}
		for j, ts := range times {
			doc.TraceEvents = append(doc.TraceEvents, Event{
				Name: label, Cat: label, Ph: "X", TS: ts, Dur: &dur, PID: j, TID: -j, ID: j - 3,
				BP: label, Scope: label, CName: label,
				Args: map[string]any{label: ts, "z": j, "a": label, "<": true},
			})
		}
		matchReference(t, fmt.Sprintf("hand-built label %d", i), doc)
	}
	for _, doc := range []*Document{
		{},
		{TraceEvents: []Event{}, OtherData: map[string]any{}},
		{TraceEvents: []Event{{Name: "x", Args: map[string]any{}}}},
	} {
		matchReference(t, "empty containers", doc)
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		matchReference(t, "non-finite", &Document{TraceEvents: []Event{{Name: "x", TS: bad}}})
	}
}

// FuzzWriteLabel differentially checks string escaping and number
// formatting: a fuzzed label lands in every string position of a
// document (names, map keys, values) and a fuzzed time in every number
// position, and both encoders must agree byte for byte.
func FuzzWriteLabel(f *testing.F) {
	f.Add("load-x", 1.5)
	f.Add("a<b>&c\u2028d\u2029e", 1e-7)
	f.Add("bad \xff utf8 \x00 \"q\" \\", 1e21)
	f.Add("", -0.0)
	f.Fuzz(func(t *testing.T, label string, ts float64) {
		doc := &Document{
			DisplayTimeUnit: label,
			OtherData:       map[string]any{label: ts, "program": label},
			TraceEvents: []Event{{
				Name: label, Cat: label, Ph: "X", TS: ts, Dur: &ts, TID: 1,
				Args: map[string]any{label: label, "index": 3, "t": ts},
			}},
		}
		matchReference(t, "fuzz", doc)
	})
}

// genTraceInput is the benchmark input: a generated 4000-instruction
// program's schedule with its critical path.
func genTraceInput(tb testing.TB) (*hw.Chip, *isa.Program, Options, *Document) {
	chip := hw.TrainingChip()
	prog := check.GenProgram(chip, rand.New(rand.NewSource(1)), 4000)
	p, err := sim.Run(chip, prog)
	if err != nil {
		tb.Fatal(err)
	}
	cp, err := critpath.Compute(chip, prog, p)
	if err != nil {
		tb.Fatal(err)
	}
	opts := Options{CritPath: cp}
	doc, err := New(chip, prog, p, opts)
	if err != nil {
		tb.Fatal(err)
	}
	return chip, prog, opts, doc
}

// BenchmarkTraceWrite builds and encodes the trace of a generated
// 4000-instruction program with the critical-path overlay: trace.Write
// as /v1/trace calls it.
func BenchmarkTraceWrite(b *testing.B) {
	chip, prog, opts, _ := genTraceInput(b)
	p, err := sim.Run(chip, prog)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := Write(io.Discard, chip, prog, p, opts); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWriteAllocs caps the allocations of both encoders. writeDocument
// makes one output buffer, plus one regrowth if the size estimate falls
// short. Write makes a fixed handful (the buffer and its per-program
// tables) that does not grow with the program: at most 40 on the
// 4000-instruction benchmark input, and no more there than on a
// 200-instruction program.
func TestWriteAllocs(t *testing.T) {
	chip, prog, opts, doc := genTraceInput(t)
	allocs := testing.AllocsPerRun(5, func() {
		if err := writeDocument(io.Discard, doc); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("encoding a %d-event trace makes %.0f allocations, want at most 2", len(doc.TraceEvents), allocs)
	}

	writeAllocs := func(prog *isa.Program, opts Options) float64 {
		p, err := sim.Run(chip, prog)
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if err := Write(io.Discard, chip, prog, p, opts); err != nil {
				t.Fatal(err)
			}
		})
	}
	long := writeAllocs(prog, opts)
	if long > 40 {
		t.Errorf("writing the trace of %d instructions makes %.0f allocations, want at most 40", prog.Len(), long)
	}
	small := check.GenProgram(chip, rand.New(rand.NewSource(1)), 200)
	cp, err := critpath.Compute(chip, small, mustRun(t, chip, small))
	if err != nil {
		t.Fatal(err)
	}
	if short := writeAllocs(small, Options{CritPath: cp}); long > short {
		t.Errorf("writing a trace makes %.0f allocations at %d instructions but %.0f at %d: allocations grow with the program",
			long, prog.Len(), short, small.Len())
	}
}

func mustRun(t testing.TB, chip *hw.Chip, prog *isa.Program) *profile.Profile {
	t.Helper()
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// matchNew fails unless Write's bytes for the schedule equal
// encoding/json's encoding of New's document, or both fail with the
// same error.
func matchNew(t testing.TB, what string, chip *hw.Chip, prog *isa.Program, p *profile.Profile, opts Options) {
	t.Helper()
	var got, want bytes.Buffer
	err := Write(&got, chip, prog, p, opts)
	doc, refErr := New(chip, prog, p, opts)
	if refErr == nil {
		refErr = refWriteDocument(&want, doc)
	}
	if (err == nil) != (refErr == nil) || err != nil && err.Error() != refErr.Error() {
		t.Fatalf("%s: Write error %v, reference error %v", what, err, refErr)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		g, w := got.Bytes(), want.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		lo := max(i-80, 0)
		t.Fatalf("%s: Write diverges from New + encoding/json at byte %d of %d/%d:\n got  %q\n want %q",
			what, i, len(g), len(w), g[lo:min(i+80, len(g))], w[lo:min(i+80, len(w))])
	}
}

// TestWriteMatchesNew holds the streaming writer to the document
// builder it replaced: every registry kernel, baseline and fully
// optimized, on every preset, and generated programs with labels, each
// with and without the critical-path overlay; and the error on a
// profile without spans.
func TestWriteMatchesNew(t *testing.T) {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	both := func(what string, chip *hw.Chip, prog *isa.Program) {
		p := mustRun(t, chip, prog)
		matchNew(t, what, chip, prog, p, Options{})
		cp, err := critpath.Compute(chip, prog, p)
		if err != nil {
			t.Fatal(err)
		}
		matchNew(t, what+" with critical path", chip, prog, p, Options{CritPath: cp})
	}
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, name := range names {
			k := reg[name]
			for _, opts := range []kernels.Options{k.Baseline(), kernels.FullyOptimized(k)} {
				prog, err := k.Build(chip, opts)
				if err != nil {
					continue
				}
				both(fmt.Sprintf("%s %v on %s", name, opts, chip.Name), chip, prog)
			}
		}
	}
	chip := hw.TrainingChip()
	for _, n := range []int{1, 200, 4000} {
		for seed := int64(1); seed <= 3; seed++ {
			prog := check.GenProgram(chip, rand.New(rand.NewSource(seed)), n)
			for i := range prog.Instrs {
				prog.Instrs[i].Label = []string{"", "load <a> & \"b\"", "", "\u2028x\xff"}[i%4]
			}
			both(fmt.Sprintf("generated n=%d seed=%d", n, seed), chip, prog)
		}
	}
	prog := check.GenProgram(chip, rand.New(rand.NewSource(1)), 50)
	spanless, err := sim.RunOpts(chip, prog, sim.Options{})
	if err != nil {
		t.Fatal(err)
	}
	matchNew(t, "span-less profile", chip, prog, spanless, Options{})
	matchNew(t, "no profile", chip, prog, nil, Options{})
	matchNew(t, "empty program", chip, &isa.Program{Name: "empty"}, spanless, Options{})
}

// FuzzTraceWrite: for a generated program of a fuzzed seed and length,
// labelled and named with a fuzzed label, Write's bytes equal
// encoding/json's encoding of New's document, with and without the
// critical-path overlay.
func FuzzTraceWrite(f *testing.F) {
	f.Add(int64(1), 40, "load-x")
	f.Add(int64(7), 300, "")
	f.Add(int64(3), 1, "a<b>&c\u2028d \xff")
	chip := hw.TrainingChip()
	f.Fuzz(func(t *testing.T, seed int64, n int, label string) {
		n = 1 + (n%300+300)%300
		prog := check.GenProgram(chip, rand.New(rand.NewSource(seed)), n)
		prog.Name = label
		for i := range prog.Instrs {
			if i%3 == 0 {
				prog.Instrs[i].Label = label
			}
		}
		p := mustRun(t, chip, prog)
		matchNew(t, "fuzz", chip, prog, p, Options{})
		cp, err := critpath.Compute(chip, prog, p)
		if err != nil {
			t.Fatal(err)
		}
		matchNew(t, "fuzz with critical path", chip, prog, p, Options{CritPath: cp})
	})
}
