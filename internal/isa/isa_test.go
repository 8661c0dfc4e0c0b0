package isa

import (
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"unsafe"

	"ascendperf/internal/hw"
)

func TestRegionOverlaps(t *testing.T) {
	a := Region{hw.UB, 0, 100}
	cases := []struct {
		b    Region
		want bool
	}{
		{Region{hw.UB, 50, 100}, true},
		{Region{hw.UB, 100, 10}, false},  // adjacent, not overlapping
		{Region{hw.UB, 99, 1}, true},     // last byte
		{Region{hw.GM, 0, 100}, false},   // different level
		{Region{hw.UB, 10, 0}, false},    // zero size
		{Region{hw.UB, -50, 60}, true},   // partial from below
		{Region{hw.UB, 0, 100}, true},    // identical
		{Region{hw.UB, 200, 100}, false}, // disjoint
	}
	for _, c := range cases {
		if got := a.Overlaps(c.b); got != c.want {
			t.Errorf("%v.Overlaps(%v) = %v, want %v", a, c.b, got, c.want)
		}
		if got := c.b.Overlaps(a); got != c.want {
			t.Errorf("overlap not symmetric for %v, %v", a, c.b)
		}
	}
}

// Property: overlap is symmetric and irreflexive only for empty regions.
func TestRegionOverlapProperties(t *testing.T) {
	f := func(o1, o2 int16, s1, s2 uint8) bool {
		a := Region{hw.UB, int64(o1), int64(s1)}
		b := Region{hw.UB, int64(o2), int64(s2)}
		if a.Overlaps(b) != b.Overlaps(a) {
			return false
		}
		if s1 > 0 && !a.Overlaps(a) {
			return false // non-empty region overlaps itself
		}
		if s1 == 0 && a.Overlaps(a) {
			return false // empty region overlaps nothing
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestConstructors(t *testing.T) {
	c := Compute(hw.Vector, hw.FP16, 1024)
	if c.Kind != KindCompute || c.Ops != 1024 || c.EffRepeat() != 1 {
		t.Errorf("Compute constructor: %+v", c)
	}
	cr := ComputeRepeat(hw.Vector, hw.FP16, 1024, 8)
	if cr.EffRepeat() != 8 {
		t.Errorf("repeat = %d, want 8", cr.EffRepeat())
	}
	zero := Instr{Kind: KindCompute}
	if zero.EffRepeat() != 1 {
		t.Error("zero repeat must be treated as 1")
	}

	p := &Program{}
	p.AppendTransfer(hw.PathGMToUB, 100, 200, 50)
	if tr := p.Instrs[0]; tr.Kind != KindTransfer || tr.Bytes != 50 || tr.Path != hw.PathGMToUB {
		t.Errorf("AppendTransfer: %+v", tr)
	}
	if rs := p.Reads(0); len(rs) != 1 || rs[0] != (Region{hw.GM, 100, 50}) {
		t.Errorf("transfer reads: %v", rs)
	}
	if ws := p.Writes(0); len(ws) != 1 || ws[0] != (Region{hw.UB, 200, 50}) {
		t.Errorf("transfer writes: %v", ws)
	}

	sf := SetFlag(hw.CompMTEGM, hw.CompVector, 3)
	wf := WaitFlag(hw.CompMTEGM, hw.CompVector, 3)
	if sf.Kind != KindSetFlag || wf.Kind != KindWaitFlag {
		t.Error("flag constructors")
	}
}

func TestComponentRouting(t *testing.T) {
	chip := hw.TrainingChip()
	cases := []struct {
		in   Instr
		want hw.Component
	}{
		{Compute(hw.Cube, hw.FP16, 1), hw.CompCube},
		{Compute(hw.Vector, hw.FP32, 1), hw.CompVector},
		{Compute(hw.Scalar, hw.INT32, 1), hw.CompScalar},
		{Instr{Kind: KindTransfer, Path: hw.PathGMToUB, Bytes: 1}, hw.CompMTEGM},
		{Instr{Kind: KindTransfer, Path: hw.PathL1ToL0A, Bytes: 1}, hw.CompMTEL1},
		{Instr{Kind: KindTransfer, Path: hw.PathUBToGM, Bytes: 1}, hw.CompMTEUB},
		{SetFlag(hw.CompMTEGM, hw.CompVector, 0), hw.CompMTEGM},
		{WaitFlag(hw.CompMTEGM, hw.CompVector, 0), hw.CompVector},
		{BarrierAllInstr(), hw.CompScalar},
		{BarrierPipeInstr(hw.CompVector), hw.CompVector},
	}
	for _, c := range cases {
		got, ok := c.in.Component(chip)
		if !ok || got != c.want {
			t.Errorf("%+v routed to %s (ok=%v), want %s", c.in, got, ok, c.want)
		}
	}
	bad := Instr{Kind: KindTransfer, Path: hw.Path{Src: hw.L0C, Dst: hw.GM}, Bytes: 1}
	if _, ok := bad.Component(chip); ok {
		t.Error("illegal path should not route")
	}
}

func TestDisassembly(t *testing.T) {
	p := &Program{Name: "demo"}
	p.Append(Compute(hw.Cube, hw.FP16, 4096))
	p.AppendTransfer(hw.PathGMToL1, 0, 0, 1024)
	p.Append(
		SetFlag(hw.CompMTEGM, hw.CompCube, 1),
		WaitFlag(hw.CompMTEGM, hw.CompCube, 1),
		BarrierAllInstr(),
		BarrierPipeInstr(hw.CompVector),
	)
	p.Instrs[0].Label = "mad"
	d := p.Disassemble()
	for _, want := range []string{
		"program demo (6 instructions)",
		"Cube.FP16 ops=4096 repeat=1 ; mad",
		"copy GM->L1 bytes=1024",
		"set_flag MTE-GM->Cube ev=1",
		"wait_flag MTE-GM->Cube ev=1",
		"pipe_barrier(PIPE_ALL)",
		"pipe_barrier(Vector)",
	} {
		if !strings.Contains(d, want) {
			t.Errorf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestKindString(t *testing.T) {
	for k, want := range map[Kind]string{
		KindCompute: "compute", KindTransfer: "transfer",
		KindSetFlag: "set_flag", KindWaitFlag: "wait_flag", KindBarrier: "pipe_barrier",
	} {
		if k.String() != want {
			t.Errorf("Kind %d = %q, want %q", int(k), k.String(), want)
		}
	}
	if Kind(42).String() != "Kind(42)" {
		t.Error("unknown kind formatting")
	}
}

func TestValidateAcceptsLegalProgram(t *testing.T) {
	chip := hw.TrainingChip()
	p := &Program{Name: "legal"}
	p.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	p.Append(
		SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		Compute(hw.Vector, hw.FP16, 2048),
	)
	p.AppendTransfer(hw.PathUBToGM, 0, 4096, 4096)
	p.Append(BarrierAllInstr())
	if err := p.Validate(chip); err != nil {
		t.Fatalf("legal program rejected: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	chip := hw.TrainingChip()
	one := func(in Instr) func(*Program) { return func(p *Program) { p.Append(in) } }
	transfer := func(path hw.Path, src, dst, size int64) func(*Program) {
		return func(p *Program) { p.AppendTransfer(path, src, dst, size) }
	}
	cases := []struct {
		name string
		add  func(*Program)
	}{
		{"unsupported precision", one(Compute(hw.Cube, hw.FP64, 10))},
		{"non-positive ops", one(Compute(hw.Vector, hw.FP16, 0))},
		{"illegal path", transfer(hw.Path{Src: hw.L0C, Dst: hw.GM}, 0, 0, 10)},
		{"non-positive bytes", transfer(hw.PathGMToUB, 0, 0, 0)},
		{"self flag", one(SetFlag(hw.CompVector, hw.CompVector, 0))},
		{"oversized region", transfer(hw.PathGMToUB, 0, 1<<30, 4096)},
		{"negative offset", transfer(hw.PathGMToUB, -4, 0, 4096)},
	}
	for _, c := range cases {
		p := &Program{Name: c.name}
		c.add(p)
		if err := p.Validate(chip); err == nil {
			t.Errorf("%s: expected validation error", c.name)
		}
	}
}

func TestValidateUnmatchedWait(t *testing.T) {
	chip := hw.TrainingChip()
	p := &Program{Name: "orphan-wait"}
	p.Append(WaitFlag(hw.CompMTEGM, hw.CompVector, 7))
	if err := p.Validate(chip); err == nil {
		t.Fatal("expected error for wait without set")
	}
	p2 := &Program{Name: "matched"}
	p2.Append(
		SetFlag(hw.CompMTEGM, hw.CompVector, 7),
		WaitFlag(hw.CompMTEGM, hw.CompVector, 7),
	)
	if err := p2.Validate(chip); err != nil {
		t.Fatalf("matched flags rejected: %v", err)
	}
}

func TestStats(t *testing.T) {
	p := &Program{Name: "stats"}
	p.Append(
		Compute(hw.Vector, hw.FP16, 100),
		Compute(hw.Vector, hw.FP16, 200),
	)
	p.AppendTransfer(hw.PathGMToUB, 0, 0, 1000)
	p.Append(
		SetFlag(hw.CompMTEGM, hw.CompVector, 0),
		WaitFlag(hw.CompMTEGM, hw.CompVector, 0),
		BarrierAllInstr(),
	)
	s := p.Stat()
	if s.Total != 6 || s.Computes != 2 || s.Transfers != 1 || s.Syncs != 2 || s.Barriers != 1 {
		t.Errorf("stats counts wrong: %+v", s)
	}
	if s.Ops != 300 || s.Bytes != 1000 {
		t.Errorf("stats sums wrong: %+v", s)
	}
}

func TestProgramIntensity(t *testing.T) {
	p := &Program{Name: "ai"}
	p.Append(Compute(hw.Cube, hw.FP16, 8000))
	p.AppendTransfer(hw.PathGMToL1, 0, 0, 1000)    // GM byte
	p.AppendTransfer(hw.PathL1ToL0A, 0, 0, 1000)   // on-chip: excluded
	p.AppendTransfer(hw.PathUBToGM, 0, 4096, 1000) // GM byte
	if got := p.Intensity(); got != 4 {
		t.Errorf("intensity = %v, want 4", got)
	}
	empty := &Program{Name: "none"}
	empty.Append(Compute(hw.Vector, hw.FP16, 10))
	if empty.Intensity() != 0 {
		t.Error("no GM traffic must give zero intensity")
	}
}

// TestInstrLayout pins the compact layout: an Instr fits in 64 bytes,
// its only pointer-bearing field is Label, its only unexported fields
// are the three arena addresses of its regions, and a Region holds no
// pointers, so a program's region arena is never scanned by the
// collector.
func TestInstrLayout(t *testing.T) {
	if size := unsafe.Sizeof(Instr{}); size > 64 {
		t.Errorf("Instr is %d bytes, want at most 64", size)
	}
	it := reflect.TypeOf(Instr{})
	var pointers, unexported []string
	for i := 0; i < it.NumField(); i++ {
		f := it.Field(i)
		if hasPointers(f.Type) {
			pointers = append(pointers, f.Name)
		}
		if !f.IsExported() {
			unexported = append(unexported, f.Name)
		}
	}
	if !slices.Equal(pointers, []string{"Label"}) {
		t.Errorf("pointer-bearing Instr fields %v, want [Label]", pointers)
	}
	if !slices.Equal(unexported, []string{"reg", "nReads", "nWrites"}) {
		t.Errorf("unexported Instr fields %v, want the region addresses [reg nReads nWrites]", unexported)
	}
	if hasPointers(reflect.TypeOf(Region{})) {
		t.Error("Region holds a pointer")
	}
}

// hasPointers reports whether a value of type t contains a pointer word.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return false
	case reflect.Array:
		return t.Len() > 0 && hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	}
	return true // string, slice, map, pointer, interface, chan, func
}

// TestAppendAttachesNoRegions: an instruction copied from one program
// into another by plain Append has no regions there, whatever arena
// address it carried; AppendFrom carries the regions themselves over,
// into the destination's own arena.
func TestAppendAttachesNoRegions(t *testing.T) {
	src := &Program{Name: "src"}
	src.Append(Compute(hw.Scalar, hw.INT32, 1))
	src.AppendTransfer(hw.PathGMToUB, 64, 128, 32)
	src.AppendWith(Compute(hw.Vector, hw.FP16, 8),
		[]Region{{hw.UB, 0, 8}, {hw.UB, 16, 8}}, []Region{{hw.UB, 32, 8}})

	plain := &Program{Name: "dst"}
	plain.Append(src.Instrs...)
	for i := range plain.Instrs {
		if len(plain.Reads(i)) != 0 || len(plain.Writes(i)) != 0 {
			t.Errorf("Append: instr %d has regions %v %v", i, plain.Reads(i), plain.Writes(i))
		}
	}

	dst := &Program{Name: "src"}
	dst.AppendWith(Compute(hw.Cube, hw.FP16, 1), []Region{{hw.L0A, 0, 4}}, nil)
	for i := range src.Instrs {
		dst.AppendFrom(src, i)
	}
	for i := range src.Instrs {
		if !dst.InstrEqual(i+1, &src.Instrs[i], src.Reads(i), src.Writes(i)) {
			t.Errorf("AppendFrom: instr %d is %s, want %s", i, dst.InstrString(i+1), src.InstrString(i))
		}
	}
	// The copies live in dst's arena: changing src's regions leaves them.
	src.Reads(2)[0].Off = 999
	if dst.Reads(3)[0].Off != 0 {
		t.Error("AppendFrom shares the source program's arena")
	}
	// A region list returned by Reads is capped: appending to it cannot
	// overwrite the writes that follow it in the arena.
	_ = append(dst.Reads(3), Region{hw.UB, 7, 7})
	if w := dst.Writes(3); len(w) != 1 || w[0] != (Region{hw.UB, 32, 8}) {
		t.Errorf("append to Reads overwrote Writes: %v", w)
	}
}

// TestCloneAndReset: Clone copies both arrays at their exact length, so
// appending to the clone leaves the original; Reset keeps capacity and
// drops every instruction, region and label.
func TestCloneAndReset(t *testing.T) {
	p := &Program{Name: "p"}
	p.AppendTransfer(hw.PathGMToUB, 0, 0, 8)
	p.Instrs[0].Label = "load"
	fp := p.Fingerprint()
	q := p.Clone()
	if !q.Equal(p) || cap(q.Instrs) != 1 {
		t.Fatalf("clone %s (cap %d), want %s at cap 1", q.Disassemble(), cap(q.Instrs), p.Disassemble())
	}
	q.AppendTransfer(hw.PathUBToGM, 0, 0, 8)
	if p.Len() != 1 || p.Fingerprint() != fp {
		t.Error("appending to a clone changed the original")
	}
	c := cap(p.Instrs)
	p.Reset("r")
	if p.Name != "r" || p.Len() != 0 || cap(p.Instrs) != c || p.Instrs[:1][0].Label != "" {
		t.Errorf("Reset left name %q, %d instrs, cap %d (want %d), label %q", p.Name, p.Len(), cap(p.Instrs), c, p.Instrs[:1][0].Label)
	}
	p.Append(BarrierAllInstr())
	if len(p.Reads(0)) != 0 || p.Fingerprint() == fp {
		t.Error("a reset program kept its old regions or fingerprint")
	}
}
