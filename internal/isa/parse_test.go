package isa

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ascendperf/internal/hw"
)

func TestParseBasicProgram(t *testing.T) {
	src := `
; a hand-written pipeline
copy GM->UB bytes=4096 reads=GM[0:4096) writes=UB[0:4096) ; load
set_flag MTE-GM->Vector ev=0
wait_flag MTE-GM->Vector ev=0
Vector.FP16 ops=2048 repeat=1 reads=UB[0:4096) writes=UB[4096:8192) ; compute
pipe_barrier(PIPE_ALL)
copy UB->GM bytes=4096 reads=UB[4096:8192) writes=GM[65536:69632)
pipe_barrier(Vector)
`
	prog, err := Parse("hand", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if prog.Len() != 7 {
		t.Fatalf("instructions = %d, want 7", prog.Len())
	}
	if prog.Instrs[0].Label != "load" || prog.Instrs[3].Label != "compute" {
		t.Error("labels lost")
	}
	if prog.Instrs[0].Path != hw.PathGMToUB || prog.Instrs[0].Bytes != 4096 {
		t.Errorf("transfer wrong: %+v", prog.Instrs[0])
	}
	if prog.Instrs[3].Unit != hw.Vector || prog.Instrs[3].Ops != 2048 {
		t.Errorf("compute wrong: %+v", prog.Instrs[3])
	}
	if prog.Instrs[4].Scope != BarrierAll {
		t.Error("PIPE_ALL barrier wrong")
	}
	if prog.Instrs[6].Scope != BarrierPipe || prog.Instrs[6].Pipe != hw.CompVector {
		t.Error("pipe barrier wrong")
	}
	if err := prog.Validate(hw.TrainingChip()); err != nil {
		t.Fatal(err)
	}
}

func TestParseDefaultsRegions(t *testing.T) {
	prog, err := Parse("d", strings.NewReader("copy GM->L1 bytes=1024"))
	if err != nil {
		t.Fatal(err)
	}
	if rs := prog.Reads(0); len(rs) != 1 || rs[0] != (Region{hw.GM, 0, 1024}) {
		t.Errorf("default read region wrong: %v", rs)
	}
	if ws := prog.Writes(0); len(ws) != 1 || ws[0] != (Region{hw.L1, 0, 1024}) {
		t.Errorf("default write region wrong: %v", ws)
	}
}

// TestParseRegionListOrder: a line may give writes before reads, repeat
// a list (the last one wins) or give only one list of a copy; each
// instruction still gets exactly its own final lists, and its
// neighbours' lists are untouched.
func TestParseRegionListOrder(t *testing.T) {
	var many []string
	var want []Region
	for k := int64(0); k < 12; k++ {
		many = append(many, fmt.Sprintf("UB[%d:%d)", 16*k, 16*k+8))
		want = append(want, Region{hw.UB, 16 * k, 8})
	}
	src := strings.Join([]string{
		"Vector.FP16 ops=1 reads=UB[0:8) writes=UB[8:16)",
		"Vector.FP16 ops=1 writes=UB[16:24) reads=UB[24:32),UB[32:40)",
		"Vector.FP16 ops=1 reads=UB[40:48) writes=UB[48:56) reads=UB[56:64)",
		"copy GM->UB bytes=8 writes=UB[64:72)",
		"Vector.FP16 ops=1 writes=" + strings.Join(many, ",") + " reads=UB[1000:1008)",
		"Vector.FP16 ops=1 reads=UB[72:80)",
	}, "\n")
	prog, err := ParseString("order", src)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ reads, writes []Region }{
		{[]Region{{hw.UB, 0, 8}}, []Region{{hw.UB, 8, 8}}},
		{[]Region{{hw.UB, 24, 8}, {hw.UB, 32, 8}}, []Region{{hw.UB, 16, 8}}},
		{[]Region{{hw.UB, 56, 8}}, []Region{{hw.UB, 48, 8}}},
		{[]Region{{hw.GM, 0, 8}}, []Region{{hw.UB, 64, 8}}},
		{[]Region{{hw.UB, 1000, 8}}, want},
		{[]Region{{hw.UB, 72, 8}}, nil},
	}
	for i, c := range cases {
		if got := prog.Reads(i); !slices.Equal(got, c.reads) {
			t.Errorf("instr %d reads %v, want %v", i, got, c.reads)
		}
		if got := prog.Writes(i); !slices.Equal(got, c.writes) {
			t.Errorf("instr %d writes %v, want %v", i, got, c.writes)
		}
	}
	ref, err := refParse("order", strings.NewReader(src))
	if err != nil {
		t.Fatal(err)
	}
	if !prog.Equal(ref) {
		t.Error("parser and reference programs differ")
	}
}

// sameInstr reports whether instruction i of p and of q agree on every
// field and region, reading a zero repeat as 1. It compares the structs
// whole (arena addresses aside), independently of InstrEqual.
func sameInstr(p, q *Program, i int) bool {
	a, b := p.Instrs[i], q.Instrs[i]
	a.Repeat, b.Repeat = int32(a.EffRepeat()), int32(b.EffRepeat())
	a.reg, a.nReads, a.nWrites = b.reg, b.nReads, b.nWrites
	return a == b && slices.Equal(p.Reads(i), q.Reads(i)) && slices.Equal(p.Writes(i), q.Writes(i))
}

// TestDisassembleParseRoundTrip: Parse(Disassemble(p)) reproduces p
// exactly, including regions, repeats and labels, for random programs.
func TestDisassembleParseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 30; trial++ {
		orig := randomRoundTripProgram(rng, 60)
		back, err := Parse(orig.Name, strings.NewReader(orig.Disassemble()))
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, orig.Disassemble())
		}
		if back.Len() != orig.Len() {
			t.Fatalf("trial %d: %d instrs back, want %d", trial, back.Len(), orig.Len())
		}
		for i := range orig.Instrs {
			if !sameInstr(orig, back, i) {
				t.Fatalf("trial %d instr %d:\n  orig %s\n  back %s", trial, i, orig.InstrString(i), back.InstrString(i))
			}
		}
	}
}

// randomRoundTripProgram builds random instructions with explicit
// regions, repeats and labels to stress the parser.
func randomRoundTripProgram(rng *rand.Rand, n int) *Program {
	prog := &Program{Name: "roundtrip"}
	paths := hw.AllPaths()
	labels := []string{"", "load-a", "mad", "drain"}
	for i := 0; i < n; i++ {
		var in Instr
		var reads, writes []Region
		switch rng.Intn(5) {
		case 0:
			p := paths[rng.Intn(len(paths))]
			src, dst, size := int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(2048)+1)
			in = Instr{Kind: KindTransfer, Path: p, Bytes: size}
			reads = []Region{{Level: p.Src, Off: src, Size: size}}
			writes = []Region{{Level: p.Dst, Off: dst, Size: size}}
		case 1:
			in = ComputeRepeat(hw.Vector, hw.FP16, int64(rng.Intn(10000)+1), rng.Intn(8)+1)
			reads = []Region{{Level: hw.UB, Off: int64(rng.Intn(1024)), Size: int64(rng.Intn(512) + 1)}}
			writes = []Region{{Level: hw.UB, Off: 2048, Size: 128}}
		case 2:
			in = SetFlag(hw.CompMTEGM, hw.CompVector, rng.Intn(4))
		case 3:
			in = WaitFlag(hw.CompCube, hw.CompVector, rng.Intn(4))
		case 4:
			if rng.Intn(2) == 0 {
				in = BarrierAllInstr()
			} else {
				in = BarrierPipeInstr(hw.CompMTEUB)
			}
		}
		in.Label = labels[rng.Intn(len(labels))]
		prog.AppendWith(in, reads, writes)
	}
	return prog
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"garbage":           "hello world",
		"bad path":          "copy HBM->UB bytes=10",
		"no bytes":          "copy GM->UB",
		"bad unit":          "NPU.FP16 ops=1",
		"bad prec":          "Cube.FP8 ops=1",
		"no ops":            "Cube.FP16 repeat=1",
		"bad arrow":         "set_flag MTE-GM=Vector ev=0",
		"bad components":    "set_flag A->B ev=0",
		"bad event":         "set_flag MTE-GM->Vector ev=x",
		"bad barrier pipe":  "pipe_barrier(DMA)",
		"bad region":        "copy GM->UB bytes=10 reads=GM[5:2)",
		"bad region level":  "copy GM->UB bytes=10 reads=HBM[0:2)",
		"unknown field":     "Cube.FP16 ops=1 mask=3",
		"repeat past int32": "Cube.FP16 ops=1 repeat=2147483648",
		"event past int32":  "set_flag MTE-GM->Vector ev=-2147483649",
	}
	for name, src := range cases {
		if _, err := Parse("bad", strings.NewReader(src)); err == nil {
			t.Errorf("%s: accepted %q", name, src)
		}
	}
}

// FuzzParse: arbitrary text never panics; the production parser and
// the scanner reference (parseref_test.go) accept the same inputs with
// the same programs and reject the rest with identical errors; and an
// accepted program survives a disassemble/re-parse cycle exactly, up
// to the repeat default.
func FuzzParse(f *testing.F) {
	f.Add("copy GM->UB bytes=4096\nVector.FP16 ops=100 repeat=2")
	f.Add("pipe_barrier(PIPE_ALL)")
	f.Add("set_flag MTE-GM->Vector ev=1 ; x")
	f.Add("0 copy GM->UB bytes=64 reads=GM[0:64),GM[128:192) writes=UB[0:64)\r\n\n; c\n1  Cube.FP16 ops=9 ; \u00d78")
	f.Add("Cube.FP16\u00a0ops=1 repeat=0\nwait_flag Cube->Vector ev=2 x")
	// Fields the parser accepts on the other kind must survive re-parse.
	f.Add("copy GM->UB bytes=8 repeat=3\nVector.FP16 ops=1 bytes=7")
	// Region lists out of order, repeated, or one of a copy's given.
	f.Add("Vector.FP16 ops=1 writes=UB[0:8) reads=UB[8:16),UB[16:24) writes=UB[24:32)\ncopy GM->UB bytes=4 writes=UB[0:4)")
	f.Add("Cube.FP16 ops=1 repeat=2147483647\nset_flag Cube->Vector ev=-2147483648\nwait_flag Cube->Vector ev=2147483648")
	f.Fuzz(func(t *testing.T, src string) {
		prog, err := Parse("fuzz", strings.NewReader(src))
		ref, refErr := refParse("fuzz", strings.NewReader(src))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("parser error %v, reference %v", err, refErr)
		}
		if err != nil {
			if err.Error() != refErr.Error() {
				t.Fatalf("parser error %q, reference %q", err, refErr)
			}
			return
		}
		if prog.Len() != ref.Len() {
			t.Fatalf("parser and reference programs differ in length")
		}
		for i := range prog.Instrs {
			if !sameInstr(prog, ref, i) || prog.Instrs[i].Repeat != ref.Instrs[i].Repeat {
				t.Fatalf("parser and reference programs differ at %d", i)
			}
		}
		back, err := Parse("fuzz", strings.NewReader(prog.Disassemble()))
		if err != nil {
			t.Fatalf("accepted program failed re-parse: %v", err)
		}
		if back.Len() != prog.Len() {
			t.Fatalf("re-parse changed length %d -> %d", prog.Len(), back.Len())
		}
		for i := range prog.Instrs {
			if !sameInstr(prog, back, i) {
				t.Fatalf("instr %d changed on re-parse:\n  first  %s\n  second %s", i, prog.InstrString(i), back.InstrString(i))
			}
		}
	})
}
