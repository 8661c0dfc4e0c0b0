package isa

import (
	"math/rand"
	"reflect"
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
	in := prog.Instrs[0]
	if len(in.Reads) != 1 || in.Reads[0] != (Region{hw.GM, 0, 1024}) {
		t.Errorf("default read region wrong: %v", in.Reads)
	}
	if len(in.Writes) != 1 || in.Writes[0] != (Region{hw.L1, 0, 1024}) {
		t.Errorf("default write region wrong: %v", in.Writes)
	}
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
			a, b := orig.Instrs[i], back.Instrs[i]
			// Normalize the repeat default.
			a.Repeat = a.EffRepeat()
			b.Repeat = b.EffRepeat()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("trial %d instr %d:\n  orig %+v\n  back %+v", trial, i, a, b)
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
		switch rng.Intn(5) {
		case 0:
			p := paths[rng.Intn(len(paths))]
			in = Transfer(p, int64(rng.Intn(4096)), int64(rng.Intn(4096)), int64(rng.Intn(2048)+1))
		case 1:
			in = ComputeRepeat(hw.Vector, hw.FP16, int64(rng.Intn(10000)+1), rng.Intn(8)+1)
			in.Reads = []Region{{Level: hw.UB, Off: int64(rng.Intn(1024)), Size: int64(rng.Intn(512) + 1)}}
			in.Writes = []Region{{Level: hw.UB, Off: 2048, Size: 128}}
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
		prog.Append(in)
	}
	return prog
}

func TestParseRejections(t *testing.T) {
	cases := map[string]string{
		"garbage":          "hello world",
		"bad path":         "copy HBM->UB bytes=10",
		"no bytes":         "copy GM->UB",
		"bad unit":         "NPU.FP16 ops=1",
		"bad prec":         "Cube.FP8 ops=1",
		"no ops":           "Cube.FP16 repeat=1",
		"bad arrow":        "set_flag MTE-GM=Vector ev=0",
		"bad components":   "set_flag A->B ev=0",
		"bad event":        "set_flag MTE-GM->Vector ev=x",
		"bad barrier pipe": "pipe_barrier(DMA)",
		"bad region":       "copy GM->UB bytes=10 reads=GM[5:2)",
		"bad region level": "copy GM->UB bytes=10 reads=HBM[0:2)",
		"unknown field":    "Cube.FP16 ops=1 mask=3",
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
		if !reflect.DeepEqual(prog.Instrs, ref.Instrs) {
			t.Fatalf("parser and reference programs differ")
		}
		back, err := Parse("fuzz", strings.NewReader(prog.Disassemble()))
		if err != nil {
			t.Fatalf("accepted program failed re-parse: %v", err)
		}
		if back.Len() != prog.Len() {
			t.Fatalf("re-parse changed length %d -> %d", prog.Len(), back.Len())
		}
		for i := range prog.Instrs {
			a, b := prog.Instrs[i], back.Instrs[i]
			a.Repeat = a.EffRepeat()
			b.Repeat = b.EffRepeat()
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("instr %d changed on re-parse:\n  first  %+v\n  second %+v", i, a, b)
			}
		}
	})
}
