package isa_test

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
)

// parseCorpus is the disassembly of every registry kernel (baseline and
// fully optimized) on every chip preset, in a fixed order.
func parseCorpus(tb testing.TB) []string {
	tb.Helper()
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	var out []string
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for _, n := range names {
			k := reg[n]
			for _, opts := range []kernels.Options{k.Baseline(), kernels.FullyOptimized(k)} {
				p, err := k.Build(chip, opts)
				if err != nil {
					continue
				}
				out = append(out, p.Disassemble())
			}
		}
	}
	if len(out) == 0 {
		tb.Fatal("empty parse corpus")
	}
	return out
}

// malformedLines reach every error branch of the parser, plus the
// whitespace, index and label corner cases that decide whether a line
// is an error at all.
var malformedLines = []string{
	// Head and index.
	"hello world",
	"5",
	"5 ; only a label",
	"+7 pipe_barrier(PIPE_ALL)",
	"-0 pipe_barrier(PIPE_ALL)",
	"99999999999999999999 pipe_barrier(PIPE_ALL)",
	"0x1 pipe_barrier(PIPE_ALL)",
	"1.5 pipe_barrier(PIPE_ALL)",
	"+ pipe_barrier(PIPE_ALL)",
	"pipe_barrier(",
	"pipe_barrier()",
	"pipe_barrier(DMA)",
	"pipe_barrier(x.y",
	"pipe_barrier(Cube) extra fields=ignored",
	// Transfers.
	"copy",
	"copy GM->UB",
	"copy GMUB bytes=1",
	"copy HBM->UB bytes=10",
	"copy GM->HBM bytes=10",
	"copy GM->UB bytes=0",
	"copy GM->UB bytes=-4",
	"copy GM->UB bytes=x",
	"copy GM->UB bytes=",
	"copy GM->UB bytes=9223372036854775808",
	"copy GM->UB reads=GM[0:1)",
	"copy GM->UB bytes=10 bytes=20",
	"copy GM->UB bytes=10 reads=GM[5:2)",
	"copy GM->UB bytes=10 reads=HBM[0:2)",
	"copy GM->UB bytes=10 reads=GM[0:2",
	"copy GM->UB bytes=10 reads=GM0:2)",
	"copy GM->UB bytes=10 reads=GM[02)",
	"copy GM->UB bytes=10 reads=GM[a:2)",
	"copy GM->UB bytes=10 reads=GM[0:b)",
	"copy GM->UB bytes=10 reads=",
	"copy GM->UB bytes=10 reads=GM[0:2),",
	"copy GM->UB bytes=10 reads=GM[0:2),,UB[0:1)",
	"copy GM->UB bytes=10 writes=UB[0:2),UB[4:8) reads=GM[0:1)",
	"copy GM->UB bytes=10 reads=GM[0:2) reads=GM[4:6)",
	"copy GM->UB bytes=10 reads=[0:2)",
	"copy GM->UB bytes=10 reads=GM[:)",
	"copy GM->UB bytes=10 mask=3",
	"copy GM->UB->L1 bytes=10",
	"copy ->UB bytes=10",
	// Flags.
	"set_flag",
	"set_flag MTE-GM->Vector",
	"set_flag MTE-GM=Vector ev=0",
	"set_flag A->B ev=0",
	"set_flag MTE-GM->Vector ev=x",
	"set_flag MTE-GM->Vector x=0",
	"set_flag MTE-GM->Vector ev",
	"set_flag MTE-GM->Vector ev=1 junk",
	"wait_flag Cube->MTE-UB ev=-3",
	"wait_flag Cube->MTE-UB evx=3",
	// Computes.
	"NPU.FP16 ops=1",
	"Cube.FP8 ops=1",
	"Cube. ops=1",
	".FP16 ops=1",
	"Cube.FP16.x ops=1",
	"Cube.FP16 repeat=1",
	"Cube.FP16 ops=0",
	"Cube.FP16 ops=-1",
	"Cube.FP16 ops=1 repeat=x",
	"Cube.FP16 ops=1 repeat=-2",
	"Cube.FP16 ops=1 mask=3",
	"Cube.FP16 ops=1 ops",
	"Cube.FP16 ops=1 =3",
	"Cube.FP16 ops=1 ;x",
	"Cube.FP16 ops=1 ; ",
	"Cube.FP16 ops=1\t; tabbed",
	"Cube.FP16 ops=1 ;  two ; labels ",
	"Vector.INT32 ops=1 reads=UB[0:4) writes=UB[4:8),UB[16:32)",
	// Whitespace the ASCII fast path must treat like strings.Fields.
	"Cube.FP16\vops=1\frepeat=2",
	"Cube.FP16 ops=1",
	"Cube.FP16\u0085ops=1",
	" Cube.FP16 ops=1 ",
	"Cube.FP16 ops=1 ; relu ×8",
	"Cube.FP16 ops=1 　; wide",
	"Cube.FP16 ops=١",
	"Cub\xffe.FP16 ops=1",
	"Cube.FP16 ops=1 ; bad \xff utf8",
	// Many fields.
	"Cube.FP16 ops=1 ops=2 ops=3 ops=4 ops=5 ops=6 ops=7 ops=8 ops=9 ops=10 ops=11 ops=12 ops=13 ops=14 ops=15 ops=16 ops=17 ops=18",
	"Cube.FP16 ops=1 ops=2 ops=3 ops=4 ops=5 ops=6 ops=7 ops=8 ops=9 ops=10 ops=11 ops=12 ops=13 ops=14 ops=15 ops=16 ops=17 mask=1",
}

// sameParse fails unless the production and reference parsers agree on
// src: both reject it with identical error text, or both accept it with
// DeepEqual instructions and equal fingerprints.
func sameParse(t *testing.T, what, src string) {
	t.Helper()
	got, gotErr := isa.Parse("p", strings.NewReader(src))
	want, wantErr := isa.ReferenceParse("p", strings.NewReader(src))
	if gotErr != nil || wantErr != nil {
		if gotErr == nil || wantErr == nil || gotErr.Error() != wantErr.Error() {
			t.Fatalf("%s: error %v, reference %v", what, gotErr, wantErr)
		}
		return
	}
	if !reflect.DeepEqual(got.Instrs, want.Instrs) {
		t.Fatalf("%s: instructions differ from the reference", what)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("%s: fingerprint %s, reference %s", what, got.Fingerprint(), want.Fingerprint())
	}
}

// TestParseMatchesReference: the production parser reproduces the
// line-scanner reference on the registry disassembly corpus, on large
// generated programs, and line by line on malformed input.
func TestParseMatchesReference(t *testing.T) {
	for i, src := range parseCorpus(t) {
		sameParse(t, fmt.Sprintf("corpus program %d", i), src)
	}
	chips := []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()}
	for seed := int64(1); seed <= 3; seed++ {
		for _, n := range []int{200, 1000, 4000} {
			chip := chips[int(seed)%len(chips)]
			p := check.GenProgram(chip, rand.New(rand.NewSource(seed)), n)
			sameParse(t, fmt.Sprintf("gen seed %d n %d", seed, n), p.Disassemble())
		}
	}
	for _, line := range malformedLines {
		sameParse(t, fmt.Sprintf("line %q", line), line)
		// The same line after accepted and skipped lines, with CRLF
		// endings: the error must carry the right line number.
		src := "; header\r\n\r\n  0  pipe_barrier(PIPE_ALL)\r\n" + line + "\r\nCube.FP16 ops=1"
		sameParse(t, fmt.Sprintf("embedded line %q", line), src)
	}
	for _, src := range []string{"", "\n", "\n\n;\n", "   \t\n", "; only\n; comments"} {
		sameParse(t, fmt.Sprintf("source %q", src), src)
	}
}

// TestParseLineLimit: a line of 1 MiB or more fails with the scanner's
// token-too-long error, shorter lines parse, with or without a final
// newline, and errors on earlier lines still come first.
func TestParseLineLimit(t *testing.T) {
	const limit = 1 << 20
	pad := func(n int) string { return ";" + strings.Repeat("x", n-1) }
	for _, n := range []int{limit - 2, limit - 1, limit, limit + 1} {
		for _, tail := range []string{"", "\n", "\r\n", "\nCube.FP16 ops=0"} {
			src := "pipe_barrier(PIPE_ALL)\n" + pad(n) + tail
			sameParse(t, fmt.Sprintf("%d-byte line + %q", n, tail), src)
			sameParse(t, fmt.Sprintf("error before %d-byte line", n), "bad\n"+src)
		}
	}
	_, err := isa.Parse("p", strings.NewReader(pad(limit)))
	if err == nil || !errors.Is(err, bufio.ErrTooLong) {
		t.Fatalf("1 MiB line: error %v, want token too long", err)
	}
}
