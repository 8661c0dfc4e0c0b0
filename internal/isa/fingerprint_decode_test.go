package isa_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
)

// fpDecoder parses the fingerprint encoding back into a Program. It is
// written from the format's description in Fingerprint's doc comment,
// not from the encoder, so a stream that decodes back to the program it
// came from shows the encoding loses nothing; being a parser of a
// prefix-free grammar, it also shows no two programs share a stream.
type fpDecoder struct {
	b   []byte
	err error
}

var errTruncated = errors.New("truncated")

func (d *fpDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.err = errTruncated
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *fpDecoder) varint() int64 {
	u := d.uvarint()
	return int64(u>>1) ^ -int64(u&1)
}

func (d *fpDecoder) bytes(n uint64) string {
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)) {
		d.err = errTruncated
		return ""
	}
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
}

func (d *fpDecoder) regions() []isa.Region {
	n := d.uvarint()
	if n == 0 && d.err == nil {
		d.err = errors.New("present region list with no regions")
	}
	var rs []isa.Region
	for i := uint64(0); i < n && d.err == nil; i++ {
		rs = append(rs, isa.Region{Level: hw.Level(d.varint()), Off: d.varint(), Size: d.varint()})
	}
	return rs
}

// decodeFingerprint parses a whole encoding. Fields the mask marks
// present must be non-zero, as the encoder writes no others.
func decodeFingerprint(b []byte) (*isa.Program, error) {
	d := &fpDecoder{b: b}
	p := &isa.Program{Name: d.bytes(d.uvarint())}
	n := d.uvarint()
	for i := uint64(0); i < n && d.err == nil; i++ {
		var in isa.Instr
		in.Kind = isa.Kind(d.varint())
		if len(d.b) < 2 {
			d.err = errTruncated
			break
		}
		mask := binary.LittleEndian.Uint16(d.b)
		d.b = d.b[2:]
		if mask>>15 != 0 {
			return nil, fmt.Errorf("instruction %d: unknown mask bit in %#x", i, mask)
		}
		has := func(bit int) bool { return mask&(1<<bit) != 0 }
		nonzero := func(field string, v int64) int64 {
			if v == 0 && d.err == nil {
				d.err = fmt.Errorf("instruction %d: %s marked present but zero", i, field)
			}
			return v
		}
		if has(0) {
			if in.Label = d.bytes(d.uvarint()); in.Label == "" && d.err == nil {
				d.err = fmt.Errorf("instruction %d: empty label marked present", i)
			}
		}
		if has(1) {
			in.Unit = hw.Unit(nonzero("Unit", d.varint()))
		}
		if has(2) {
			in.Prec = hw.Precision(nonzero("Prec", d.varint()))
		}
		if has(3) {
			in.Ops = nonzero("Ops", d.varint())
		}
		if has(4) {
			in.Repeat = int(nonzero("Repeat", d.varint()))
		}
		if has(5) {
			in.Path.Src = hw.Level(nonzero("Path.Src", d.varint()))
		}
		if has(6) {
			in.Path.Dst = hw.Level(nonzero("Path.Dst", d.varint()))
		}
		if has(7) {
			in.Bytes = nonzero("Bytes", d.varint())
		}
		if has(8) {
			in.Reads = d.regions()
		}
		if has(9) {
			in.Writes = d.regions()
		}
		if has(10) {
			in.From = hw.Component(nonzero("From", d.varint()))
		}
		if has(11) {
			in.To = hw.Component(nonzero("To", d.varint()))
		}
		if has(12) {
			in.EventID = int(nonzero("EventID", d.varint()))
		}
		if has(13) {
			in.Scope = isa.BarrierScope(nonzero("Scope", d.varint()))
		}
		if has(14) {
			in.Pipe = hw.Component(nonzero("Pipe", d.varint()))
		}
		p.Instrs = append(p.Instrs, in)
	}
	if d.err != nil {
		return nil, d.err
	}
	if len(d.b) != 0 {
		return nil, fmt.Errorf("%d trailing bytes", len(d.b))
	}
	return p, nil
}

// checkRoundTrip decodes p's encoding, requires it to reproduce p, and
// requires Fingerprint to be SHA-256 of exactly that encoding.
func checkRoundTrip(t testing.TB, p *isa.Program) {
	t.Helper()
	enc := isa.Encode(p)
	got, err := decodeFingerprint(enc)
	if err != nil {
		t.Fatalf("%q: decoding its encoding: %v", p.Name, err)
	}
	if got.Name != p.Name || got.Len() != p.Len() {
		t.Fatalf("%q (%d instrs) decoded as %q (%d instrs)", p.Name, p.Len(), got.Name, got.Len())
	}
	for i := range p.Instrs {
		if !isa.InstrEqual(&got.Instrs[i], &p.Instrs[i]) {
			t.Fatalf("%q: instruction %d decoded as %+v, want %+v", p.Name, i, got.Instrs[i], p.Instrs[i])
		}
	}
	sum := sha256.Sum256(enc)
	if fp := hex.EncodeToString(sum[:]); fp != p.Fingerprint() {
		t.Fatalf("%q: Fingerprint %s is not SHA-256 of its encoding (%s)", p.Name, p.Fingerprint(), fp)
	}
}

// registryCorpus builds every registry kernel, baseline and fully
// optimized, on the three preset chips.
func registryCorpus(t testing.TB) []*isa.Program {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
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

// edgeInstrs are hand-made instructions at the encoding's edges:
// negative and extreme integers, nil and empty region lists, and labels
// holding the bytes a varint or C string would treat specially.
func edgeInstrs() []isa.Instr {
	return []isa.Instr{
		{},
		{Kind: -1, Ops: -1, Repeat: -64, EventID: -65},
		{Kind: math.MaxInt, Unit: -1, Prec: math.MinInt, Ops: math.MinInt64, Bytes: math.MaxInt64},
		{Kind: isa.KindTransfer, Path: hw.Path{Src: -3, Dst: math.MaxInt}, Bytes: 1 << 62,
			Reads:  []isa.Region{{Level: math.MinInt, Off: math.MinInt64, Size: math.MaxInt64}},
			Writes: []isa.Region{{}, {Level: 1, Off: -1, Size: 0x80}}},
		{Kind: isa.KindCompute, Reads: []isa.Region{}, Writes: nil},
		{Kind: isa.KindCompute, Reads: nil, Writes: []isa.Region{}},
		{Label: "\x00"},
		{Label: "\x80"},
		{Label: "a\x00b\x80\xff" + string(rune(0x80))},
		{Kind: isa.KindBarrier, Scope: -1, Pipe: math.MinInt, From: math.MaxInt, To: -2, EventID: math.MaxInt},
		{Kind: 63, Unit: 64, Prec: -64, Ops: 127, Repeat: 128, Bytes: -129},
	}
}

// TestFingerprintDecodes parses the encoding of every registry program,
// of generated programs and of hand-made edge cases back into a Program
// and requires it to match the original instruction for instruction.
func TestFingerprintDecodes(t *testing.T) {
	for _, p := range registryCorpus(t) {
		checkRoundTrip(t, p)
	}
	for _, chip := range []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()} {
		for seed := int64(1); seed <= 8; seed++ {
			checkRoundTrip(t, check.GenProgram(chip, rand.New(rand.NewSource(seed)), 40*int(seed)))
		}
	}
	edges := edgeInstrs()
	for _, name := range []string{"", "\x00", "\x80", "edge\x00\x80"} {
		checkRoundTrip(t, &isa.Program{Name: name})
		checkRoundTrip(t, &isa.Program{Name: name, Instrs: edges})
	}
	for i := range edges {
		checkRoundTrip(t, &isa.Program{Name: "one", Instrs: edges[i : i+1]})
	}
	// Nil and empty region lists are one value to InstrEqual, so they
	// must be one value to the fingerprint too.
	a := &isa.Program{Instrs: []isa.Instr{{Reads: nil, Writes: []isa.Region{}}}}
	b := &isa.Program{Instrs: []isa.Instr{{Reads: []isa.Region{}, Writes: nil}}}
	if a.Fingerprint() != b.Fingerprint() {
		t.Error("nil and empty region lists fingerprint differently")
	}
	// A name's bytes must not run into the instruction count.
	if (&isa.Program{Name: "\x01"}).Fingerprint() == (&isa.Program{Instrs: make([]isa.Instr, 1)}).Fingerprint() {
		t.Error("a one-byte name and one zero instruction share a fingerprint")
	}
}

// TestFingerprintBytesPerInstr guards the encoding's size on the
// registry corpus, where a fixed 8 bytes per field took ~148 bytes per
// instruction.
func TestFingerprintBytesPerInstr(t *testing.T) {
	var bytes, instrs int
	for _, p := range registryCorpus(t) {
		bytes += len(isa.Encode(p))
		instrs += p.Len()
	}
	per := float64(bytes) / float64(instrs)
	t.Logf("%d bytes over %d instructions: %.1f B/instr", bytes, instrs, per)
	if per > 32 {
		t.Fatalf("fingerprint encoding takes %.1f bytes per instruction, want at most 32", per)
	}
}

// fuzzValues are the integers fuzzInstr draws from: one-byte and
// two-byte varint edges, signs and the int64 extremes. A few bytes of
// input select from them, so distinct inputs often build equal
// instructions.
var fuzzValues = []int64{0, 1, -1, 2, 63, 64, -64, -65, 127, 128, 8191, 8192, 1 << 40, math.MinInt64, math.MaxInt64}

// fuzzInstr builds an instruction from data, one byte per choice (zero
// once data runs out).
func fuzzInstr(data []byte) isa.Instr {
	next := func() byte {
		if len(data) == 0 {
			return 0
		}
		c := data[0]
		data = data[1:]
		return c
	}
	val := func() int64 { return fuzzValues[int(next())%len(fuzzValues)] }
	regions := func() []isa.Region {
		c := next()
		if c%4 == 0 {
			return nil
		}
		rs := make([]isa.Region, c%4-1) // c%4 == 1 is an empty, non-nil list
		for i := range rs {
			rs[i] = isa.Region{Level: hw.Level(val()), Off: val(), Size: val()}
		}
		return rs
	}
	in := isa.Instr{Kind: isa.Kind(val())}
	label := make([]byte, next()%4)
	for i := range label {
		label[i] = next()
	}
	in.Label = string(label)
	in.Unit, in.Prec, in.Ops, in.Repeat = hw.Unit(val()), hw.Precision(val()), val(), int(val())
	in.Path, in.Bytes = hw.Path{Src: hw.Level(val()), Dst: hw.Level(val())}, val()
	in.Reads, in.Writes = regions(), regions()
	in.From, in.To, in.EventID = hw.Component(val()), hw.Component(val()), int(val())
	in.Scope, in.Pipe = isa.BarrierScope(val()), hw.Component(val())
	return in
}

// FuzzFingerprint builds two instructions from arbitrary bytes: their
// one-instruction programs must fingerprint alike exactly when
// InstrEqual holds, and each must survive decoding.
func FuzzFingerprint(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 0, 0x80, 3}, []byte{1, 2, 0, 0x80, 3})
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 1}, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0, 4})
	f.Add([]byte{13, 3, 0, 128, 255, 14, 5}, []byte{13, 3, 0, 128, 255, 14, 20})
	f.Add([]byte{2, 0, 1, 1, 1, 1, 1, 1, 1, 3, 13, 14, 7}, []byte{2, 0, 1, 1, 1, 1, 1, 1, 1, 3, 13, 14, 8})
	f.Fuzz(func(t *testing.T, a, b []byte) {
		x, y := fuzzInstr(a), fuzzInstr(b)
		px := &isa.Program{Name: "fuzz", Instrs: []isa.Instr{x}}
		py := &isa.Program{Name: "fuzz", Instrs: []isa.Instr{y}}
		checkRoundTrip(t, px)
		checkRoundTrip(t, py)
		if same := px.Fingerprint() == py.Fingerprint(); same != isa.InstrEqual(&x, &y) {
			t.Fatalf("fingerprints equal %v, InstrEqual %v:\n%+v\n%+v", same, !same, x, y)
		}
	})
}
