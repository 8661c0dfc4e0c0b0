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
		var reads, writes []isa.Region
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
			in.Repeat = int32(nonzero("Repeat", d.varint()))
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
			reads = d.regions()
		}
		if has(9) {
			writes = d.regions()
		}
		if has(10) {
			in.From = hw.Component(nonzero("From", d.varint()))
		}
		if has(11) {
			in.To = hw.Component(nonzero("To", d.varint()))
		}
		if has(12) {
			in.EventID = int32(nonzero("EventID", d.varint()))
		}
		if has(13) {
			in.Scope = isa.BarrierScope(nonzero("Scope", d.varint()))
		}
		if has(14) {
			in.Pipe = hw.Component(nonzero("Pipe", d.varint()))
		}
		p.AppendWith(in, reads, writes)
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
		if !got.InstrEqual(i, &p.Instrs[i], p.Reads(i), p.Writes(i)) {
			t.Fatalf("%q: instruction %d decoded as %s, want %s", p.Name, i, got.InstrString(i), p.InstrString(i))
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

// edgeInstr is a hand-made instruction with its regions.
type edgeInstr struct {
	in            isa.Instr
	reads, writes []isa.Region
}

// edgeInstrs are hand-made instructions at the encoding's edges:
// negative and extreme integers, nil and empty region lists, and labels
// holding the bytes a varint or C string would treat specially.
func edgeInstrs() []edgeInstr {
	return []edgeInstr{
		{in: isa.Instr{}},
		{in: isa.Instr{Kind: math.MaxUint8, Ops: -1, Repeat: -64, EventID: -65}},
		{in: isa.Instr{Kind: 128, Unit: math.MaxUint8, Prec: 0x80, Ops: math.MinInt64, Bytes: math.MaxInt64}},
		{in: isa.Instr{Kind: isa.KindTransfer, Path: hw.Path{Src: 0xfd, Dst: math.MaxUint8}, Bytes: 1 << 62},
			reads:  []isa.Region{{Level: math.MaxUint8, Off: math.MinInt64, Size: math.MaxInt64}},
			writes: []isa.Region{{}, {Level: 1, Off: -1, Size: 0x80}}},
		{in: isa.Instr{Kind: isa.KindCompute}, reads: []isa.Region{}, writes: nil},
		{in: isa.Instr{Kind: isa.KindCompute}, reads: nil, writes: []isa.Region{}},
		{in: isa.Instr{Label: "\x00"}},
		{in: isa.Instr{Label: "\x80"}},
		{in: isa.Instr{Label: "a\x00b\x80\xff" + string(rune(0x80))}},
		{in: isa.Instr{Kind: isa.KindBarrier, Scope: math.MaxUint8, Pipe: 0x80, From: math.MaxUint8, To: 0xfe, EventID: math.MaxInt32}},
		{in: isa.Instr{Kind: 63, Unit: 64, Prec: 0xc0, Ops: 127, Repeat: math.MinInt32, Bytes: -129, EventID: math.MinInt32}},
		{in: isa.Instr{Kind: 64, Repeat: math.MaxInt32}},
	}
}

// edgeProgram appends edges to a program named name.
func edgeProgram(name string, edges []edgeInstr) *isa.Program {
	p := &isa.Program{Name: name}
	for _, e := range edges {
		p.AppendWith(e.in, e.reads, e.writes)
	}
	return p
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
		checkRoundTrip(t, edgeProgram(name, edges))
	}
	for i := range edges {
		checkRoundTrip(t, edgeProgram("one", edges[i:i+1]))
	}
	// Nil and empty region lists are one value to InstrEqual, so they
	// must be one value to the fingerprint too.
	a := edgeProgram("", []edgeInstr{{reads: nil, writes: []isa.Region{}}})
	b := edgeProgram("", []edgeInstr{{reads: []isa.Region{}, writes: nil}})
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

// fuzzInstr builds a one-instruction program from data, one byte per
// choice (zero once data runs out).
func fuzzInstr(data []byte) *isa.Program {
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
	in.Unit, in.Prec, in.Ops, in.Repeat = hw.Unit(val()), hw.Precision(val()), val(), int32(val())
	in.Path, in.Bytes = hw.Path{Src: hw.Level(val()), Dst: hw.Level(val())}, val()
	reads, writes := regions(), regions()
	in.From, in.To, in.EventID = hw.Component(val()), hw.Component(val()), int32(val())
	in.Scope, in.Pipe = isa.BarrierScope(val()), hw.Component(val())
	p := &isa.Program{Name: "fuzz"}
	p.AppendWith(in, reads, writes)
	return p
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
		px, py := fuzzInstr(a), fuzzInstr(b)
		checkRoundTrip(t, px)
		checkRoundTrip(t, py)
		if same := px.Fingerprint() == py.Fingerprint(); same != px.InstrEqual(0, &py.Instrs[0], py.Reads(0), py.Writes(0)) {
			t.Fatalf("fingerprints equal %v, InstrEqual %v:\n%s\n%s", same, !same, px.InstrString(0), py.InstrString(0))
		}
	})
}
