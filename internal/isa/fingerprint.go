package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Fingerprint returns a stable hex digest of the program: its name and
// the full field content of every instruction in order. Two programs
// with equal fingerprints simulate identically on the same chip, which
// is what makes simulation results memoizable (engine package). The
// encoding is length-prefixed and field-ordered, so it is injective up
// to hash collisions.
//
// The digest is memoized per Program: repeated calls on an unmodified
// program return the stored string without rehashing (the memoized
// lookup path of the engine's simulation cache calls this once per
// lookup, and the hash itself dominated the hit path before the memo).
// Appending invalidates the memo via the instruction count.
func (p *Program) Fingerprint() string {
	if m := p.fp.Load(); m != nil && m.n == len(p.Instrs) {
		return m.fp
	}
	// The encoding is built in one buffer and hashed a chunk at a time:
	// a Write per 8-byte field cost more than the hashing itself.
	h := sha256.New()
	buf := make([]byte, 0, fpChunk+512)
	num := func(v int64) {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(v))
	}
	str := func(s string) {
		num(int64(len(s)))
		buf = append(buf, s...)
	}
	regions := func(rs []Region) {
		num(int64(len(rs)))
		for _, r := range rs {
			num(int64(r.Level))
			num(r.Off)
			num(r.Size)
		}
	}
	str(p.Name)
	num(int64(len(p.Instrs)))
	for i := range p.Instrs {
		in := &p.Instrs[i]
		num(int64(in.Kind))
		str(in.Label)
		num(int64(in.Unit))
		num(int64(in.Prec))
		num(in.Ops)
		num(int64(in.Repeat))
		num(int64(in.Path.Src))
		num(int64(in.Path.Dst))
		num(in.Bytes)
		regions(in.Reads)
		regions(in.Writes)
		num(int64(in.From))
		num(int64(in.To))
		num(int64(in.EventID))
		num(int64(in.Scope))
		num(int64(in.Pipe))
		if len(buf) >= fpChunk {
			h.Write(buf)
			buf = buf[:0]
		}
	}
	h.Write(buf)
	fp := hex.EncodeToString(h.Sum(nil))
	p.fp.Store(&fpMemo{n: len(p.Instrs), fp: fp})
	return fp
}

// fpChunk is the encoded size at which Fingerprint hands its buffer to
// the hash.
const fpChunk = 4 << 10

// Equal reports whether p and q have the same name and the same
// instructions, field for field (InstrEqual), which is exactly when
// their fingerprints are equal (up to hash collisions). It stops at the
// first difference and hashes nothing, so comparing two programs costs
// less than fingerprinting one of them.
func (p *Program) Equal(q *Program) bool {
	if p == q {
		return true
	}
	if p.Name != q.Name || len(p.Instrs) != len(q.Instrs) {
		return false
	}
	for i := range p.Instrs {
		if !InstrEqual(&p.Instrs[i], &q.Instrs[i]) {
			return false
		}
	}
	return true
}

// InstrEqual reports whether a and b agree on every field the
// fingerprint encodes. Nil and empty region lists are equal, as the
// encoding writes only their length. It is the one definition of
// instruction identity behind Program.Equal and every comparison that
// must agree with it.
func InstrEqual(a, b *Instr) bool {
	return a.Kind == b.Kind && a.Label == b.Label &&
		a.Unit == b.Unit && a.Prec == b.Prec && a.Ops == b.Ops && a.Repeat == b.Repeat &&
		a.Path == b.Path && a.Bytes == b.Bytes &&
		slices.Equal(a.Reads, b.Reads) && slices.Equal(a.Writes, b.Writes) &&
		a.From == b.From && a.To == b.To && a.EventID == b.EventID &&
		a.Scope == b.Scope && a.Pipe == b.Pipe
}
