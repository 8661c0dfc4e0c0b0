package isa

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"slices"
)

// Fingerprint returns a stable hex digest of the program: SHA-256 over
// a compact encoding of its name and of every instruction in order.
// Two programs with equal fingerprints simulate identically on the same
// chip, which is what makes simulation results memoizable (engine
// package).
//
// The encoding writes the name as a uvarint length and its bytes, then
// the instruction count as a uvarint. Each instruction is its Kind as a
// zigzag varint, a 2-byte little-endian presence mask with one bit per
// remaining Instr field, reads and writes included (set exactly when the
// field is non-zero, or its region list non-empty), and then only the
// present fields, in the mask's
// bit order (fpLabel … fpPipe). Integers are zigzag varints, the label
// is a uvarint length and its bytes, and a region list is a uvarint
// count and each region's level, offset and size. Most fields are zero
// for any one kind, so a kernel's instruction encodes to ~14 bytes.
// Every item is self-delimiting, so the encoding is prefix-free and
// therefore injective: fingerprints collide only when SHA-256 does. Nil
// and empty region lists encode alike, and so do all empty labels,
// matching InstrEqual.
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
	// a Write per field cost more than the hashing itself.
	h := sha256.New()
	buf := appendProgramHeader(make([]byte, 0, fpChunk+512), p)
	for i := range p.Instrs {
		buf = appendInstr(buf, &p.Instrs[i], p.Reads(i), p.Writes(i))
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

// Presence-mask bits of the fingerprint encoding, one per Instr field
// after Kind (the instruction's reads and writes counting as fields);
// present fields follow the mask in this order. The encoding is defined
// on field values, not on the struct layout.
const (
	fpLabel = iota
	fpUnit
	fpPrec
	fpOps
	fpRepeat
	fpSrc
	fpDst
	fpBytes
	fpReads
	fpWrites
	fpFrom
	fpTo
	fpEventID
	fpScope
	fpPipe
)

// appendProgramHeader appends the encoding of p's name and instruction
// count.
func appendProgramHeader(buf []byte, p *Program) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(p.Name)))
	buf = append(buf, p.Name...)
	return binary.AppendUvarint(buf, uint64(len(p.Instrs)))
}

// appendInstr appends the encoding of one instruction with its regions.
// The mask's two bytes are reserved first and filled in once the fields
// are written, so each field is tested once.
func appendInstr(buf []byte, in *Instr, reads, writes []Region) []byte {
	buf = appendVarint(buf, int64(in.Kind))
	at := len(buf)
	buf = append(buf, 0, 0)
	var mask uint16
	if in.Label != "" {
		mask |= 1 << fpLabel
		buf = binary.AppendUvarint(buf, uint64(len(in.Label)))
		buf = append(buf, in.Label...)
	}
	if in.Unit != 0 {
		mask |= 1 << fpUnit
		buf = appendVarint(buf, int64(in.Unit))
	}
	if in.Prec != 0 {
		mask |= 1 << fpPrec
		buf = appendVarint(buf, int64(in.Prec))
	}
	if in.Ops != 0 {
		mask |= 1 << fpOps
		buf = appendVarint(buf, in.Ops)
	}
	if in.Repeat != 0 {
		mask |= 1 << fpRepeat
		buf = appendVarint(buf, int64(in.Repeat))
	}
	if in.Path.Src != 0 {
		mask |= 1 << fpSrc
		buf = appendVarint(buf, int64(in.Path.Src))
	}
	if in.Path.Dst != 0 {
		mask |= 1 << fpDst
		buf = appendVarint(buf, int64(in.Path.Dst))
	}
	if in.Bytes != 0 {
		mask |= 1 << fpBytes
		buf = appendVarint(buf, in.Bytes)
	}
	if len(reads) != 0 {
		mask |= 1 << fpReads
		buf = appendRegions(buf, reads)
	}
	if len(writes) != 0 {
		mask |= 1 << fpWrites
		buf = appendRegions(buf, writes)
	}
	if in.From != 0 {
		mask |= 1 << fpFrom
		buf = appendVarint(buf, int64(in.From))
	}
	if in.To != 0 {
		mask |= 1 << fpTo
		buf = appendVarint(buf, int64(in.To))
	}
	if in.EventID != 0 {
		mask |= 1 << fpEventID
		buf = appendVarint(buf, int64(in.EventID))
	}
	if in.Scope != 0 {
		mask |= 1 << fpScope
		buf = appendVarint(buf, int64(in.Scope))
	}
	if in.Pipe != 0 {
		mask |= 1 << fpPipe
		buf = appendVarint(buf, int64(in.Pipe))
	}
	buf[at], buf[at+1] = byte(mask), byte(mask>>8)
	return buf
}

// appendRegions appends a region list: its count, then each region's
// level, offset and size.
func appendRegions(buf []byte, rs []Region) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(rs)))
	for i := range rs {
		buf = appendVarint(buf, int64(rs[i].Level))
		buf = appendVarint(buf, rs[i].Off)
		buf = appendVarint(buf, rs[i].Size)
	}
	return buf
}

// appendVarint appends v as a zigzag varint, with the one-byte case
// (|v| < 64, most enum and flag fields) inlined.
func appendVarint(buf []byte, v int64) []byte {
	u := uint64(v)<<1 ^ uint64(v>>63)
	if u < 0x80 {
		return append(buf, byte(u))
	}
	return binary.AppendUvarint(buf, u)
}

// Equal reports whether p and q have the same name and the same
// instructions, field for field and region for region (InstrEqual),
// which is exactly when
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
		if !p.InstrEqual(i, &q.Instrs[i], q.Reads(i), q.Writes(i)) {
			return false
		}
	}
	return true
}

// InstrEqual reports whether instruction i of p agrees with in, read
// regions reads and write regions writes on every field the fingerprint
// encodes. in's own arena addresses are not compared: regions are
// compared by value, and nil and empty lists are equal, as the encoding
// marks both absent. It is the one definition of instruction identity
// behind Program.Equal and every comparison that must agree with it.
func (p *Program) InstrEqual(i int, in *Instr, reads, writes []Region) bool {
	a := &p.Instrs[i]
	return a.Kind == in.Kind && a.Label == in.Label &&
		a.Unit == in.Unit && a.Prec == in.Prec && a.Ops == in.Ops && a.Repeat == in.Repeat &&
		a.Path == in.Path && a.Bytes == in.Bytes &&
		a.From == in.From && a.To == in.To && a.EventID == in.EventID &&
		a.Scope == in.Scope && a.Pipe == in.Pipe &&
		slices.Equal(p.Reads(i), reads) && slices.Equal(p.Writes(i), writes)
}
