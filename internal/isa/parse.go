package isa

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"strings"
	"unicode"
	"unicode/utf8"

	"ascendperf/internal/hw"
)

// maxLine is the longest accepted line in bytes, counting a trailing
// carriage return but not the newline (FORMATS.md §4): one byte short of
// 1 MiB, the limit of the line scanner the format was first read with,
// and reported with that scanner's error.
const maxLine = 1<<20 - 1

// Parse reads a textual program in the Disassemble format: one
// instruction per line, an optional leading instruction index, blank
// lines and lines starting with ';' ignored, and an optional trailing
// "; label" comment per instruction. It is the inverse of
// Program.Disassemble, enabling hand-written test programs and saved
// instruction corpora.
//
// Grammar per line (fields separated by spaces):
//
//	<Unit>.<Prec> ops=N repeat=R [reads=RGNS] [writes=RGNS]
//	copy SRC->DST bytes=N [reads=RGNS] [writes=RGNS]
//	set_flag A->B ev=N
//	wait_flag A->B ev=N
//	pipe_barrier(PIPE_ALL) | pipe_barrier(<Component>)
//
// where RGNS is a comma-separated list of Level[off:end) regions. The
// repeat and ev values are 32-bit signed integers.
func Parse(name string, r io.Reader) (*Program, error) {
	var b strings.Builder
	if _, err := io.Copy(&b, r); err != nil {
		return nil, fmt.Errorf("isa: %s: %w", name, err)
	}
	return ParseString(name, b.String())
}

// ParseString is Parse on a program already in memory. It walks the
// text once: each line is one forward scan that dispatches on the head
// field and reads the other fields where they stand. A valid program
// costs four allocations whatever its length: the Program, its
// instruction slice, its region arena, and one string holding every
// label (so the program does not keep text alive). Only a line that
// gives more than 8 regions out of order allocates on its own.
func ParseString(name, text string) (*Program, error) {
	prog := &Program{Name: name}
	// A valid instruction line takes at least 16 bytes with its newline
	// ("Cube.INT8 ops=1"), which caps the pre-size on blank-line input.
	size := min(strings.Count(text, "\n"), len(text)/16) + 1
	// Every explicit region has a '[' and a copy adds at most two default
	// regions, so a valid program's regions fit the arena.
	p := parser{s: text, regions: make([]Region, 0, strings.Count(text, "[")+2*strings.Count(text, "copy"))}
	labelBytes := 0
	for lineNo := 1; p.pos < len(text); lineNo++ {
		start := p.pos
		i := skipSpace(text, start)
		var err error
		switch {
		case i == len(text) || text[i] == '\n':
			p.pos = i
		case text[i] == ';':
			p.pos = lineEnd(text, i)
		default:
			if prog.Instrs == nil {
				prog.Instrs = make([]Instr, 0, size)
			}
			prog.Instrs = append(prog.Instrs, Instr{})
			in := &prog.Instrs[len(prog.Instrs)-1]
			p.pos = i
			if err = p.parseLine(in); err != nil {
				p.pos = lineEnd(text, p.pos)
			}
			labelBytes += len(in.Label)
		}
		if p.pos-start > maxLine {
			return nil, fmt.Errorf("isa: %s: %w", name, bufio.ErrTooLong)
		}
		if err != nil {
			return nil, fmt.Errorf("isa: %s:%d: %w", name, lineNo, err)
		}
		p.pos++ // past the newline
	}
	prog.regions = p.regions
	copyLabels(prog.Instrs, labelBytes)
	return prog, nil
}

// copyLabels moves the labels, which still point into the program text,
// into one string of total bytes.
func copyLabels(ins []Instr, total int) {
	if total == 0 {
		return
	}
	var b strings.Builder
	b.Grow(total)
	for i := range ins {
		b.WriteString(ins[i].Label)
	}
	all := b.String()
	for i := range ins {
		n := len(ins[i].Label)
		ins[i].Label, all = all[:n], all[n:]
	}
}

// parser holds the text being parsed, the offset the scan has reached
// in it, the region arena of the program and, for the line being
// parsed, its label once the scan reaches it and the arena ranges
// [rlo, rhi) and [wlo, whi) of its read and write lists. A line's lists
// are appended to the arena in the order they appear; place moves them
// to the arena layout, reads then writes.
type parser struct {
	s                  string
	pos                int
	regions            []Region
	label              string
	rlo, rhi, wlo, whi int
}

// parseLine parses the instruction line the scan stands at (on its
// first field) into the zero instruction in, and leaves the scan at the
// line's end.
func (p *parser) parseLine(in *Instr) error {
	start := len(p.regions)
	p.rlo, p.rhi, p.wlo, p.whi = start, start, start, start
	p.label = ""
	if err := p.parseInstr(in); err != nil {
		return err
	}
	// Kinds that ignore trailing fields still end at the label.
	for !p.done() {
		p.field()
	}
	in.Label = p.label
	p.place(in, start)
	return nil
}

// A line is split into fields around runs of white space exactly as
// strings.Fields splits it, Unicode white space included. A " ; "
// where a field would start ends the instruction part of the line, and
// the rest of the line, trimmed, is the label, unless that is empty.

// field returns the next field of the instruction part, "" once there
// is none, and moves past it.
func (p *parser) field() string {
	start := p.pos
	end := fieldEnd(p.s, start)
	p.skip(end)
	return p.s[start:end]
}

// skip moves the scan to the next field after offset i, where a field
// ends, or to the line's end, reading the label if it starts there.
func (p *parser) skip(i int) {
	// Most fields are parted by one space.
	if s := p.s; i+1 < len(s) && s[i] == ' ' && plainStart[s[i+1]] {
		p.pos = i + 1
		return
	}
	p.skipRun(i)
}

// plainStart marks the bytes that start a field and cannot start a
// label: printable ASCII other than ';'.
var plainStart = func() (t [256]bool) {
	for c := '!'; c < utf8.RuneSelf; c++ {
		t[c] = c != ';'
	}
	return t
}()

// skipRun is skip past any run of white space.
func (p *parser) skipRun(i int) {
	s := p.s
	i = skipSpace(s, i)
	if i < len(s) && s[i] == ';' && s[i-1] == ' ' && i+1 < len(s) && s[i+1] == ' ' {
		end := lineEnd(s, i)
		if label := strings.TrimSpace(s[i+2 : end]); label != "" {
			p.label, i = label, end
		}
	}
	p.pos = i
}

// done reports whether the instruction part has no field left.
func (p *parser) done() bool { return p.pos == len(p.s) || p.s[p.pos] == '\n' }

// skipSpace returns the offset of the first byte at or after i that is
// not white space, or of the newline ending the line.
func skipSpace(s string, i int) int {
	for i < len(s) {
		if c := s[i]; c < utf8.RuneSelf {
			if !asciiSpace[c] || c == '\n' {
				break
			}
			i++
		} else if n := spaceRune(s[i:]); n > 0 {
			i += n
		} else {
			break
		}
	}
	return i
}

// lineEnd returns the offset of the newline ending the line that
// offset i is on, or len(s).
func lineEnd(s string, i int) int {
	if n := strings.IndexByte(s[i:], '\n'); n >= 0 {
		return i + n
	}
	return len(s)
}

// fieldEnd returns the end of the field of s that continues at i.
func fieldEnd(s string, i int) int {
	for i < len(s) {
		if c := s[i]; ' ' < c && c < utf8.RuneSelf {
			i++
			continue
		}
		if fieldEndsAt(s, i) {
			break
		}
		_, n := utf8.DecodeRuneInString(s[i:])
		i += n
	}
	return i
}

// fieldEndsAt reports whether offset i of s ends a field.
func fieldEndsAt(s string, i int) bool {
	return i == len(s) || asciiSpace[s[i]] || s[i] >= utf8.RuneSelf && spaceRune(s[i:]) > 0
}

// asciiSpace marks the ASCII white space bytes.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// spaceRune returns the byte length of the rune s starts with if it is
// white space, else 0.
func spaceRune(s string) int {
	r, n := utf8.DecodeRuneInString(s)
	if unicode.IsSpace(r) {
		return n
	}
	return 0
}

// place points in at the line's final read and write lists, which begin
// at start in the arena. A line that gave writes before reads, or a list
// twice, has them moved there, reads first.
func (p *parser) place(in *Instr, start int) {
	nr, nw := p.rhi-p.rlo, p.whi-p.wlo
	if (nr > 0 && p.rlo != start) || (nw > 0 && p.wlo != start+nr) || len(p.regions) != start+nr+nw {
		var tmp [8]Region
		both := append(append(tmp[:0], p.regions[p.rlo:p.rhi]...), p.regions[p.wlo:p.whi]...)
		p.regions = append(p.regions[:start], both...)
	}
	in.reg, in.nReads, in.nWrites = uint32(start), uint32(nr), uint32(nw)
}

// parseInstr dispatches on the head field and reads the fields its
// kind takes.
func (p *parser) parseInstr(in *Instr) error {
	s := p.s
	// Skip a leading numeric index (disassembly emits one).
	if c := s[p.pos]; '0' <= c && c <= '9' || c == '+' || c == '-' {
		if _, n, ok := readInt(s[p.pos:], math.MaxInt64); ok && fieldEndsAt(s, p.pos+n) {
			if p.skip(p.pos + n); p.done() {
				return fmt.Errorf("index without instruction")
			}
		}
	}
	head := p.field()

	switch head {
	case "copy":
		arrow := p.field()
		if p.done() {
			return fmt.Errorf("copy needs a path and bytes")
		}
		src, dst, err := parseArrow(arrow)
		if err != nil {
			return err
		}
		sl, okS := levelNamed(src)
		dl, okD := levelNamed(dst)
		if !okS || !okD {
			return fmt.Errorf("unknown path %s", arrow)
		}
		in.Kind = KindTransfer
		in.Path = hw.Path{Src: sl, Dst: dl}
		if err := p.parseKVs(in); err != nil {
			return err
		}
		if in.Bytes <= 0 {
			return fmt.Errorf("copy needs bytes=N")
		}
		// Default regions when not given explicitly.
		if p.rhi == p.rlo {
			p.regions = append(p.regions, Region{Level: sl, Off: 0, Size: in.Bytes})
			p.rlo, p.rhi = len(p.regions)-1, len(p.regions)
		}
		if p.whi == p.wlo {
			p.regions = append(p.regions, Region{Level: dl, Off: 0, Size: in.Bytes})
			p.wlo, p.whi = len(p.regions)-1, len(p.regions)
		}
		return nil

	case "set_flag", "wait_flag":
		arrow := p.field()
		if p.done() {
			return fmt.Errorf("%s needs endpoints and ev=N", head)
		}
		from, to, err := parseArrow(arrow)
		if err != nil {
			return err
		}
		cf, okF := compNamed(from)
		ct, okT := compNamed(to)
		if !okF || !okT {
			return fmt.Errorf("unknown components %s", arrow)
		}
		f := p.field()
		if len(f) < 3 || f[:3] != "ev=" {
			return fmt.Errorf("expected ev=N, got %q", f)
		}
		ev, ok := atoi(f[3:], math.MaxInt32)
		if !ok {
			return fmt.Errorf("bad ev value in %q", f)
		}
		in.From, in.To, in.EventID = cf, ct, int32(ev)
		if head == "set_flag" {
			in.Kind = KindSetFlag
		} else {
			in.Kind = KindWaitFlag
		}
		return nil
	}

	const barrier = "pipe_barrier("
	if len(head) > len(barrier) && head[:len(barrier)] == barrier && head[len(head)-1] == ')' {
		arg := head[len(barrier) : len(head)-1]
		in.Kind = KindBarrier
		if arg == "PIPE_ALL" {
			in.Scope = BarrierAll
			return nil
		}
		c, ok := compNamed(arg)
		if !ok {
			return fmt.Errorf("unknown barrier pipe %q", arg)
		}
		in.Scope = BarrierPipe
		in.Pipe = c
		return nil
	}

	dot := strings.IndexByte(head, '.')
	if dot < 0 {
		return fmt.Errorf("unknown instruction %q", head)
	}
	u, okU := unitNamed(head[:dot])
	pr, okP := precNamed(head[dot+1:])
	if !okU || !okP {
		return fmt.Errorf("unknown precision-unit %q", head)
	}
	in.Kind = KindCompute
	in.Unit, in.Prec = u, pr
	in.Repeat = 1
	if err := p.parseKVs(in); err != nil {
		return err
	}
	if in.Ops <= 0 {
		return fmt.Errorf("compute needs ops=N")
	}
	return nil
}

// parseArrow splits "A->B" at its first "->".
func parseArrow(s string) (string, string, error) {
	for i := 0; i+1 < len(s); i++ {
		if s[i] == '-' && s[i+1] == '>' {
			return s[:i], s[i+2:], nil
		}
	}
	return "", "", fmt.Errorf("expected A->B, got %q", s)
}

// parseKVs reads the rest of the instruction part as
// ops=/repeat=/bytes=/reads=/writes= fields, each value where it stands
// in the line.
func (p *parser) parseKVs(in *Instr) error {
	s := p.s
	for !p.done() {
		start := p.pos
		k := keyAt(s[start:])
		if k == keyNone {
			return fmt.Errorf("unknown field %q", s[start:fieldEnd(s, start)])
		}
		v := start + len(keyNames[k]) + 1
		if k == keyReads || k == keyWrites {
			lo, hi, end, err := p.parseRegions(v)
			if err != nil {
				return err
			}
			if k == keyReads {
				p.rlo, p.rhi = lo, hi
			} else {
				p.wlo, p.whi = lo, hi
			}
			p.skip(end)
			continue
		}
		limit := uint64(math.MaxInt64)
		if k == keyRepeat {
			limit = math.MaxInt32
		}
		n, end, ok := readInt(s[v:], limit)
		if end += v; !ok || !fieldEndsAt(s, end) {
			return fmt.Errorf("bad %s value in %q", keyNames[k], s[start:fieldEnd(s, start)])
		}
		switch k {
		case keyOps:
			in.Ops = n
		case keyRepeat:
			in.Repeat = int32(n)
		case keyBytes:
			in.Bytes = n
		}
		p.skip(end)
	}
	return nil
}

// The keys of key=value fields.
const (
	keyNone = iota
	keyOps
	keyRepeat
	keyBytes
	keyReads
	keyWrites
)

var keyNames = [...]string{keyOps: "ops", keyRepeat: "repeat", keyBytes: "bytes", keyReads: "reads", keyWrites: "writes"}

// keyAt returns the key of the key=value field s starts with, or
// keyNone if s does not start with one the format knows.
func keyAt(s string) int {
	switch s[0] {
	case 'o':
		if len(s) > 3 && s[:4] == "ops=" {
			return keyOps
		}
	case 'r':
		if len(s) > 5 && s[:6] == "reads=" {
			return keyReads
		}
		if len(s) > 6 && s[:7] == "repeat=" {
			return keyRepeat
		}
	case 'b':
		if len(s) > 5 && s[:6] == "bytes=" {
			return keyBytes
		}
	case 'w':
		if len(s) > 6 && s[:7] == "writes=" {
			return keyWrites
		}
	}
	return keyNone
}

// parseRegions parses the "Level[off:end),Level[off:end)" value at
// offset i of the line onto the end of the arena. It returns the arena
// range the list took and the offset where the value ends.
func (p *parser) parseRegions(i int) (lo, hi, end int, err error) {
	s := p.s
	start := len(p.regions)
	for {
		part := i
		j := i
		for j < len(s) && ('A' <= s[j] && s[j] <= 'Z' || '0' <= s[j] && s[j] <= '9') {
			j++
		}
		level, ok := levelNamed(s[i:j])
		if !ok || j == len(s) || s[j] != '[' {
			return 0, 0, 0, regionError(s, part)
		}
		off, n, ok1 := readInt(s[j+1:], math.MaxInt64)
		if j += 1 + n; !ok1 || j == len(s) || s[j] != ':' {
			return 0, 0, 0, regionError(s, part)
		}
		bound, n, ok2 := readInt(s[j+1:], math.MaxInt64)
		if j += 1 + n; !ok2 || j == len(s) || s[j] != ')' || bound < off {
			return 0, 0, 0, regionError(s, part)
		}
		p.regions = append(p.regions, Region{Level: level, Off: off, Size: bound - off})
		if j++; j < len(s) && s[j] == ',' {
			i = j + 1
			continue
		}
		if !fieldEndsAt(s, j) {
			return 0, 0, 0, regionError(s, part)
		}
		return start, len(p.regions), j, nil
	}
}

// regionError reports the region of a list that starts at offset i of
// s and does not read as Level[off:end), naming the first of these it
// breaks: a '[' and a final ')', a known level before the '[', and
// integer bounds with end >= off.
func regionError(s string, i int) error {
	j := i
	for j < len(s) && s[j] != ',' && !fieldEndsAt(s, j) {
		_, n := utf8.DecodeRuneInString(s[j:])
		j += n
	}
	part := s[i:j]
	open := strings.IndexByte(part, '[')
	if open < 0 || !strings.HasSuffix(part, ")") {
		return fmt.Errorf("bad region %q", part)
	}
	if _, ok := levelNamed(part[:open]); !ok {
		return fmt.Errorf("unknown level in region %q", part)
	}
	return fmt.Errorf("bad region bounds %q", part)
}

// readInt reads the base-10 integer that s starts with: an optional
// sign and the digits after it. It returns the value, the bytes read,
// and whether they hold at least one digit and the value lies in
// [-limit-1, limit], so that for limit = 1<<(bits-1) - 1 a whole string
// reads ok exactly when strconv.ParseInt(s, 10, bits) accepts it.
func readInt(s string, limit uint64) (v int64, n int, ok bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		n = 1
	}
	first := n
	// Up to cut, u*10+9 cannot wrap; past it, u saturates, out of every
	// range.
	const cut = (1<<64 - 1 - 9) / 10
	var u uint64
	for ; n < len(s) && '0' <= s[n] && s[n] <= '9'; n++ {
		if u <= cut {
			u = u*10 + uint64(s[n]-'0')
		} else {
			u = 1<<64 - 1
		}
	}
	if neg {
		limit++
	}
	if n == first || u > limit {
		return 0, n, false
	}
	if neg {
		return -int64(u), n, true
	}
	return int64(u), n, true
}

// atoi reads s as a whole like readInt.
func atoi(s string, limit uint64) (int64, bool) {
	v, n, ok := readInt(s, limit)
	return v, ok && n == len(s)
}

// Name tables of the text format.

func unitNamed(s string) (hw.Unit, bool) {
	switch s {
	case "Cube":
		return hw.Cube, true
	case "Vector":
		return hw.Vector, true
	case "Scalar":
		return hw.Scalar, true
	}
	return 0, false
}

func precNamed(s string) (hw.Precision, bool) {
	switch s {
	case "INT8":
		return hw.INT8, true
	case "FP16":
		return hw.FP16, true
	case "FP32":
		return hw.FP32, true
	case "FP64":
		return hw.FP64, true
	case "INT32":
		return hw.INT32, true
	}
	return 0, false
}

func levelNamed(s string) (hw.Level, bool) {
	switch s {
	case "GM":
		return hw.GM, true
	case "L1":
		return hw.L1, true
	case "UB":
		return hw.UB, true
	case "L0A":
		return hw.L0A, true
	case "L0B":
		return hw.L0B, true
	case "L0C":
		return hw.L0C, true
	}
	return 0, false
}

func compNamed(s string) (hw.Component, bool) {
	switch s {
	case "Cube":
		return hw.CompCube, true
	case "Vector":
		return hw.CompVector, true
	case "Scalar":
		return hw.CompScalar, true
	case "MTE-GM":
		return hw.CompMTEGM, true
	case "MTE-L1":
		return hw.CompMTEL1, true
	case "MTE-UB":
		return hw.CompMTEUB, true
	}
	return 0, false
}
