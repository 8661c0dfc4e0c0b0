package isa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
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
// text once, and a valid program costs four allocations whatever its
// length: the Program, its instruction slice, its region arena, and one
// string holding every label (so the program does not keep text alive).
// Only a line with a non-ASCII byte, more than 16 fields or more than 8
// regions given out of order allocates on its own.
func ParseString(name, text string) (*Program, error) {
	prog := &Program{Name: name}
	// A valid instruction line takes at least 16 bytes with its newline
	// ("Cube.INT8 ops=1"), which caps the pre-size on blank-line input.
	size := min(strings.Count(text, "\n"), len(text)/16) + 1
	// Every explicit region has a '[' and a copy adds at most two default
	// regions, so a valid program's regions fit the arena.
	p := parser{regions: make([]Region, 0, strings.Count(text, "[")+2*strings.Count(text, "copy"))}
	labelBytes := 0
	for lineNo := 1; text != ""; lineNo++ {
		line := text
		if i := strings.IndexByte(text, '\n'); i >= 0 {
			line, text = text[:i], text[i+1:]
		} else {
			text = ""
		}
		if len(line) > maxLine {
			return nil, fmt.Errorf("isa: %s: %w", name, bufio.ErrTooLong)
		}
		line = strings.TrimSpace(line)
		if line == "" || line[0] == ';' {
			continue
		}
		if prog.Instrs == nil {
			prog.Instrs = make([]Instr, 0, size)
		}
		prog.Instrs = append(prog.Instrs, Instr{})
		in := &prog.Instrs[len(prog.Instrs)-1]
		if err := p.parseLine(line, in); err != nil {
			return nil, fmt.Errorf("isa: %s:%d: %w", name, lineNo, err)
		}
		labelBytes += len(in.Label)
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

// parser holds the region arena of one program and, for the line being
// parsed, the arena ranges [rlo, rhi) and [wlo, whi) of its read and
// write lists. A line's lists are appended to the arena in the order
// they appear; place moves them to the arena layout, reads then writes.
type parser struct {
	regions            []Region
	rlo, rhi, wlo, whi int
}

// parseLine parses one instruction line (trimmed, not a comment) into
// the zero instruction in.
func (p *parser) parseLine(line string, in *Instr) error {
	start := len(p.regions)
	p.rlo, p.rhi, p.wlo, p.whi = start, start, start, start
	if err := p.parseInstr(line, in); err != nil {
		return err
	}
	p.place(in, start)
	return nil
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

// parseInstr parses the fields of one instruction line.
func (p *parser) parseInstr(line string, in *Instr) error {
	// Split off the label comment.
	if i := labelAt(line); i >= 0 {
		in.Label = strings.TrimSpace(line[i+3:])
		line = strings.TrimSpace(line[:i])
	}
	var buf [16]string
	fields := splitFields(line, &buf)
	if len(fields) == 0 {
		return fmt.Errorf("empty instruction")
	}
	// Strip a leading numeric index (disassembly emits one).
	if c := fields[0][0]; '0' <= c && c <= '9' || c == '+' || c == '-' {
		if _, err := strconv.Atoi(fields[0]); err == nil {
			fields = fields[1:]
			if len(fields) == 0 {
				return fmt.Errorf("index without instruction")
			}
		}
	}

	head := fields[0]
	rest := fields[1:]
	switch {
	case head == "copy":
		if len(rest) < 2 {
			return fmt.Errorf("copy needs a path and bytes")
		}
		src, dst, err := parseArrow(rest[0])
		if err != nil {
			return err
		}
		sl, okS := levelNamed(src)
		dl, okD := levelNamed(dst)
		if !okS || !okD {
			return fmt.Errorf("unknown path %s", rest[0])
		}
		in.Kind = KindTransfer
		in.Path = hw.Path{Src: sl, Dst: dl}
		if err := p.parseKVs(rest[1:], in); err != nil {
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

	case head == "set_flag" || head == "wait_flag":
		if len(rest) < 2 {
			return fmt.Errorf("%s needs endpoints and ev=N", head)
		}
		from, to, err := parseArrow(rest[0])
		if err != nil {
			return err
		}
		cf, okF := compNamed(from)
		ct, okT := compNamed(to)
		if !okF || !okT {
			return fmt.Errorf("unknown components %s", rest[0])
		}
		ev, err := parseInt(rest[1], "ev", 32)
		if err != nil {
			return err
		}
		in.From, in.To, in.EventID = cf, ct, int32(ev)
		if head == "set_flag" {
			in.Kind = KindSetFlag
		} else {
			in.Kind = KindWaitFlag
		}

	case strings.HasPrefix(head, "pipe_barrier(") && strings.HasSuffix(head, ")"):
		arg := head[len("pipe_barrier(") : len(head)-1]
		in.Kind = KindBarrier
		if arg == "PIPE_ALL" {
			in.Scope = BarrierAll
		} else {
			c, ok := compNamed(arg)
			if !ok {
				return fmt.Errorf("unknown barrier pipe %q", arg)
			}
			in.Scope = BarrierPipe
			in.Pipe = c
		}

	case strings.IndexByte(head, '.') >= 0:
		unit, prec, _ := strings.Cut(head, ".")
		u, okU := unitNamed(unit)
		pr, okP := precNamed(prec)
		if !okU || !okP {
			return fmt.Errorf("unknown precision-unit %q", head)
		}
		in.Kind = KindCompute
		in.Unit, in.Prec = u, pr
		in.Repeat = 1
		if err := p.parseKVs(rest, in); err != nil {
			return err
		}
		if in.Ops <= 0 {
			return fmt.Errorf("compute needs ops=N")
		}

	default:
		return fmt.Errorf("unknown instruction %q", head)
	}
	return nil
}

// labelAt returns the index of the first " ; " in line, or -1. It
// looks for the rare ';' and checks its neighbours, where a substring
// search would stop at every space.
func labelAt(line string) int {
	for off := 0; ; {
		k := strings.IndexByte(line[off:], ';')
		if k < 0 {
			return -1
		}
		k += off
		if k > 0 && k+1 < len(line) && line[k-1] == ' ' && line[k+1] == ' ' {
			return k - 1
		}
		off = k + 1
	}
}

// splitFields splits s around runs of white space exactly as
// strings.Fields does. An ASCII line is split into buf, without
// allocating while it has at most len(buf) fields; any other line is
// left to strings.Fields and its Unicode white space.
func splitFields(s string, buf *[16]string) []string {
	out := buf[:0]
	start := -1
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= utf8.RuneSelf:
			return strings.Fields(s)
		case c == ' ' || '\t' <= c && c <= '\r':
			if start >= 0 {
				out = append(out, s[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		out = append(out, s[start:])
	}
	return out
}

// parseArrow splits "A->B".
func parseArrow(s string) (string, string, error) {
	a, b, ok := strings.Cut(s, "->")
	if !ok {
		return "", "", fmt.Errorf("expected A->B, got %q", s)
	}
	return a, b, nil
}

// parseInt parses "key=value" as a signed integer of the given bit size.
func parseInt(s, key string, bits int) (int64, error) {
	// Compared piecewise: HasPrefix(s, key+"=") builds the prefix for
	// every field, a measurable share of the parse.
	if len(s) <= len(key) || s[len(key)] != '=' || s[:len(key)] != key {
		return 0, fmt.Errorf("expected %s=N, got %q", key, s)
	}
	v, err := strconv.ParseInt(s[len(key)+1:], 10, bits)
	if err != nil {
		return 0, fmt.Errorf("bad %s value in %q", key, s)
	}
	return v, nil
}

// parseKVs consumes ops=/repeat=/bytes=/reads=/writes= fields.
func (p *parser) parseKVs(fields []string, in *Instr) error {
	for _, f := range fields {
		eq := strings.IndexByte(f, '=')
		if eq < 0 {
			return fmt.Errorf("unknown field %q", f)
		}
		key, val := f[:eq], f[eq+1:]
		var err error
		switch key {
		case "ops":
			in.Ops, err = parseInt(f, key, 64)
		case "repeat":
			var v int64
			v, err = parseInt(f, key, 32)
			in.Repeat = int32(v)
		case "bytes":
			in.Bytes, err = parseInt(f, key, 64)
		case "reads":
			p.rlo, p.rhi, err = p.parseRegions(val)
		case "writes":
			p.wlo, p.whi, err = p.parseRegions(val)
		default:
			return fmt.Errorf("unknown field %q", f)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// parseRegions parses "Level[off:end),Level[off:end)" onto the end of
// the arena and returns the range it took.
func (p *parser) parseRegions(s string) (lo, hi int, err error) {
	start := len(p.regions)
	for more := true; more; {
		var part string
		part, s, more = strings.Cut(s, ",")
		open := strings.IndexByte(part, '[')
		if open < 0 || !strings.HasSuffix(part, ")") {
			return 0, 0, fmt.Errorf("bad region %q", part)
		}
		level, ok := levelNamed(part[:open])
		if !ok {
			return 0, 0, fmt.Errorf("unknown level in region %q", part)
		}
		lo, hi, ok := strings.Cut(part[open+1:len(part)-1], ":")
		if !ok {
			return 0, 0, fmt.Errorf("bad region bounds %q", part)
		}
		off, err1 := strconv.ParseInt(lo, 10, 64)
		end, err2 := strconv.ParseInt(hi, 10, 64)
		if err1 != nil || err2 != nil || end < off {
			return 0, 0, fmt.Errorf("bad region bounds %q", part)
		}
		p.regions = append(p.regions, Region{Level: level, Off: off, Size: end - off})
	}
	return start, len(p.regions), nil
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
