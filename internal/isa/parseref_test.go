package isa

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"

	"ascendperf/internal/hw"
)

// This file keeps the line-scanner parser that Parse replaced, copied
// verbatim apart from the ref prefix on its names, the refInstr that
// carries an instruction's regions until it is appended, and the 32-bit
// range of repeat and ev. It is the reference
// the production parser is checked against: the same programs, the same
// fingerprints and byte-identical error text (TestParseMatchesReference,
// FuzzParse).

// ReferenceParse exposes the reference parser to the external test
// package, which needs the kernel registry and the program generator.
func ReferenceParse(name string, r io.Reader) (*Program, error) { return refParse(name, r) }

// refParse is the scanner-based Parse.
func refParse(name string, r io.Reader) (*Program, error) {
	prog := &Program{Name: name}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, ";") {
			continue
		}
		in, err := refParseLine(line)
		if err != nil {
			return nil, fmt.Errorf("isa: %s:%d: %w", name, lineNo, err)
		}
		prog.AppendWith(in.Instr, in.reads, in.writes)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("isa: %s: %w", name, err)
	}
	return prog, nil
}

// parser name tables.
var (
	refParseUnit = map[string]hw.Unit{"Cube": hw.Cube, "Vector": hw.Vector, "Scalar": hw.Scalar}
	refParsePrec = map[string]hw.Precision{
		"INT8": hw.INT8, "FP16": hw.FP16, "FP32": hw.FP32, "FP64": hw.FP64, "INT32": hw.INT32,
	}
	refParseLevel = map[string]hw.Level{
		"GM": hw.GM, "L1": hw.L1, "UB": hw.UB, "L0A": hw.L0A, "L0B": hw.L0B, "L0C": hw.L0C,
	}
	refParseComp = map[string]hw.Component{
		"Cube": hw.CompCube, "Vector": hw.CompVector, "Scalar": hw.CompScalar,
		"MTE-GM": hw.CompMTEGM, "MTE-L1": hw.CompMTEL1, "MTE-UB": hw.CompMTEUB,
	}
)

// refInstr is a parsed instruction with its regions.
type refInstr struct {
	Instr
	reads, writes []Region
}

// refParseLine parses one instruction line (without index or surrounding
// whitespace).
func refParseLine(line string) (refInstr, error) {
	// Split off the label comment.
	var label string
	if i := strings.Index(line, " ; "); i >= 0 {
		label = strings.TrimSpace(line[i+3:])
		line = strings.TrimSpace(line[:i])
	}
	// Strip a leading numeric index (disassembly emits one).
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return refInstr{}, fmt.Errorf("empty instruction")
	}
	if _, err := strconv.Atoi(fields[0]); err == nil {
		fields = fields[1:]
		if len(fields) == 0 {
			return refInstr{}, fmt.Errorf("index without instruction")
		}
	}

	var in refInstr
	head := fields[0]
	rest := fields[1:]
	switch {
	case head == "copy":
		if len(rest) < 2 {
			return refInstr{}, fmt.Errorf("copy needs a path and bytes")
		}
		src, dst, err := refParseArrow(rest[0])
		if err != nil {
			return refInstr{}, err
		}
		sl, okS := refParseLevel[src]
		dl, okD := refParseLevel[dst]
		if !okS || !okD {
			return refInstr{}, fmt.Errorf("unknown path %s", rest[0])
		}
		in.Kind = KindTransfer
		in.Path = hw.Path{Src: sl, Dst: dl}
		if err := refParseKVs(rest[1:], &in); err != nil {
			return refInstr{}, err
		}
		if in.Bytes <= 0 {
			return refInstr{}, fmt.Errorf("copy needs bytes=N")
		}
		// Default regions when not given explicitly.
		if len(in.reads) == 0 {
			in.reads = []Region{{Level: sl, Off: 0, Size: in.Bytes}}
		}
		if len(in.writes) == 0 {
			in.writes = []Region{{Level: dl, Off: 0, Size: in.Bytes}}
		}

	case head == "set_flag" || head == "wait_flag":
		if len(rest) < 2 {
			return refInstr{}, fmt.Errorf("%s needs endpoints and ev=N", head)
		}
		from, to, err := refParseArrow(rest[0])
		if err != nil {
			return refInstr{}, err
		}
		cf, okF := refParseComp[from]
		ct, okT := refParseComp[to]
		if !okF || !okT {
			return refInstr{}, fmt.Errorf("unknown components %s", rest[0])
		}
		ev, err := refParseInt(rest[1], "ev", 32)
		if err != nil {
			return refInstr{}, err
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
			c, ok := refParseComp[arg]
			if !ok {
				return refInstr{}, fmt.Errorf("unknown barrier pipe %q", arg)
			}
			in.Scope = BarrierPipe
			in.Pipe = c
		}

	case strings.Contains(head, "."):
		parts := strings.SplitN(head, ".", 2)
		u, okU := refParseUnit[parts[0]]
		p, okP := refParsePrec[parts[1]]
		if !okU || !okP {
			return refInstr{}, fmt.Errorf("unknown precision-unit %q", head)
		}
		in.Kind = KindCompute
		in.Unit, in.Prec = u, p
		in.Repeat = 1
		if err := refParseKVs(rest, &in); err != nil {
			return refInstr{}, err
		}
		if in.Ops <= 0 {
			return refInstr{}, fmt.Errorf("compute needs ops=N")
		}

	default:
		return refInstr{}, fmt.Errorf("unknown instruction %q", head)
	}
	in.Label = label
	return in, nil
}

// refParseArrow splits "A->B".
func refParseArrow(s string) (string, string, error) {
	parts := strings.SplitN(s, "->", 2)
	if len(parts) != 2 {
		return "", "", fmt.Errorf("expected A->B, got %q", s)
	}
	return parts[0], parts[1], nil
}

// parseInt parses "key=value".
func refParseInt(s, key string, bits int) (int64, error) {
	if !strings.HasPrefix(s, key+"=") {
		return 0, fmt.Errorf("expected %s=N, got %q", key, s)
	}
	v, err := strconv.ParseInt(s[len(key)+1:], 10, bits)
	if err != nil {
		return 0, fmt.Errorf("bad %s value in %q", key, s)
	}
	return v, nil
}

// refParseKVs consumes ops=/repeat=/bytes=/reads=/writes= fields.
func refParseKVs(fields []string, in *refInstr) error {
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "ops="):
			v, err := refParseInt(f, "ops", 64)
			if err != nil {
				return err
			}
			in.Ops = v
		case strings.HasPrefix(f, "repeat="):
			v, err := refParseInt(f, "repeat", 32)
			if err != nil {
				return err
			}
			in.Repeat = int32(v)
		case strings.HasPrefix(f, "bytes="):
			v, err := refParseInt(f, "bytes", 64)
			if err != nil {
				return err
			}
			in.Bytes = v
		case strings.HasPrefix(f, "reads="):
			rs, err := refParseRegions(f[len("reads="):])
			if err != nil {
				return err
			}
			in.reads = rs
		case strings.HasPrefix(f, "writes="):
			rs, err := refParseRegions(f[len("writes="):])
			if err != nil {
				return err
			}
			in.writes = rs
		default:
			return fmt.Errorf("unknown field %q", f)
		}
	}
	return nil
}

// refParseRegions parses "Level[off:end),Level[off:end)".
func refParseRegions(s string) ([]Region, error) {
	var out []Region
	for _, part := range strings.Split(s, ",") {
		open := strings.Index(part, "[")
		if open < 0 || !strings.HasSuffix(part, ")") {
			return nil, fmt.Errorf("bad region %q", part)
		}
		level, ok := refParseLevel[part[:open]]
		if !ok {
			return nil, fmt.Errorf("unknown level in region %q", part)
		}
		bounds := strings.SplitN(part[open+1:len(part)-1], ":", 2)
		if len(bounds) != 2 {
			return nil, fmt.Errorf("bad region bounds %q", part)
		}
		off, err1 := strconv.ParseInt(bounds[0], 10, 64)
		end, err2 := strconv.ParseInt(bounds[1], 10, 64)
		if err1 != nil || err2 != nil || end < off {
			return nil, fmt.Errorf("bad region bounds %q", part)
		}
		out = append(out, Region{Level: level, Off: off, Size: end - off})
	}
	return out, nil
}
