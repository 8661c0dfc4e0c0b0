package trace

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"unicode/utf8"
)

// writeDocument emits doc as indented JSON in one append pass. The bytes
// are exactly those of a json.Encoder with SetIndent("", " ") encoding
// the same document: struct fields in declaration order with omitempty
// honoured, map keys sorted, strings escaped as encoding/json escapes
// them (HTML metacharacters, control bytes, U+2028/U+2029, invalid UTF-8
// as \ufffd), floats in encoding/json's number format, and a trailing
// newline. TestWriteMatchesReference holds it to that encoder.
func writeDocument(w io.Writer, doc *Document) error {
	e := docEncoder{buf: make([]byte, 0, 256+256*len(doc.TraceEvents))}
	e.document(doc)
	if e.err != nil {
		return e.err
	}
	_, err := w.Write(e.buf)
	return err
}

// docEncoder appends one Document. The first unsupported value (a NaN
// or infinite float, an args value of a type documents never carry)
// sticks in err, and the caller discards the buffer.
type docEncoder struct {
	buf []byte
	err error
}

// newline starts a new line indented to depth.
func (e *docEncoder) newline(depth int) {
	e.buf = append(e.buf, '\n')
	for ; depth > 0; depth-- {
		e.buf = append(e.buf, ' ')
	}
}

// field starts an object member at depth; key must need no escaping.
func (e *docEncoder) field(depth int, first bool, key string) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.newline(depth)
	e.buf = append(e.buf, '"')
	e.buf = append(e.buf, key...)
	e.buf = append(e.buf, '"', ':', ' ')
}

func (e *docEncoder) document(doc *Document) {
	e.buf = append(e.buf, '{')
	e.field(1, true, "traceEvents")
	if doc.TraceEvents == nil {
		e.buf = append(e.buf, "null"...)
	} else if len(doc.TraceEvents) == 0 {
		e.buf = append(e.buf, '[', ']')
	} else {
		e.buf = append(e.buf, '[')
		for i := range doc.TraceEvents {
			if i > 0 {
				e.buf = append(e.buf, ',')
			}
			e.newline(2)
			e.event(&doc.TraceEvents[i])
		}
		e.newline(1)
		e.buf = append(e.buf, ']')
	}
	e.field(1, false, "displayTimeUnit")
	e.string(doc.DisplayTimeUnit)
	e.field(1, false, "otherData")
	if doc.OtherData == nil {
		e.buf = append(e.buf, "null"...)
	} else {
		e.object(1, doc.OtherData)
	}
	e.newline(0)
	e.buf = append(e.buf, '}', '\n')
}

// event appends one Event at depth 2, following its json tags.
func (e *docEncoder) event(ev *Event) {
	const d = 3
	e.buf = append(e.buf, '{')
	e.field(d, true, "name")
	e.string(ev.Name)
	if ev.Cat != "" {
		e.field(d, false, "cat")
		e.string(ev.Cat)
	}
	e.field(d, false, "ph")
	e.string(ev.Ph)
	e.field(d, false, "ts")
	e.float(ev.TS)
	if ev.Dur != nil {
		e.field(d, false, "dur")
		e.float(*ev.Dur)
	}
	e.field(d, false, "pid")
	e.buf = strconv.AppendInt(e.buf, int64(ev.PID), 10)
	e.field(d, false, "tid")
	e.buf = strconv.AppendInt(e.buf, int64(ev.TID), 10)
	if ev.ID != 0 {
		e.field(d, false, "id")
		e.buf = strconv.AppendInt(e.buf, int64(ev.ID), 10)
	}
	if ev.BP != "" {
		e.field(d, false, "bp")
		e.string(ev.BP)
	}
	if ev.Scope != "" {
		e.field(d, false, "s")
		e.string(ev.Scope)
	}
	if ev.CName != "" {
		e.field(d, false, "cname")
		e.string(ev.CName)
	}
	if len(ev.Args) > 0 {
		e.field(d, false, "args")
		e.object(d, ev.Args)
	}
	e.newline(d - 1)
	e.buf = append(e.buf, '}')
}

// object appends a map whose braces sit on lines indented to depth and
// whose members sit one level deeper, keys in sorted order.
func (e *docEncoder) object(depth int, m map[string]any) {
	if len(m) == 0 {
		e.buf = append(e.buf, '{', '}')
		return
	}
	var small [8]string
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: args maps hold a handful of keys.
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	e.buf = append(e.buf, '{')
	for i, k := range keys {
		if i > 0 {
			e.buf = append(e.buf, ',')
		}
		e.newline(depth + 1)
		e.string(k)
		e.buf = append(e.buf, ':', ' ')
		e.value(m[k])
	}
	e.newline(depth)
	e.buf = append(e.buf, '}')
}

// value appends one args or otherData value: the scalar types New and
// NewGraph put there.
func (e *docEncoder) value(v any) {
	switch v := v.(type) {
	case string:
		e.string(v)
	case bool:
		e.buf = strconv.AppendBool(e.buf, v)
	case int:
		e.buf = strconv.AppendInt(e.buf, int64(v), 10)
	case int64:
		e.buf = strconv.AppendInt(e.buf, v, 10)
	case float64:
		e.float(v)
	default:
		if e.err == nil {
			e.err = fmt.Errorf("trace: unsupported value type %T", v)
		}
	}
}

// float appends f in encoding/json's format: shortest round-trip
// digits, exponent form below 1e-6 and from 1e21, exponent without a
// leading zero.
func (e *docEncoder) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		if e.err == nil {
			e.err = fmt.Errorf("trace: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
		}
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	e.buf = strconv.AppendFloat(e.buf, f, format, -1, 64)
	if format == 'e' {
		// e-09 -> e-9
		if n := len(e.buf); e.buf[n-4] == 'e' && e.buf[n-3] == '-' && e.buf[n-2] == '0' {
			e.buf[n-2] = e.buf[n-1]
			e.buf = e.buf[:n-1]
		}
	}
}

const hexDigits = "0123456789abcdef"

// string appends s quoted the way encoding/json quotes with HTML
// escaping on.
func (e *docEncoder) string(s string) {
	b := append(e.buf, '"')
	start := 0
	for i := 0; i < len(s); {
		c := s[i]
		if c < utf8.RuneSelf {
			if c >= 0x20 && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&' {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '"', '\\':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	e.buf = append(b, '"')
}
