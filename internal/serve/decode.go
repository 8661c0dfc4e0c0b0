package serve

import (
	"bytes"
	"crypto/sha256"
	"strings"
)

// decodeSimulateRequest decodes the SimulateRequest body of the
// simulate, roofline and trace endpoints and returns it with its request
// key: in one scan of the body for the grammar every real client sends,
// through decodeStrict and requestKey for anything else. Both paths give
// the same value, key and error for every body (FuzzDecodeSimulate).
//
// The scan covers one object of ASCII keys naming SimulateRequest
// fields in any letter case (the last duplicate wins, as in
// encoding/json), with string and true/false values, whitespace between
// tokens and only whitespace after the closing brace. Strings hold ASCII
// and escapes of ASCII only. Everything else — malformed or trailing
// data, unknown fields, null, numbers, non-ASCII bytes or \u escapes of
// non-ASCII — goes to encoding/json, so its error text, its Unicode key
// folding and its U+FFFD replacement hold by construction.
func decodeSimulateRequest(endpoint string, body []byte) (SimulateRequest, [32]byte, error) {
	var d simulateScan
	if d.scan(body) {
		req := d.request()
		return req, d.key(endpoint, req), nil
	}
	var req SimulateRequest
	if err := decodeStrict(body, &req); err != nil {
		return SimulateRequest{}, [32]byte{}, err
	}
	return req, requestKey(endpoint, req), nil
}

// simulateFields are SimulateRequest's JSON field names in declaration
// order, the order encoding/json writes them in; TestSimulateFields
// holds them to the struct tags.
var simulateFields = [...]string{"chip", "op", "optimized", "program", "disable_hazards"}

const (
	fieldChip = iota
	fieldOp
	fieldOptimized
	fieldProgram
	fieldDisableHazards
)

// simulateScan is one scan of a SimulateRequest body: the last value
// token of each field, and every string value unescaped back to back
// into one buffer, sized by the body, which the decoded strings share.
type simulateScan struct {
	toks [len(simulateFields)]token
	out  strings.Builder
}

// token is one raw value token: a string with its quotes, or
// true/false; nil raw for a missing field.
type token struct {
	raw []byte
	// off and end place a string's unescaped value in simulateScan.out.
	off, end int
	// canonical reports whether raw is byte for byte what encoding/json
	// writes for the value.
	canonical bool
}

// Byte classes inside a string token.
const (
	// classPlain bytes stand for themselves and encoding/json writes
	// them unescaped.
	classPlain = iota
	// classHTML bytes ('<', '>', '&') stand for themselves, but
	// encoding/json writes them as \u003c, \u003e and \u0026.
	classHTML
	classQuote
	classEscape
	// classOther bytes are control characters, which JSON forbids in a
	// string, or non-ASCII, which the scan leaves to encoding/json.
	classOther
)

var strClass = func() (t [256]uint8) {
	for c := range t {
		switch {
		case c < 0x20 || c >= 0x80:
			t[c] = classOther
		case c == '<' || c == '>' || c == '&':
			t[c] = classHTML
		case c == '"':
			t[c] = classQuote
		case c == '\\':
			t[c] = classEscape
		}
	}
	return t
}()

// shortEscape maps the byte after a backslash to the byte it stands for,
// for every escape but \u; zero marks an invalid escape.
var shortEscape = [256]byte{'"': '"', '\\': '\\', '/': '/', 'b': '\b', 'f': '\f', 'n': '\n', 'r': '\r', 't': '\t'}

// skipSpace returns the index of the first byte at or after i that is
// not JSON whitespace.
func skipSpace(b []byte, i int) int {
	for i < len(b) && (b[i] == ' ' || b[i] == '\t' || b[i] == '\n' || b[i] == '\r') {
		i++
	}
	return i
}

// scan reads body as one object in the fast grammar, recording the
// last token of each field and unescaping every string value into
// d.out. It reports false for anything outside that grammar, valid JSON
// or not.
func (d *simulateScan) scan(body []byte) bool {
	d.out.Grow(len(body))
	i := skipSpace(body, 0)
	if i == len(body) || body[i] != '{' {
		return false
	}
	i = skipSpace(body, i+1)
	if i < len(body) && body[i] == '}' {
		return skipSpace(body, i+1) == len(body)
	}
	for {
		f, next := scanKey(body, i)
		if f < 0 {
			return false
		}
		i = skipSpace(body, next)
		if i == len(body) || body[i] != ':' {
			return false
		}
		i = skipSpace(body, i+1)
		if f == fieldOptimized || f == fieldDisableHazards {
			switch {
			case bytes.HasPrefix(body[i:], []byte("true")):
				d.toks[f] = token{raw: body[i : i+4], canonical: true}
			case bytes.HasPrefix(body[i:], []byte("false")):
				d.toks[f] = token{raw: body[i : i+5], canonical: true}
			default:
				return false
			}
			i += len(d.toks[f].raw)
		} else {
			tok, ok := d.scanString(body, i)
			if !ok {
				return false
			}
			d.toks[f] = tok
			i += len(tok.raw)
		}
		i = skipSpace(body, i)
		if i == len(body) {
			return false
		}
		switch body[i] {
		case ',':
			i = skipSpace(body, i+1)
		case '}':
			return skipSpace(body, i+1) == len(body)
		default:
			return false
		}
	}
}

// scanKey reads the object key at i and returns the SimulateRequest
// field it names, matched as encoding/json matches an ASCII key (exactly,
// else ignoring ASCII letter case), and the index after its closing
// quote; -1 for a key with an escape or a non-ASCII byte, or one that
// names no field.
func scanKey(b []byte, i int) (int, int) {
	if i == len(b) || b[i] != '"' {
		return -1, 0
	}
	start := i + 1
	end := start
	for end < len(b) && strClass[b[end]] <= classHTML {
		end++
	}
	if end == len(b) || b[end] != '"' {
		return -1, 0
	}
	key := b[start:end]
	for f, name := range simulateFields {
		if len(key) == len(name) && foldEqual(key, name) {
			return f, end + 1
		}
	}
	return -1, 0
}

// foldEqual reports whether the ASCII key equals name (lower case)
// ignoring ASCII letter case.
func foldEqual(key []byte, name string) bool {
	for j := range key {
		c := key[j]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != name[j] {
			return false
		}
	}
	return true
}

// scanString reads the string token at i, which must hold only ASCII and
// escapes of ASCII, and appends its unescaped value to d.out.
func (d *simulateScan) scanString(b []byte, i int) (token, bool) {
	if i == len(b) || b[i] != '"' {
		return token{}, false
	}
	tok := token{off: d.out.Len(), canonical: true}
	j := i + 1
	run := j // start of the bytes not yet copied to d.out
	for {
		for j < len(b) && strClass[b[j]] == classPlain {
			j++
		}
		if j == len(b) {
			return token{}, false
		}
		switch strClass[b[j]] {
		case classHTML:
			tok.canonical = false
			j++
			continue
		case classQuote:
			d.out.Write(b[run:j])
			tok.raw, tok.end = b[i:j+1], d.out.Len()
			return tok, true
		case classOther:
			return token{}, false
		}
		d.out.Write(b[run:j])
		if j+1 == len(b) {
			return token{}, false
		}
		if c := b[j+1]; c != 'u' {
			v := shortEscape[c]
			if v == 0 {
				return token{}, false
			}
			if c == '/' {
				tok.canonical = false
			}
			d.out.WriteByte(v)
			j += 2
		} else {
			v, ok := hex4(b, j+2)
			if !ok || v >= 0x80 {
				return token{}, false
			}
			if !canonicalU(b[j:j+6], byte(v)) {
				tok.canonical = false
			}
			d.out.WriteByte(byte(v))
			j += 6
		}
		run = j
	}
}

// hex4 decodes the four hex digits at i.
func hex4(b []byte, i int) (rune, bool) {
	if len(b)-i < 4 {
		return 0, false
	}
	var v rune
	for _, c := range b[i : i+4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c -= 'a' - 10
		case 'A' <= c && c <= 'F':
			c -= 'A' - 10
		default:
			return 0, false
		}
		v = v<<4 | rune(c)
	}
	return v, true
}

// canonicalU reports whether the six-byte escape esc of the ASCII byte v
// is the one encoding/json writes: only control characters without a
// short escape and the HTML metacharacters take the \u form, always
// \u00 and two lower-case hex digits.
func canonicalU(esc []byte, v byte) bool {
	const hex = "0123456789abcdef"
	switch v {
	case '\b', '\f', '\n', '\r', '\t':
		return false
	case '<', '>', '&':
	default:
		if v >= 0x20 {
			return false
		}
	}
	return esc[2] == '0' && esc[3] == '0' && esc[4] == hex[v>>4] && esc[5] == hex[v&0xf]
}

// request returns the decoded request: its strings are slices of the
// one buffer the scan filled.
func (d *simulateScan) request() SimulateRequest {
	all := d.out.String()
	str := func(f int) string { return all[d.toks[f].off:d.toks[f].end] }
	return SimulateRequest{
		Chip:           str(fieldChip),
		Op:             str(fieldOp),
		Optimized:      string(d.toks[fieldOptimized].raw) == "true",
		Program:        str(fieldProgram),
		DisableHazards: string(d.toks[fieldDisableHazards].raw) == "true",
	}
}

// key digests the request as requestKey does. When every string token
// is already in encoding/json's escaping, the compact canonical form is
// written straight from the raw tokens instead of re-encoding req.
func (d *simulateScan) key(endpoint string, req SimulateRequest) [32]byte {
	for _, tok := range d.toks {
		if tok.raw != nil && !tok.canonical {
			return requestKey(endpoint, req)
		}
	}
	// The small pieces gather in one buffer; the program token, the one
	// that can be large, is hashed straight from the body.
	h := sha256.New()
	buf := make([]byte, 0, 128)
	buf = append(append(buf, endpoint...), 0)
	buf = append(buf, `{"chip":`...)
	if req.Chip == "" {
		buf = append(buf, `""`...)
	} else {
		buf = append(buf, d.toks[fieldChip].raw...)
	}
	if req.Op != "" {
		buf = append(append(buf, `,"op":`...), d.toks[fieldOp].raw...)
	}
	if req.Optimized {
		buf = append(buf, `,"optimized":true`...)
	}
	if req.Program != "" {
		h.Write(append(buf, `,"program":`...))
		h.Write(d.toks[fieldProgram].raw)
		buf = buf[:0]
	}
	if req.DisableHazards {
		buf = append(buf, `,"disable_hazards":true`...)
	}
	h.Write(append(buf, '}'))
	var key [32]byte
	h.Sum(key[:0])
	return key
}
