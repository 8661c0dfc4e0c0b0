package isa

// Encode returns, in one piece, the byte stream Fingerprint hashes for
// p, so tests can check the encoding itself.
func Encode(p *Program) []byte {
	buf := appendProgramHeader(nil, p)
	for i := range p.Instrs {
		buf = appendInstr(buf, &p.Instrs[i])
	}
	return buf
}
