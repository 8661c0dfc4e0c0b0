package isa

// Encode returns, in one piece, the byte stream Fingerprint hashes for
// p, so tests can check the encoding itself.
func Encode(p *Program) []byte {
	buf := appendProgramHeader(nil, p)
	for i := range p.Instrs {
		buf = appendInstr(buf, &p.Instrs[i], p.Reads(i), p.Writes(i))
	}
	return buf
}

// Alias returns a new Program over p's instruction and region arrays,
// without p's fingerprint memo.
func Alias(p *Program) *Program {
	return &Program{Name: p.Name, Instrs: p.Instrs, regions: p.regions}
}
