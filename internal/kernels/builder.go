package kernels

import (
	"fmt"
	"sync"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// Builder assembles an isa.Program with bump-pointer buffer allocation
// and automatic flag-event management. Errors (e.g. buffer exhaustion)
// are accumulated and surfaced by Program().
//
// A comparing builder (newBuilder with a non-nil want) emits nothing:
// it checks each instruction against want as it is emitted and unwinds
// with a mismatch panic on the first difference, which BuildMemo.Matches
// recovers.
type Builder struct {
	chip *hw.Chip
	// prog is the stream under construction. Until the first Program
	// call it is a program borrowed from progBufs (pooled is set); after
	// it, prog is the program Program returned last (shared is set)
	// until the next emission continues the stream in a copy. A
	// comparing builder has none.
	prog           *isa.Program
	pooled, shared bool
	// want is the program a comparing builder checks the stream
	// against; n counts the instructions matched so far.
	want *isa.Program
	n    int
	// next is the bump pointer of each buffer level, ev the next event
	// id of each (from, to) component pair.
	next [hw.NumLevels]int64
	ev   [hw.NumComponents][hw.NumComponents]int
	err  error
}

// mismatch is the panic value a comparing builder unwinds with when its
// stream departs from the program it is checking against.
type mismatch struct{}

// progBufs holds programs between builds, each with an instruction
// buffer and a region buffer. A build emits its stream one instruction
// at a time; in fresh slices that regrows the arrays about log2(n)
// times, re-zeroing and re-copying every earlier element, while reused
// buffers have already grown to the size of the builds they served and
// the program is copied out once, at its exact length.
var progBufs = sync.Pool{New: func() any { return new(isa.Program) }}

// NewBuilder returns a builder for a program with the given name.
func NewBuilder(chip *hw.Chip, name string) *Builder {
	return newBuilder(chip, name, nil)
}

// newBuilder returns a builder for a program with the given name; with
// a non-nil want, a comparing builder that panics with mismatch unless
// the program it would build is want.
func newBuilder(chip *hw.Chip, name string, want *isa.Program) *Builder {
	b := &Builder{chip: chip, want: want}
	if want != nil {
		if want.Name != name {
			panic(mismatch{})
		}
		return b
	}
	b.prog = progBufs.Get().(*isa.Program)
	b.prog.Reset(name)
	b.pooled = true
	return b
}

// push emits one instruction with its regions, or checks it against
// want.
func (b *Builder) push(in isa.Instr, reads, writes []isa.Region) {
	if b.want == nil {
		if b.shared {
			b.prog, b.shared = b.prog.Clone(), false
		}
		b.prog.AppendWith(in, reads, writes)
		return
	}
	if b.n >= len(b.want.Instrs) || !b.want.InstrEqual(b.n, &in, reads, writes) {
		panic(mismatch{})
	}
	b.n++
}

// fail records the first error. A comparing builder's want was built
// without one, so any error is a mismatch.
func (b *Builder) fail(format string, args ...any) {
	if b.want != nil {
		panic(mismatch{})
	}
	if b.err == nil {
		b.err = fmt.Errorf("kernels: %s: %s", b.prog.Name, fmt.Sprintf(format, args...))
	}
}

// Alloc bump-allocates size bytes in the given buffer level.
func (b *Builder) Alloc(level hw.Level, size int64) isa.Region {
	off := b.Used(level)
	if size <= 0 {
		b.fail("allocation of %d bytes in %s", size, level)
		return isa.Region{Level: level}
	}
	if cap, ok := b.chip.BufferSize[level]; !ok || level >= hw.NumLevels || off+size > cap {
		b.fail("buffer %s exhausted: %d + %d > %d", level, off, size, b.chip.BufferSize[level])
		return isa.Region{Level: level}
	}
	b.next[level] = off + size
	return isa.Region{Level: level, Off: off, Size: size}
}

// Free returns the bump pointer of the level to the start of region r if
// r is the most recent allocation. It lets loops reuse scratch space.
func (b *Builder) Free(r isa.Region) {
	if r.Level < hw.NumLevels && b.next[r.Level] == r.End() {
		b.next[r.Level] = r.Off
	}
}

// Copy emits a transfer of size bytes from src to dst regions. The
// regions' levels must match the path endpoints.
func (b *Builder) Copy(path hw.Path, src, dst isa.Region, label string) {
	if src.Level != path.Src || dst.Level != path.Dst {
		b.fail("copy %s with regions %s -> %s", path, src, dst)
		return
	}
	if src.Size != dst.Size || src.Size <= 0 {
		b.fail("copy %s with mismatched sizes %d -> %d", path, src.Size, dst.Size)
		return
	}
	b.push(isa.Instr{
		Kind:  isa.KindTransfer,
		Path:  path,
		Bytes: src.Size,
		Label: label,
	}, []isa.Region{src}, []isa.Region{dst})
}

// Compute emits a compute instruction with explicit memory effects.
func (b *Builder) Compute(u hw.Unit, p hw.Precision, ops int64, repeat int, reads, writes []isa.Region, label string) {
	if ops <= 0 {
		b.fail("compute with %d ops", ops)
		return
	}
	b.push(isa.Instr{
		Kind:   isa.KindCompute,
		Unit:   u,
		Prec:   p,
		Ops:    ops,
		Repeat: int32(repeat),
		Label:  label,
	}, reads, writes)
}

// ScalarWork emits n scalar bookkeeping instructions (address
// computation, loop control), each performing ops INT32 operations.
func (b *Builder) ScalarWork(n int, ops int64) {
	for i := 0; i < n; i++ {
		b.push(isa.Compute(hw.Scalar, hw.INT32, ops), nil, nil)
	}
}

// NewEvent reserves a fresh flag-event id between two components.
func (b *Builder) NewEvent(from, to hw.Component) int {
	if from >= hw.NumComponents || to >= hw.NumComponents {
		b.fail("event between unknown components %s and %s", from, to)
		return 0
	}
	id := b.ev[from][to]
	b.ev[from][to] = id + 1
	return id
}

// Set emits a set_flag.
func (b *Builder) Set(from, to hw.Component, event int) {
	b.push(isa.SetFlag(from, to, event), nil, nil)
}

// Wait emits a wait_flag.
func (b *Builder) Wait(from, to hw.Component, event int) {
	b.push(isa.WaitFlag(from, to, event), nil, nil)
}

// Barrier emits pipe_barrier(PIPE_ALL).
func (b *Builder) Barrier() {
	b.push(isa.BarrierAllInstr(), nil, nil)
}

// StageSync separates two pipeline stages. With minimalSync it emits a
// fine-grained set/wait pair on a fresh event; otherwise it emits a full
// pipe_barrier(PIPE_ALL), the over-synchronization RUS removes.
func (b *Builder) StageSync(from, to hw.Component, minimalSync bool) {
	if minimalSync {
		ev := b.NewEvent(from, to)
		b.Set(from, to, ev)
		b.Wait(from, to, ev)
	} else {
		b.Barrier()
	}
}

// Program finalizes the build. The returned program owns its
// instructions: it never shares an array with the builder's buffer, and
// later calls on the builder do not change it. Each call returns the
// stream emitted so far. A comparing builder returns want itself when
// the stream matched all of it.
func (b *Builder) Program() (*isa.Program, error) {
	if b.want != nil {
		if b.n != len(b.want.Instrs) {
			panic(mismatch{})
		}
		return b.want, nil
	}
	if b.err != nil {
		b.release(&isa.Program{Name: b.prog.Name}, false)
		return nil, b.err
	}
	p := b.prog.Clone()
	b.release(p, true)
	if err := p.Validate(b.chip); err != nil {
		return nil, err
	}
	return p, nil
}

// release returns a borrowed program to progBufs, reset so that it pins
// no labels, and continues the stream in next; shared marks next as a
// program the builder has returned, which it copies before appending.
// After the first call the builder appends only to programs it
// allocates itself.
func (b *Builder) release(next *isa.Program, shared bool) {
	if b.pooled {
		b.prog.Reset("")
		progBufs.Put(b.prog)
		b.pooled = false
	}
	b.prog, b.shared = next, shared
}

// Used returns the bytes currently allocated in the level.
func (b *Builder) Used(level hw.Level) int64 {
	if level >= hw.NumLevels {
		return 0
	}
	return b.next[level]
}
