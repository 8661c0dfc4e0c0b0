package kernels

import (
	"reflect"
	"sync"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// BuildMemo memoizes Kernel.Build per (chip, kernel, options) for the
// lifetime of its owner: a model.Runner's passes, one graph.Run, one
// opt.Optimizer. Multi-pass callers rebuild identical programs
// constantly (a ranking pass then an optimize pass, an optimizer's
// re-evaluations across loop iterations); with the memo a rebuild
// costs a map lookup, and the per-Program memos (isa.Fingerprint,
// Validate) keep paying off because the pointer is stable across
// passes. Build errors are cached too: the optimizer's loops retry
// infeasible configurations.
//
// Keys hold the chip and kernel by identity, so the memo can only hit
// within one owner's lifetime and is dropped with it. Options captured
// in the kernel value (tile size, unit count) are part of the key, so
// retiled copies never collide. Kernels whose dynamic type is not
// comparable cannot be map keys and build directly.
//
// Returned programs are shared between hits and MUST NOT be mutated;
// every consumer only simulates or inspects them. The zero value is
// ready to use and safe for concurrent use.
type BuildMemo struct {
	mu sync.Mutex
	m  map[buildKey]built
}

type buildKey struct {
	chip   *hw.Chip
	kernel Kernel
	opts   Options
}

type built struct {
	prog *isa.Program
	err  error
}

// Build returns k.Build(chip, opts), memoized.
func (b *BuildMemo) Build(chip *hw.Chip, k Kernel, opts Options) (*isa.Program, error) {
	if !reflect.TypeOf(k).Comparable() {
		return k.Build(chip, opts)
	}
	key := buildKey{chip: chip, kernel: k, opts: opts}
	b.mu.Lock()
	r, ok := b.m[key]
	b.mu.Unlock()
	if ok {
		return r.prog, r.err
	}
	prog, err := k.Build(chip, opts)
	b.mu.Lock()
	defer b.mu.Unlock()
	if r, ok := b.m[key]; ok {
		// Lost a race with a concurrent build of the same key: hand out
		// the stored result so every caller shares one pointer.
		return r.prog, r.err
	}
	if b.m == nil {
		b.m = make(map[buildKey]built)
	}
	b.m[key] = built{prog: prog, err: err}
	return prog, err
}

// emitter is implemented by every registry kernel type: Build is
// emit(chip, opts, nil), and a non-nil want turns the build into a
// comparing build (newBuilder) that allocates no program.
type emitter interface {
	emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error)
}

// Matches reports whether k.Build(chip, opts) would succeed with a
// program equal to want (isa.Program.Equal). A memoized result is
// compared directly. Otherwise a registry kernel streams its build
// against want, stopping at the first instruction that differs, and
// nothing is stored, copied or validated; any other kernel builds
// through the memo.
//
// Precondition: want was built for chip, so it has already passed
// Validate on chip, and so would any program equal to it.
func (b *BuildMemo) Matches(chip *hw.Chip, k Kernel, opts Options, want *isa.Program) bool {
	if reflect.TypeOf(k).Comparable() {
		b.mu.Lock()
		r, ok := b.m[buildKey{chip: chip, kernel: k, opts: opts}]
		b.mu.Unlock()
		if ok {
			return r.err == nil && r.prog.Equal(want)
		}
	}
	if e, ok := k.(emitter); ok {
		return matchStream(e, chip, opts, want)
	}
	prog, err := b.Build(chip, k, opts)
	return err == nil && prog.Equal(want)
}

// matchStream runs e's comparing build against want. The builder
// unwinds with a mismatch panic at the first difference; only that
// panic is recovered. Kernel builds hold no defers, locks or pooled
// resources between newBuilder and Program (a comparing builder
// borrows no instruction buffer), so unwinding leaks nothing.
func matchStream(e emitter, chip *hw.Chip, opts Options, want *isa.Program) (ok bool) {
	defer func() {
		if r := recover(); r != nil {
			if _, isMismatch := r.(mismatch); !isMismatch {
				panic(r)
			}
			ok = false
		}
	}()
	prog, err := e.emit(chip, opts, want)
	return err == nil && prog == want
}
