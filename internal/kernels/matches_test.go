package kernels

import (
	"sort"
	"sync"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// searchState is one point of the joint tuning space the optimizer's
// search walks: a strategy subset applied over the baseline, at one
// tile variant.
type searchState struct {
	k    Kernel
	mask uint32
	tile int64
	opts Options
}

// searchStates enumerates every (strategy subset, tile) state of k the
// way the optimizer's search does: the current tile first, then every
// power of two from 1 Ki to 128 Ki elements.
func searchStates(k Kernel) []searchState {
	variants := []Kernel{k}
	tiles := []int64{0}
	if tun, ok := k.(Tunable); ok {
		tiles[0] = tun.TileSize()
		for size := int64(1 << 10); size <= 128<<10; size *= 2 {
			if size != tun.TileSize() {
				tiles = append(tiles, size)
				variants = append(variants, tun.WithTileSize(size))
			}
		}
	}
	sup := k.Supported()
	var out []searchState
	for mask := uint32(0); mask < 1<<uint(len(sup)); mask++ {
		opts := k.Baseline()
		for i, st := range sup {
			if mask&(1<<uint(i)) != 0 {
				opts = Apply(opts, st)
			}
		}
		for t, v := range variants {
			out = append(out, searchState{k: v, mask: mask, tile: tiles[t], opts: opts})
		}
	}
	return out
}

// TestMatchesAgreesWithBuild is the differential guard for
// BuildMemo.Matches: for every registry kernel on every preset and
// every (strategy subset, tile) state, Matches must answer exactly
// "Build succeeds and its program is Equal to want", on the streaming
// path (empty memo) and on the memo-hit path, for want taken from the
// state itself, from its neighbour state, from another kernel, and cut
// one instruction short or one long.
func TestMatchesAgreesWithBuild(t *testing.T) {
	reg := Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	chips := []*hw.Chip{hw.TrainingChip(), hw.InferenceChip(), hw.TPUStyleChip()}
	stride := 1
	if raceEnabled {
		// The plain run checks every answer; under the detector a slice
		// of the registry on one chip keeps the repeated run short.
		chips, stride = chips[:1], 3
	}
	var checks, crossMatches int
	for _, chip := range chips {
		// other[i] is a program of the next kernel in name order.
		other := make([]*isa.Program, len(names))
		for i := range names {
			next := reg[names[(i+1)%len(names)]]
			p, err := next.Build(chip, next.Baseline())
			if err != nil {
				t.Fatalf("%s on %s: %v", next.Name(), chip.Name, err)
			}
			other[i] = p
		}
		for i := 0; i < len(names); i += stride {
			name := names[i]
			states := searchStates(reg[name])
			progs := make([]*isa.Program, len(states))
			hits := &BuildMemo{}
			for j, st := range states {
				progs[j], _ = hits.Build(chip, st.k, st.opts)
			}
			stream := &BuildMemo{}
			for j, st := range states {
				wants := []*isa.Program{other[i]}
				if p := progs[j]; p != nil {
					short := &isa.Program{Name: p.Name}
					for k := range p.Len() - 1 {
						short.AppendFrom(p, k)
					}
					long := p.Clone()
					long.AppendFrom(p, 0)
					wants = append(wants, p, short, long)
				}
				if n := progs[(j+1)%len(progs)]; n != nil {
					wants = append(wants, n)
				}
				for _, want := range wants {
					ref := progs[j] != nil && progs[j].Equal(want)
					if got := stream.Matches(chip, st.k, st.opts, want); got != ref {
						t.Fatalf("%s on %s mask %b tile %d: streaming Matches = %v, Build+Equal = %v (want %s, %d instrs)",
							name, chip.Name, st.mask, st.tile, got, ref, want.Name, want.Len())
					}
					if got := hits.Matches(chip, st.k, st.opts, want); got != ref {
						t.Fatalf("%s on %s mask %b tile %d: memoized Matches = %v, Build+Equal = %v",
							name, chip.Name, st.mask, st.tile, got, ref)
					}
					if ref && want != progs[j] {
						crossMatches++
					}
					checks++
				}
			}
			if len(stream.m) != 0 {
				t.Fatalf("%s on %s: streaming Matches stored %d builds", name, chip.Name, len(stream.m))
			}
		}
	}
	t.Logf("%d checks, %d cross-state matches", checks, crossMatches)
	if crossMatches == 0 {
		t.Error("no cross-state match exercised: every true answer compared a program with itself")
	}
}

// TestMatchesConcurrent shares one memo between goroutines that fill it
// with builds and goroutines that query it, so memo hits, streaming
// comparisons and pooled builds interleave.
func TestMatchesConcurrent(t *testing.T) {
	chip := hw.TrainingChip()
	states := searchStates(NewConcat())
	progs := make([]*isa.Program, len(states))
	for i, st := range states {
		progs[i], _ = st.k.Build(chip, st.opts)
	}
	memo := &BuildMemo{}
	const workers = 4
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := range states {
				i := (j + w*len(states)/workers) % len(states)
				if w%2 == 0 {
					memo.Build(chip, states[i].k, states[i].opts)
				}
				for _, want := range []*isa.Program{progs[i], progs[(i+1)%len(progs)]} {
					if want == nil {
						continue
					}
					ref := progs[i] != nil && progs[i].Equal(want)
					if got := memo.Matches(chip, states[i].k, states[i].opts, want); got != ref {
						t.Errorf("worker %d: concat mask %b tile %d: Matches = %v, Build+Equal = %v",
							w, states[i].mask, states[i].tile, got, ref)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestMatchesCrossState pins one known cross-state identity: concat
// with {RSD, ITG} at its 12288-element tile merges its copies into
// exactly the program {RSD} builds at a 65536-element tile.
func TestMatchesCrossState(t *testing.T) {
	chip := hw.TrainingChip()
	k := NewConcat()
	if k.TileSize() != 12288 {
		t.Fatalf("concat tile is %d, want 12288", k.TileSize())
	}
	want, err := k.WithTileSize(65536).Build(chip, Apply(k.Baseline(), RSD))
	if err != nil {
		t.Fatal(err)
	}
	opts := Apply(Apply(k.Baseline(), RSD), ITG)
	p, err := k.Build(chip, opts)
	if err != nil || !p.Equal(want) {
		t.Fatalf("concat {RSD,ITG}@12288 no longer builds {RSD}@65536's program (err %v)", err)
	}
	if !(&BuildMemo{}).Matches(chip, k, opts, want) {
		t.Error("streaming Matches misses the {RSD,ITG}@12288 = {RSD}@65536 identity")
	}
}

// wrappedKernel hides a registry kernel's comparing build, so Matches
// must take the fallback path through the memo.
type wrappedKernel struct {
	Kernel
	builds int
}

func (w *wrappedKernel) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	w.builds++
	return w.Kernel.Build(chip, opts)
}

func TestMatchesFallbackBuildsThroughMemo(t *testing.T) {
	chip := hw.TrainingChip()
	w := &wrappedKernel{Kernel: NewAddReLU()}
	want, err := w.Kernel.Build(chip, w.Baseline())
	if err != nil {
		t.Fatal(err)
	}
	memo := &BuildMemo{}
	if !memo.Matches(chip, w, w.Baseline(), want) {
		t.Error("fallback Matches misses the kernel's own program")
	}
	if memo.Matches(chip, w, FullyOptimized(w), want) {
		t.Error("fallback Matches accepts a different program")
	}
	if w.builds != 2 || len(memo.m) != 2 {
		t.Errorf("fallback made %d builds and stored %d, want 2 and 2", w.builds, len(memo.m))
	}
	if !memo.Matches(chip, w, w.Baseline(), want) || w.builds != 2 {
		t.Errorf("a memoized fallback rebuilt (%d builds)", w.builds)
	}
}

func TestMatchesSpecError(t *testing.T) {
	chip := hw.TrainingChip()
	want, err := NewAddReLU().Build(chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &Elementwise{OpName: "add_relu"}
	if _, err := bad.Build(chip, Options{}); err == nil {
		t.Fatal("an empty specification builds")
	}
	if (&BuildMemo{}).Matches(chip, bad, Options{}, want) {
		t.Error("Matches accepts a kernel whose specification is invalid")
	}
}

// midStreamKernel emits two instructions, then allocates size bytes of
// UB, then emits a third: on a chip whose UB is smaller than size the
// builder fails after the stream has matched a prefix of want.
type midStreamKernel struct {
	Elementwise
	size int64
	boom any // panics with this value after the first instruction when non-nil
}

func (m *midStreamKernel) emit(chip *hw.Chip, opts Options, want *isa.Program) (*isa.Program, error) {
	b := newBuilder(chip, "mid", want)
	b.Barrier()
	if m.boom != nil {
		panic(m.boom)
	}
	b.Barrier()
	r := b.Alloc(hw.UB, m.size)
	b.Copy(hw.PathGMToUB, isa.Region{Level: hw.GM, Size: r.Size}, r, "load")
	return b.Program()
}

func (m *midStreamKernel) Build(chip *hw.Chip, opts Options) (*isa.Program, error) {
	return m.emit(chip, opts, nil)
}

func TestMatchesMidStreamBuildError(t *testing.T) {
	chip := hw.TrainingChip()
	k := &midStreamKernel{size: 4096}
	want, err := k.Build(chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !(&BuildMemo{}).Matches(chip, k, Options{}, want) {
		t.Fatal("Matches misses the kernel's own program")
	}
	tiny := hw.TrainingChip()
	tiny.BufferSize[hw.UB] = 1024
	if _, err := k.Build(tiny, Options{}); err == nil {
		t.Fatal("the build fits a 1 KiB UB")
	}
	if (&BuildMemo{}).Matches(tiny, k, Options{}, want) {
		t.Error("Matches accepts a build that fails after a matching prefix")
	}
}

func TestMatchesForeignPanicPropagates(t *testing.T) {
	chip := hw.TrainingChip()
	k := &midStreamKernel{size: 4096}
	want, err := k.Build(chip, Options{})
	if err != nil {
		t.Fatal(err)
	}
	k.boom = "kernel bug"
	defer func() {
		if r := recover(); r != "kernel bug" {
			t.Errorf("recovered %v, want the kernel's own panic", r)
		}
	}()
	(&BuildMemo{}).Matches(chip, k, Options{}, want)
	t.Error("Matches swallowed a panic that was not its own")
}
