package engine

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

func TestParallelMapOrdering(t *testing.T) {
	for _, workers := range []int{1, 2, 7, 64} {
		got, err := ParallelMap(workers, 100, func(i int) (int, error) {
			return i * i, nil
		})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if len(got) != 100 {
			t.Fatalf("workers=%d: got %d results", workers, len(got))
		}
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestParallelMapEmpty(t *testing.T) {
	got, err := ParallelMap[int](4, 0, func(i int) (int, error) { t.Fatal("called"); return 0, nil })
	if err != nil || got != nil {
		t.Fatalf("got %v, %v; want nil, nil", got, err)
	}
}

func TestParallelMapFirstErrorDeterministic(t *testing.T) {
	// Indices 17 and 63 fail. Regardless of worker interleaving the
	// reported error must always be index 17's: indices are claimed in
	// order, and a claimed index always runs to completion.
	errAt := func(i int) error { return fmt.Errorf("fail@%d", i) }
	for trial := 0; trial < 50; trial++ {
		_, err := ParallelMap(8, 100, func(i int) (int, error) {
			if i == 17 || i == 63 {
				return 0, errAt(i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "fail@17" {
			t.Fatalf("trial %d: got error %v, want fail@17", trial, err)
		}
	}
}

func TestParallelMapSerialStopsAtFirstError(t *testing.T) {
	calls := 0
	sentinel := errors.New("boom")
	_, err := ParallelMap(1, 10, func(i int) (int, error) {
		calls++
		if i == 3 {
			return 0, sentinel
		}
		return 0, nil
	})
	if !errors.Is(err, sentinel) {
		t.Fatalf("got %v, want sentinel", err)
	}
	if calls != 4 {
		t.Fatalf("serial path made %d calls, want 4", calls)
	}
}

func TestWorkersResolution(t *testing.T) {
	defer SetWorkers(0)
	SetWorkers(3)
	if got := Workers(); got != 3 {
		t.Fatalf("SetWorkers(3): Workers() = %d", got)
	}
	SetWorkers(0)
	t.Setenv("ASCENDPERF_WORKERS", "5")
	if got := Workers(); got != 5 {
		t.Fatalf("env=5: Workers() = %d", got)
	}
	t.Setenv("ASCENDPERF_WORKERS", "not-a-number")
	if got := Workers(); got < 1 {
		t.Fatalf("bad env: Workers() = %d", got)
	}
	os.Unsetenv("ASCENDPERF_WORKERS")
	SetWorkers(7)
	t.Setenv("ASCENDPERF_WORKERS", "5")
	if got := Workers(); got != 7 {
		t.Fatalf("SetWorkers wins over env: Workers() = %d", got)
	}
}

// transferProg builds a small distinct program per id.
func transferProg(id int) *isa.Program {
	prog := &isa.Program{Name: fmt.Sprintf("cache-test-%d", id)}
	for i := 0; i <= id%3; i++ {
		prog.AppendTransfer(hw.PathGMToUB, 0, 0, int64(1024*(id+1)))
	}
	return prog
}

func TestCacheHitReturnsEqualProfile(t *testing.T) {
	chip := hw.TrainingChip()
	c := NewCache(16)
	prog := transferProg(1)
	miss, err := c.Simulate(chip, prog, sim.Options{KeepSpans: true})
	if err != nil {
		t.Fatal(err)
	}
	hit, err := c.Simulate(chip, prog, sim.Options{KeepSpans: true})
	if err != nil {
		t.Fatal(err)
	}
	if miss.TotalTime != hit.TotalTime || miss.NumSpans() != hit.NumSpans() {
		t.Fatalf("hit differs from miss: %v vs %v", hit, miss)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 hit 1 miss", st)
	}
	if st.HitRate() != 0.5 {
		t.Fatalf("hit rate = %v, want 0.5", st.HitRate())
	}
}

func TestCacheHitIsDeepCopy(t *testing.T) {
	chip := hw.TrainingChip()
	c := NewCache(16)
	prog := transferProg(2)
	opts := sim.Options{KeepSpans: true}

	// Mutating the result returned on a miss must not corrupt the
	// cached entry.
	first, err := c.Simulate(chip, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantTotal := first.TotalTime
	wantBytes := first.PathBytes[hw.PathGMToUB]
	first.TotalTime = -1
	first.PathBytes[hw.PathGMToUB] = -1
	first.Timeline.Start[0] = -1

	second, err := c.Simulate(chip, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if second.TotalTime != wantTotal || second.PathBytes[hw.PathGMToUB] != wantBytes {
		t.Fatalf("cached entry corrupted by miss-result mutation: %+v", second)
	}
	if second.Timeline.Start[0] == -1 {
		t.Fatal("cached spans share memory with the miss result")
	}

	// Mutating one hit must not affect a later hit.
	second.TotalTime = -2
	second.PathBytes[hw.PathGMToUB] = -2
	third, err := c.Simulate(chip, prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if third.TotalTime != wantTotal || third.PathBytes[hw.PathGMToUB] != wantBytes {
		t.Fatalf("cached entry corrupted by hit mutation: %+v", third)
	}
}

func TestCacheLRUEviction(t *testing.T) {
	chip := hw.TrainingChip()
	c := NewCache(2)
	opts := sim.Options{}
	progs := []*isa.Program{transferProg(10), transferProg(11), transferProg(12)}
	for _, p := range progs {
		if _, err := c.Simulate(chip, p, opts); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions != 1 || st.Entries != 2 {
		t.Fatalf("stats = %+v, want 1 eviction and 2 entries", st)
	}
	// progs[0] was evicted (least recently used): re-simulating it is a
	// miss; progs[2] is still resident: a hit.
	if _, err := c.Simulate(chip, progs[2], opts); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != st.Hits+1 {
		t.Fatalf("expected hit on resident entry, stats %+v", got)
	}
	if _, err := c.Simulate(chip, progs[0], opts); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Misses != st.Misses+1 {
		t.Fatalf("expected miss on evicted entry, stats %+v", got)
	}

	// A touched entry survives: touch progs[2], insert a new program,
	// expect progs[2] still resident.
	if _, err := c.Simulate(chip, progs[2], sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Simulate(chip, transferProg(13), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	before := c.Stats()
	if _, err := c.Simulate(chip, progs[2], sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if got := c.Stats(); got.Hits != before.Hits+1 {
		t.Fatalf("most-recently-used entry was evicted, stats %+v", got)
	}
}

// TestCacheStress hammers one cache from many goroutines over a small
// key set, so the race detector can check the locking and the
// LRU/stat bookkeeping stays consistent.
func TestCacheStress(t *testing.T) {
	chip := hw.TrainingChip()
	c := NewCache(8)
	const goroutines = 16
	const iters = 200
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				prog := transferProg((g + i) % 12)
				p, err := c.Simulate(chip, prog, sim.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if p.TotalTime <= 0 {
					t.Errorf("bad profile for %s", prog.Name)
					return
				}
				// Mutate the returned profile; a deep-copy bug would
				// corrupt later hits of other goroutines.
				p.TotalTime = -1
				p.PathBytes[hw.PathGMToUB] = -1
			}
		}(g)
	}
	wg.Wait()
	st := c.Stats()
	if st.Hits+st.Misses != goroutines*iters {
		t.Fatalf("lookup accounting off: %+v over %d lookups", st, goroutines*iters)
	}
	if st.Entries > 8 {
		t.Fatalf("capacity exceeded: %+v", st)
	}
}

// TestCacheCoalescesConcurrentMisses: goroutines missing on one key at
// once share a single simulation, and the callers that waited for it
// count as hits.
func TestCacheCoalescesConcurrentMisses(t *testing.T) {
	chip := hw.TrainingChip()
	// Long enough that every goroutine arrives while the first one is
	// still simulating.
	prog := &isa.Program{Name: "coalesce-misses"}
	for i := 0; i < 4000; i++ {
		prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	}
	c := NewCache(64)
	const goroutines = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	runs0 := sim.ReadCounters().Runs
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if _, err := c.Simulate(chip, prog, sim.Options{}); err != nil {
				t.Error(err)
			}
		}()
	}
	close(start)
	wg.Wait()
	if runs := sim.ReadCounters().Runs - runs0; runs != 1 {
		t.Errorf("%d concurrent misses ran %d simulations, want 1", goroutines, runs)
	}
	if st := c.Stats(); st.Hits != goroutines-1 || st.Misses != 1 {
		t.Errorf("stats = %+v, want %d hits 1 miss", st, goroutines-1)
	}
}

// TestCacheFlightPanicReleasesWaiters: a flight leader that panics
// must still release its waiters with an error and leave the key free,
// or every later caller of that key would block forever.
func TestCacheFlightPanicReleasesWaiters(t *testing.T) {
	c := NewCache(4)
	entered, release := make(chan struct{}), make(chan struct{})
	go func() {
		defer func() { recover() }()
		c.do("k", false, func() (*profile.Profile, error) {
			close(entered)
			<-release
			panic("boom")
		})
	}()
	<-entered
	waiter := make(chan error, 1)
	go func() {
		_, err := c.do("k", false, func() (*profile.Profile, error) {
			return nil, errors.New("waiter ran the lower tiers")
		})
		waiter <- err
	}()
	for c.Stats().Hits == 0 {
		runtime.Gosched()
	}
	close(release)
	if err := <-waiter; !errors.Is(err, errFlightAborted) {
		t.Fatalf("waiter of a panicked flight got %v, want errFlightAborted", err)
	}
	p, err := c.do("k", false, func() (*profile.Profile, error) {
		return &profile.Profile{TotalTime: 1}, nil
	})
	if err != nil || p.TotalTime != 1 {
		t.Fatalf("call after the panicked flight = %+v, %v", p, err)
	}
}

func TestDefaultCacheToggle(t *testing.T) {
	defer SetCacheCapacity(DefaultCacheCapacity)
	SetCacheCapacity(0)
	if DefaultCache() != nil {
		t.Fatal("SetCacheCapacity(0) should disable the default cache")
	}
	chip := hw.TrainingChip()
	if _, err := Simulate(chip, transferProg(3), sim.Options{}); err != nil {
		t.Fatalf("Simulate without cache: %v", err)
	}
	SetCacheCapacity(4)
	if _, err := Simulate(chip, transferProg(3), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := Simulate(chip, transferProg(3), sim.Options{}); err != nil {
		t.Fatal(err)
	}
	st := DefaultCache().Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("default cache stats = %+v, want 1 hit 1 miss", st)
	}
}
