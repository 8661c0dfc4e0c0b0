package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/sim"
)

// Memory-retention gate: programs must live exactly as long as their
// owner. A process-wide table keyed by program or kernel pointers can
// never hit across requests (every request mints new ones), so all it
// does is pin every program it sees. These tests watch programs with
// finalizers (the weak package needs a newer toolchain than go.mod's)
// and run in scripts/ci.sh by name.

// freeCounter counts watched programs and how many have been finalized.
type freeCounter struct{ watched, freed atomic.Int64 }

func (c *freeCounter) watch(p *isa.Program) {
	c.watched.Add(1)
	runtime.SetFinalizer(p, func(*isa.Program) { c.freed.Add(1) })
}

// allFreed runs a few GC cycles and reports whether every watched
// program has been finalized. Finalizers run on their own goroutine
// after the cycle that finds the object unreachable, hence the wait.
func (c *freeCounter) allFreed() bool {
	for i := 0; i < 10; i++ {
		runtime.GC()
		if c.freed.Load() == c.watched.Load() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// TestRunOptsDoesNotRetainProgram: a program that has been simulated is
// collectable once the caller drops it.
func TestRunOptsDoesNotRetainProgram(t *testing.T) {
	var fc freeCounter
	func() {
		chip := hw.TrainingChip()
		prog, err := kernels.NewAddReLU().Build(chip, kernels.NewAddReLU().Baseline())
		if err != nil {
			t.Fatal(err)
		}
		fc.watch(prog)
		for i := 0; i < 2; i++ {
			if _, err := sim.RunOpts(chip, prog, sim.Options{}); err != nil {
				t.Fatal(err)
			}
		}
	}()
	if !fc.allFreed() {
		t.Fatal("a simulated program stayed reachable after its caller dropped it")
	}
}

// watchedKernel is a kernel whose every build is watched.
type watchedKernel struct {
	kernels.Kernel
	fc *freeCounter
}

func (k watchedKernel) Build(chip *hw.Chip, opts kernels.Options) (*isa.Program, error) {
	p, err := k.Kernel.Build(chip, opts)
	if err == nil {
		k.fc.watch(p)
	}
	return p, err
}

// TestRunnerDoesNotRetainBuilds: the programs a model.Runner builds
// (ranking pass, optimizer, unselected operators) are collectable once
// the runner is dropped.
func TestRunnerDoesNotRetainBuilds(t *testing.T) {
	var fc freeCounter
	func() {
		m := &model.Model{Name: "retention", Ops: []model.OpInstance{
			{Kernel: watchedKernel{kernels.NewAddReLU(), &fc}, Count: 2},
			{Kernel: watchedKernel{kernels.NewMul(), &fc}, Count: 1},
		}}
		r := model.NewRunner(hw.TrainingChip())
		r.Workers = 1
		if _, err := r.OptimizeTop(m, 1); err != nil {
			t.Fatal(err)
		}
	}()
	if fc.watched.Load() == 0 {
		t.Fatal("the runner built no watched program")
	}
	if !fc.allFreed() {
		t.Fatalf("%d of %d programs built by a dropped runner stayed reachable",
			fc.watched.Load()-fc.freed.Load(), fc.watched.Load())
	}
}

// TestInlineSimulateHeapBounded: after many distinct inline-program
// /v1/simulate requests the live heap has grown by far less than the
// parsed programs would occupy if any layer kept them.
func TestInlineSimulateHeapBounded(t *testing.T) {
	const requests, blocks = 60, 500 // 2000 instructions per program
	s := New(Config{})
	var body strings.Builder
	for i := 0; i < blocks; i++ {
		body.WriteString(`copy GM->UB bytes=4096 reads=GM[0:4096) writes=UB[0:4096)
set_flag MTE-GM->Vector ev=0
wait_flag MTE-GM->Vector ev=0
Vector.FP16 ops=2048 repeat=1 reads=UB[0:4096) writes=UB[4096:8192) ; relu
`)
	}
	post := func(i int) {
		req, err := json.Marshal(SimulateRequest{Chip: "training",
			Program: fmt.Sprintf("Scalar.INT32 ops=%d repeat=1\n%s", i+1, body.String())})
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/simulate", strings.NewReader(string(req))))
		if rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d: %s", i, rec.Code, rec.Body.String())
		}
	}
	liveHeap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	post(0) // lazy set-up (pools, chip tables) happens before the baseline
	before := liveHeap()
	for i := 1; i <= requests; i++ {
		post(i)
	}
	grown := int64(liveHeap()) - int64(before)
	// One parsed program is 2001 × 168-byte instructions plus regions,
	// ~0.4 MiB; pinning every one would grow the heap by ~24 MiB.
	const bound = 4 << 20
	t.Logf("live heap grew %d KiB over %d distinct programs", grown>>10, requests)
	if grown > bound {
		t.Fatalf("live heap grew %d KiB over %d distinct inline programs, bound %d KiB: a layer is retaining parsed programs",
			grown>>10, requests, bound>>10)
	}
}
