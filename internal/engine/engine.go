// Package engine is the shared execution layer under every pipeline in
// the repository: the model runner, the optimizer's candidate loops,
// tile tuning, shape sweeps, the empirical roofline toolkit and the
// multicore model all funnel their simulate+analyze work through it.
//
// It provides two mechanisms:
//
//   - ParallelMap, a bounded worker-pool fan-out with deterministic
//     result ordering and deterministic first-error propagation. The
//     analyze→optimize loop of the paper (Fig. 5) is embarrassingly
//     parallel across operators, shapes, tile candidates and
//     microbenchmark points; ParallelMap exploits that while keeping
//     parallel output byte-identical to serial execution.
//
//   - Simulate, SimulateApprox and Cache.Simulate, which answer a
//     simulation from one tier order: the memory Cache, the learned
//     surrogate (SimulateApprox only, SetPredictor), then the exact
//     simulator. A simulation is a
//     pure function of (chip, program, options); the iterative
//     pipelines re-simulate identical tuples constantly (the optimizer
//     re-evaluates its baseline and builds structurally identical
//     candidates, the model runner re-simulates operators it already
//     weighed, balanced multicore splits run identical per-core
//     slices). The cache keys on stable fingerprints —
//     Chip.Fingerprint over the canonical JSON encoding and
//     Program.Fingerprint over the instruction stream — and hand out
//     deep copies so callers may mutate results freely. The memory
//     Cache, a concurrency-safe size-bounded LRU, also coalesces
//     concurrent misses on one key: the first caller runs the lower
//     tiers and the others wait for its result. Callers that accept a
//     surrogate estimate share such flights only with each other, so
//     an exact caller never receives an estimate. With the memory
//     cache disabled (SetCacheCapacity(0)) every call runs the lower
//     tiers itself.
//
// Worker count resolution: an explicit positive argument wins, then
// SetWorkers, then the ASCENDPERF_WORKERS environment variable, then
// GOMAXPROCS.
package engine

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
)

// workerOverride holds the process-wide worker count set by SetWorkers
// (0 = unset).
var workerOverride atomic.Int64

// SetWorkers sets the process-wide default worker count used when a
// ParallelMap call passes workers <= 0. Non-positive n restores the
// built-in resolution (ASCENDPERF_WORKERS, then GOMAXPROCS). Command
// line tools wire their -workers flag here.
func SetWorkers(n int) {
	if n < 0 {
		n = 0
	}
	workerOverride.Store(int64(n))
}

// Workers returns the effective default worker count: SetWorkers if
// set, else the ASCENDPERF_WORKERS environment variable if it parses to
// a positive integer, else GOMAXPROCS.
func Workers() int {
	if n := workerOverride.Load(); n > 0 {
		return int(n)
	}
	if s := os.Getenv("ASCENDPERF_WORKERS"); s != "" {
		if n, err := strconv.Atoi(s); err == nil && n > 0 {
			return n
		}
	}
	return runtime.GOMAXPROCS(0)
}

// ParallelMap runs fn(0..n-1) on a bounded pool of workers and returns
// the results in index order. workers <= 0 uses the Workers() default;
// workers == 1 (or n == 1) degenerates to a plain serial loop with no
// goroutines.
//
// Workers claim indices in increasing order, a small contiguous chunk
// at a time: one atomic fetch-add hands out a whole chunk, so cheap
// per-index bodies do not serialize on the claim counter, and the only
// per-call allocation beyond the result slice is the fixed-size worker
// pool itself.
//
// Error propagation is deterministic: when any calls fail, the error of
// the lowest failing index is returned (and results is nil). Chunks are
// claimed in increasing order and a claimed chunk always runs all its
// indices to completion; after the first observed failure no further
// chunks are claimed, which cannot skip the lowest failing index
// because every index below an observed failure was already claimed.
func ParallelMap[R any](workers, n int, fn func(i int) (R, error)) ([]R, error) {
	if n <= 0 {
		return nil, nil
	}
	if workers <= 0 {
		workers = Workers()
	}
	if workers > n {
		workers = n
	}
	results := make([]R, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			r, err := fn(i)
			if err != nil {
				return nil, err
			}
			results[i] = r
		}
		return results, nil
	}
	// Chunk size balances claim traffic against load balance and wasted
	// post-failure work: at least 4 claims per worker keeps the pool
	// busy when per-index costs are skewed.
	chunk := n / (workers * 4)
	if chunk < 1 {
		chunk = 1
	}
	var (
		next   atomic.Int64
		failed atomic.Bool
		wg     sync.WaitGroup

		errMu    sync.Mutex
		firstErr error
		firstIdx int = -1
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if failed.Load() {
					return
				}
				lo := int(next.Add(int64(chunk))) - chunk
				if lo >= n {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					r, err := fn(i)
					if err != nil {
						errMu.Lock()
						if firstIdx < 0 || i < firstIdx {
							firstIdx, firstErr = i, err
						}
						errMu.Unlock()
						failed.Store(true)
						continue
					}
					results[i] = r
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr
	}
	return results, nil
}
