package engine

import (
	"sync"
	"testing"
	"time"

	"ascendperf/internal/hw"
	"ascendperf/internal/sim"
)

// TestStatsConcurrentWithSimulate hammers the Stats() snapshot while
// simulations run and cache entries churn — the access pattern of a
// live ascendd serving /metrics scrapes during analysis traffic. Run under -race this proves every counter read is
// either atomic or lock-guarded; a torn read shows up as a detector
// report, not a flaky assertion.
func TestStatsConcurrentWithSimulate(t *testing.T) {
	SetCacheCapacity(8) // small: force concurrent eviction traffic
	defer SetCacheCapacity(DefaultCacheCapacity)

	chip := hw.TrainingChip()
	stop := make(chan struct{})
	var wg sync.WaitGroup

	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				// A rotating window of programs: some cache hits, some
				// misses, some evictions.
				if _, err := Simulate(chip, transferProg(w*16+i%12), sim.Options{}); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := Stats()
				if s.CacheHits+s.CacheMisses < 0 {
					t.Error("impossible counter snapshot")
					return
				}
			}
		}()
	}

	time.Sleep(200 * time.Millisecond)
	close(stop)
	wg.Wait()
}
