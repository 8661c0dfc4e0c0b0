package stats

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestLoadConcurrentWithAdd: Load reads a live registry while writers
// add to it, never sees a counter go backwards, and reads the exact
// totals once the writers are done. Fields that are not uint64 are
// left for the caller to fill.
func TestLoadConcurrentWithAdd(t *testing.T) {
	live := struct {
		A, B  uint64
		Gauge int
	}{Gauge: 7}
	const writers, adds = 4, 1000
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < adds; i++ {
				atomic.AddUint64(&live.A, 1)
				atomic.AddUint64(&live.B, 2)
			}
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	var prev uint64
	for running := true; running; {
		select {
		case <-done:
			running = false
		default:
		}
		s := Load(&live)
		if s.A < prev {
			t.Fatalf("counter went backwards: %d after %d", s.A, prev)
		}
		prev = s.A
	}
	if s := Load(&live); s.A != writers*adds || s.B != 2*writers*adds || s.Gauge != 0 {
		t.Errorf("Load = %+v, want A=%d B=%d Gauge=0", s, writers*adds, 2*writers*adds)
	}
}
