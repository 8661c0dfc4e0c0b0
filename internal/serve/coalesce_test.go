package serve

import (
	"context"
	"crypto/sha256"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestFlightGroupCoalesces(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	var runs atomic.Int32

	const n = 8
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		vals    []string
		shareds []bool
	)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			v, shared, err := g.Do(context.Background(), testKey("k"), func() (any, error) {
				runs.Add(1)
				<-gate
				return "result", nil
			})
			if err != nil {
				t.Error(err)
				return
			}
			mu.Lock()
			vals = append(vals, v.(string))
			shareds = append(shareds, shared)
			mu.Unlock()
		}()
	}
	// Wait until every caller is attached (1 leader + n-1 followers),
	// then let the single execution finish.
	waitFor(t, "followers to attach", func() bool {
		_, followers := g.Stats()
		return followers == n-1
	})
	close(gate)
	wg.Wait()

	if got := runs.Load(); got != 1 {
		t.Fatalf("fn ran %d times for %d concurrent callers, want 1", got, n)
	}
	leaders, followers := g.Stats()
	if leaders != 1 || followers != n-1 {
		t.Fatalf("leaders=%d followers=%d, want 1/%d", leaders, followers, n-1)
	}
	sharedCount := 0
	for i, v := range vals {
		if v != "result" {
			t.Fatalf("caller %d got %q", i, v)
		}
		if shareds[i] {
			sharedCount++
		}
	}
	if sharedCount != n-1 {
		t.Fatalf("%d callers reported shared, want %d", sharedCount, n-1)
	}
}

func TestFlightGroupDistinctKeys(t *testing.T) {
	g := newFlightGroup()
	var runs atomic.Int32
	var wg sync.WaitGroup
	for _, key := range []string{"a", "b", "c"} {
		wg.Add(1)
		go func(key string) {
			defer wg.Done()
			if _, _, err := g.Do(context.Background(), testKey(key), func() (any, error) {
				runs.Add(1)
				return key, nil
			}); err != nil {
				t.Error(err)
			}
		}(key)
	}
	wg.Wait()
	if got := runs.Load(); got != 3 {
		t.Fatalf("fn ran %d times for 3 distinct keys, want 3", got)
	}
}

func TestFlightGroupFollowerHonoursContext(t *testing.T) {
	g := newFlightGroup()
	gate := make(chan struct{})
	defer close(gate)

	started := make(chan struct{})
	go g.Do(context.Background(), testKey("k"), func() (any, error) {
		close(started)
		<-gate
		return nil, nil
	})
	<-started
	waitFor(t, "leader registered", func() bool {
		leaders, _ := g.Stats()
		return leaders == 1
	})

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, shared, err := g.Do(ctx, testKey("k"), func() (any, error) { return nil, nil })
		if !shared {
			t.Error("cancelled follower not marked shared")
		}
		done <- err
	}()
	waitFor(t, "follower attached", func() bool {
		_, followers := g.Stats()
		return followers == 1
	})
	cancel()
	if err := <-done; err != context.Canceled {
		t.Fatalf("cancelled follower returned %v, want context.Canceled", err)
	}
}

func TestFlightGroupPanicBecomesError(t *testing.T) {
	g := newFlightGroup()
	_, _, err := g.Do(context.Background(), testKey("k"), func() (any, error) {
		panic("boom")
	})
	if err == nil || !strings.Contains(err.Error(), "handler panic") {
		t.Fatalf("panic surfaced as %v", err)
	}
	// The flight must be cleaned up: a later call runs fresh.
	v, shared, err := g.Do(context.Background(), testKey("k"), func() (any, error) {
		return "fine", nil
	})
	if err != nil || shared || v.(string) != "fine" {
		t.Fatalf("post-panic call: v=%v shared=%v err=%v", v, shared, err)
	}
}

func TestAdmissionQueueFull(t *testing.T) {
	a := newAdmission(1, 1)
	never := make(chan struct{})

	if err := a.acquire(never); err != nil {
		t.Fatal(err)
	}
	queued := make(chan error, 1)
	go func() { queued <- a.acquire(never) }()
	waitFor(t, "one queued waiter", func() bool { return a.Waiting() == 1 })

	// Slot held and queue at depth: the next acquire sheds immediately.
	if err := a.acquire(never); err != errQueueFull {
		t.Fatalf("acquire with full queue = %v, want errQueueFull", err)
	}

	a.release()
	if err := <-queued; err != nil {
		t.Fatalf("queued waiter: %v", err)
	}
	a.release()
	if got := a.InFlight(); got != 0 {
		t.Fatalf("in-flight after releases = %d", got)
	}
}

func TestAdmissionTimeout(t *testing.T) {
	a := newAdmission(1, 4)
	never := make(chan struct{})
	if err := a.acquire(never); err != nil {
		t.Fatal(err)
	}
	fired := make(chan struct{})
	close(fired)
	if err := a.acquire(fired); err != errTimeout {
		t.Fatalf("acquire with expired deadline = %v, want errTimeout", err)
	}
	a.release()
}

// testKey is a request key for tests that name flights by string.
func testKey(s string) [32]byte { return sha256.Sum256([]byte(s)) }
