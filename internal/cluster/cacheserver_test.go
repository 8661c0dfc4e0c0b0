package cluster

import (
	"fmt"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCacheServerRoundTrip(t *testing.T) {
	cs, err := NewCacheServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cs)
	defer srv.Close()
	c := NewL2Client(srv.URL, 0)

	if _, ok := c.Get(digest("missing")); ok {
		t.Fatal("hit on empty cache")
	}
	body := []byte(`{"total_time_ns": 123}`)
	c.Put(digest("model\x00{...}"), body)
	got, ok := c.Get(digest("model\x00{...}"))
	if !ok || string(got) != string(body) {
		t.Fatalf("round trip: ok=%v body=%q", ok, got)
	}
	// Overwrite is last-writer-wins.
	c.Put(digest("model\x00{...}"), []byte("v2"))
	if got, _ := c.Get(digest("model\x00{...}")); string(got) != "v2" {
		t.Fatalf("overwrite lost: %q", got)
	}
	st := cs.Stats()
	if st.Hits != 2 || st.Misses != 1 || st.Puts != 2 || st.Entries != 1 {
		t.Errorf("stats = %+v, want 2 hits / 1 miss / 2 puts / 1 entry", st)
	}
	if c.Errors() != 0 {
		t.Errorf("client recorded %d transport errors", c.Errors())
	}
}

// TestCacheServerPersistence is the warm-restart property: a new
// CacheServer over the same directory serves entries a previous
// instance stored.
func TestCacheServerPersistence(t *testing.T) {
	dir := t.TempDir()
	first, err := NewCacheServer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(first)
	NewL2Client(srv.URL, 0).Put(digest("k"), []byte("persisted"))
	srv.Close()

	second, err := NewCacheServer(dir, 0)
	if err != nil {
		t.Fatal(err)
	}
	srv2 := httptest.NewServer(second)
	defer srv2.Close()
	got, ok := NewL2Client(srv2.URL, 0).Get(digest("k"))
	if !ok || string(got) != "persisted" {
		t.Fatalf("restart lost entry: ok=%v body=%q", ok, got)
	}
}

// TestCacheServerRejectsBadKeys keeps arbitrary paths off the
// filesystem: only 64-char hex wire keys are accepted.
func TestCacheServerRejectsBadKeys(t *testing.T) {
	cs, err := NewCacheServer(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cs)
	defer srv.Close()
	for _, k := range []string{"short", "../../etc/passwd", string(make([]byte, 64))} {
		resp, err := srv.Client().Get(srv.URL + "/l2/" + k)
		if err != nil {
			continue // e.g. the traversal path never reaches the handler
		}
		resp.Body.Close()
		if resp.StatusCode == 200 {
			t.Errorf("key %q accepted", k)
		}
	}
}

// TestCacheServerDeadTierIsMiss: a client pointed at a dead cache
// server degrades to misses and dropped stores, never errors.
func TestCacheServerDeadTier(t *testing.T) {
	c := NewL2Client("http://127.0.0.1:1", 0) // nothing listens on port 1
	if _, ok := c.Get(digest("k")); ok {
		t.Fatal("hit from dead tier")
	}
	c.Put(digest("k"), []byte("x")) // must not panic or block
	if c.Errors() == 0 {
		t.Error("dead tier produced no error counts")
	}
}

// TestCacheServerEviction is the fill-past-cap regression test: the
// resident directory must never exceed -l2maxbytes after any completed
// PUT, eviction must shed the least-recently-used entries first (GETs
// refresh recency), and the budget must survive a warm restart.
func TestCacheServerEviction(t *testing.T) {
	dir := t.TempDir()
	const cap = 4096
	cs, err := NewCacheServer(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cs)
	defer srv.Close()
	c := NewL2Client(srv.URL, 0)

	dirSize := func() int64 {
		t.Helper()
		var total int64
		names, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, n := range names {
			if !strings.HasSuffix(n.Name(), ".l2") {
				continue
			}
			info, err := n.Info()
			if err != nil {
				t.Fatal(err)
			}
			total += info.Size()
		}
		return total
	}

	value := make([]byte, 1024)
	key := func(i int) [32]byte { return digest(fmt.Sprintf("key-%03d", i)) }
	// Fill to exactly the cap, then keep going: every completed PUT
	// must leave the directory within budget.
	for i := 0; i < 12; i++ {
		c.Put(key(i), value)
		if got := dirSize(); got > cap {
			t.Fatalf("after put %d: directory holds %d bytes, cap %d", i, got, cap)
		}
		// Distinct mtimes so LRU order is unambiguous even on coarse
		// filesystem timestamps.
		time.Sleep(5 * time.Millisecond)
		// Touch the first key each round: it must outlive younger but
		// colder entries.
		if _, ok := c.Get(key(0)); !ok && i < 3 {
			t.Fatalf("after put %d: freshly stored %s already gone", i, key(0))
		}
	}
	if _, ok := c.Get(key(0)); !ok {
		t.Error("LRU eviction dropped the constantly-touched entry")
	}
	if _, ok := c.Get(key(5)); ok {
		t.Error("cold mid-fill entry survived a full wraparound of the budget")
	}
	st := cs.Stats()
	if st.Evictions == 0 {
		t.Error("fill past cap recorded no evictions")
	}
	if st.SizeBytes > cap || st.MaxBytes != cap {
		t.Errorf("stats budget = %d/%d, want <= cap %d", st.SizeBytes, st.MaxBytes, cap)
	}

	// A value larger than the whole cap is declined, not stored.
	c.Put(digest("oversized"), make([]byte, cap+1))
	if got := dirSize(); got > cap {
		t.Fatalf("oversized put pushed directory to %d bytes, cap %d", got, cap)
	}

	// Warm restart with a lower cap: surviving entries count against
	// the new budget immediately.
	srv.Close()
	cs2, err := NewCacheServer(dir, 1536)
	if err != nil {
		t.Fatal(err)
	}
	if got := dirSize(); got > 1536 {
		t.Fatalf("restart with lower cap left %d bytes resident", got)
	}
	if st := cs2.Stats(); st.SizeBytes > 1536 {
		t.Errorf("restarted budget %d exceeds cap 1536", st.SizeBytes)
	}
}

// TestCacheServerEvictionConcurrent hammers PUTs from many goroutines:
// size accounting and eviction are serialized, so once the dust
// settles the directory must be within budget with no entries lost to
// racy double-counting.
func TestCacheServerEvictionConcurrent(t *testing.T) {
	dir := t.TempDir()
	const cap = 8192
	cs, err := NewCacheServer(dir, cap)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(cs)
	defer srv.Close()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewL2Client(srv.URL, 0)
			value := make([]byte, 512)
			for i := 0; i < 16; i++ {
				c.Put(digest(fmt.Sprintf("w%d-i%d", w, i)), value)
			}
		}(w)
	}
	wg.Wait()

	var total int64
	names, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range names {
		if strings.HasSuffix(n.Name(), ".l2") {
			info, _ := n.Info()
			total += info.Size()
		}
	}
	if total > cap {
		t.Fatalf("concurrent fill left %d bytes resident, cap %d", total, cap)
	}
	if st := cs.Stats(); st.SizeBytes != total {
		t.Errorf("accounted size %d != resident size %d", st.SizeBytes, total)
	}
}
