package serve

import (
	"container/list"
	"sync"
)

// respCache is the response-level LRU: encoded 200 bodies keyed by the
// canonical request digest. Every analysis endpoint is a pure function of
// its canonicalized request (simulation is deterministic), so a repeat
// of a completed request can skip parsing the engine entirely — the
// engine cache below still pays for re-analysis (Runner traversal,
// roofline math, JSON encoding) on every hit, this layer does not. A
// hit bypasses admission too: serving cached bytes is too cheap to
// meter. This is what turns warm hot-path requests sub-millisecond.
type respCache struct {
	mu      sync.Mutex
	cap     int
	entries map[[32]byte]*list.Element
	order   *list.List // front = most recent
	hits    uint64
	misses  uint64
}

type respEntry struct {
	key  [32]byte
	body []byte
}

// newRespCache builds a cache with the given capacity; cap < 1 yields
// a disabled cache (every get misses, put is a no-op).
func newRespCache(capacity int) *respCache {
	return &respCache{
		cap:     capacity,
		entries: make(map[[32]byte]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached body for key. The stored slice is returned
// directly — callers only ever write it to a ResponseWriter.
func (c *respCache) get(key [32]byte) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap < 1 {
		return nil, false
	}
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.order.MoveToFront(el)
	return el.Value.(*respEntry).body, true
}

// put stores a successful response body, evicting the least recently
// used entry beyond capacity.
func (c *respCache) put(key [32]byte, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.cap < 1 {
		return
	}
	if el, ok := c.entries[key]; ok {
		el.Value.(*respEntry).body = body
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&respEntry{key: key, body: body})
	for len(c.entries) > c.cap {
		el := c.order.Back()
		c.order.Remove(el)
		delete(c.entries, el.Value.(*respEntry).key)
	}
}

// Stats returns the hit/miss counters and the current entry count.
func (c *respCache) Stats() (hits, misses uint64, entries int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, len(c.entries)
}
