package engine

import (
	"container/list"
	"errors"
	"sync"
	"sync/atomic"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// DefaultCacheCapacity is the entry bound of the process-default cache.
const DefaultCacheCapacity = 1024

// CacheStats is an observability snapshot of a cache.
type CacheStats struct {
	// Hits and Misses count lookups; Evictions counts entries dropped
	// by the LRU bound.
	Hits, Misses, Evictions uint64
	// Entries is the current entry count.
	Entries int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any lookup.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Cache memoizes simulation results keyed by the stable fingerprint of
// (chip specification, program, sim options). It is safe for concurrent
// use. Hits return deep copies, so a caller mutating a result can never
// corrupt later hits. Concurrent misses on one key coalesce: one caller
// simulates and the others wait for its result.
//
// Chip fingerprints are memoized per *hw.Chip pointer, relying on the
// documented Chip contract of immutability after construction.
//
// Internally the cache is sharded: each shard owns a slice of the
// capacity, its own LRU list and its own mutex, so concurrent workers
// hitting different keys never contend on one lock. Small caches (under
// one shard's worth of entries) collapse to a single shard and keep
// exact global-LRU semantics.
type Cache struct {
	shards []cacheShard
}

// shardTarget is the approximate per-shard capacity used to pick the
// shard count: capacity/shardTarget shards, clamped to [1, maxShards].
// The floor keeps small caches single-sharded (exact LRU, the behavior
// unit tests pin); the ceiling bounds per-shard bookkeeping overhead.
const (
	shardTarget = 64
	maxShards   = 16
)

// cacheShard is one independently locked LRU slice of the cache. The
// pad keeps neighboring shards' mutexes and counters on distinct cache
// lines so workers on different shards never false-share.
type cacheShard struct {
	mu        sync.Mutex
	capacity  int
	ll        *list.List // front = most recently used
	byKey     map[string]*list.Element
	hits      uint64
	misses    uint64
	evictions uint64
	flights   map[string]*flight // in-progress misses by flight key
	_         [32]byte
}

// chipFPs memoizes fingerprints per chip pointer for the cache keys;
// chipFPCount bounds it so callers minting fresh chips per call cannot
// grow it without limit.
// Past the bound fingerprints are recomputed per call instead of
// stored.
var (
	chipFPs     sync.Map // *hw.Chip -> string
	chipFPCount atomic.Int64
)

const maxChipFPs = 4096

// chipFingerprint returns the memoized fingerprint of chip; ok is false
// when the chip cannot be fingerprinted.
func chipFingerprint(chip *hw.Chip) (string, bool) {
	if v, ok := chipFPs.Load(chip); ok {
		return v.(string), true
	}
	fp, err := chip.Fingerprint()
	if err != nil {
		return "", false
	}
	if chipFPCount.Load() < maxChipFPs {
		if _, loaded := chipFPs.LoadOrStore(chip, fp); !loaded {
			chipFPCount.Add(1)
		}
	}
	return fp, true
}

type cacheEntry struct {
	key  string
	prof *profile.Profile
}

// NewCache returns a cache bounded to capacity entries (minimum 1).
func NewCache(capacity int) *Cache {
	if capacity < 1 {
		capacity = 1
	}
	n := capacity / shardTarget
	if n < 1 {
		n = 1
	}
	if n > maxShards {
		n = maxShards
	}
	c := &Cache{shards: make([]cacheShard, n)}
	base, extra := capacity/n, capacity%n
	for i := range c.shards {
		s := &c.shards[i]
		s.capacity = base
		if i < extra {
			s.capacity++
		}
		s.ll = list.New()
		s.byKey = make(map[string]*list.Element, s.capacity)
		s.flights = make(map[string]*flight)
	}
	return c
}

// shard routes a key to its shard via FNV-1a over the key bytes. The
// key's leading chip fingerprint is shared across a run's lookups, so
// the whole key participates to spread program fingerprints evenly.
func (c *Cache) shard(key string) *cacheShard {
	if len(c.shards) == 1 {
		return &c.shards[0]
	}
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= prime64
	}
	return &c.shards[h%uint64(len(c.shards))]
}

// Stats returns a snapshot of the hit/miss/eviction counters summed
// across shards. Each shard snapshots atomically under its own lock;
// the sum is a consistent total for any quiescent cache and a close
// approximation under concurrent traffic.
func (c *Cache) Stats() CacheStats {
	var st CacheStats
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Hits += s.hits
		st.Misses += s.misses
		st.Evictions += s.evictions
		st.Entries += s.ll.Len()
		s.mu.Unlock()
	}
	return st
}

// cacheKey builds the memory cache's key; ok is false when the chip
// cannot be fingerprinted (the caller then bypasses the cache).
func cacheKey(chip *hw.Chip, prog *isa.Program, opts sim.Options) (string, bool) {
	chipFP, ok := chipFingerprint(chip)
	if !ok {
		return "", false
	}
	flags := []byte("--")
	if opts.DisableHazards {
		flags[0] = 'h'
	}
	if opts.KeepSpans {
		flags[1] = 's'
	}
	return chipFP + "|" + prog.Fingerprint() + "|" + string(flags), true
}

// flight is one in-progress miss: the first caller to miss a flight
// key runs the lower tiers while later callers wait on done. prof is
// the leader's result, privately copied (and cached when exact), which
// waiters copy again; err is the leader's error. Both are set before
// done closes.
type flight struct {
	done chan struct{}
	prof *profile.Profile
	err  error
}

// approxFlight suffixes the flight key of callers that accept a
// surrogate estimate, so an exact caller never joins a flight whose
// leader may answer with one.
const approxFlight = "|approx"

// errFlightAborted is what a flight's waiters get if its leader panics.
var errFlightAborted = errors.New("engine: coalesced simulation aborted")

// do answers key from the memory tier and coalesces concurrent misses:
// a hit returns a deep copy of the cached profile; the first caller to
// miss runs fill (the lower tiers) and caches its result if exact;
// callers arriving meanwhile wait for that result, get a deep copy of
// it and count as hits. approx callers accept estimates and share
// flights only with each other.
//
// Copies happen outside the shard lock: cached profiles are immutable
// once inserted, so the pointer stays valid after unlock even if the
// entry is evicted concurrently.
func (c *Cache) do(key string, approx bool, fill func() (*profile.Profile, error)) (*profile.Profile, error) {
	s := c.shard(key)
	s.mu.Lock()
	if el, ok := s.byKey[key]; ok {
		s.hits++
		s.ll.MoveToFront(el)
		prof := el.Value.(*cacheEntry).prof
		s.mu.Unlock()
		return prof.Clone(), nil
	}
	fkey := key
	if approx {
		fkey += approxFlight
	}
	if f, ok := s.flights[fkey]; ok {
		s.hits++
		s.mu.Unlock()
		<-f.done
		if f.err != nil {
			return nil, f.err
		}
		return f.prof.Clone(), nil
	}
	s.misses++
	f := &flight{done: make(chan struct{}), err: errFlightAborted}
	s.flights[fkey] = f
	s.mu.Unlock()

	var p *profile.Profile
	defer func() {
		if p != nil {
			f.prof = p.Clone()
		}
		s.mu.Lock()
		delete(s.flights, fkey)
		if p != nil && !p.Approx {
			s.insert(key, f.prof)
		}
		s.mu.Unlock()
		close(f.done)
	}()
	p, f.err = fill()
	return p, f.err
}

// insert stores prof (which must be private to the cache) under key,
// evicting the least recently used entries beyond the shard's capacity.
// The caller holds s.mu.
func (s *cacheShard) insert(key string, prof *profile.Profile) {
	if el, ok := s.byKey[key]; ok {
		// An estimate flight's gated fallback simulated the same key
		// as an exact flight; keep the existing entry.
		s.ll.MoveToFront(el)
		return
	}
	s.byKey[key] = s.ll.PushFront(&cacheEntry{key: key, prof: prof})
	for s.ll.Len() > s.capacity {
		oldest := s.ll.Back()
		s.ll.Remove(oldest)
		delete(s.byKey, oldest.Value.(*cacheEntry).key)
		s.evictions++
	}
}

// simulate is the one place that orders the simulation tiers: memory
// cache c (nil when disabled), surrogate pred (nil for exact callers),
// exact simulator. Only exact results fill the memory tier, and a
// gated estimate's exact fallback is handed to the predictor as
// training data. Whatever tier answers, the profile is private to the
// caller.
func simulate(c *Cache, chip *hw.Chip, prog *isa.Program, opts sim.Options, pred Predictor) (*profile.Profile, error) {
	lower := func() (*profile.Profile, error) {
		if pred != nil {
			if p, ok := pred.Predict(chip, prog, opts); ok && p != nil {
				atomic.AddUint64(&Live.SurrogatePredicted, 1)
				return p, nil
			}
			atomic.AddUint64(&Live.SurrogateGated, 1)
			atomic.AddUint64(&Live.SurrogateFallback, 1)
		}
		p, err := sim.RunOpts(chip, prog, opts)
		if err != nil {
			return nil, err
		}
		if pred != nil {
			pred.RecordExact(chip, prog, p)
		}
		return p, nil
	}
	if c != nil {
		if key, ok := cacheKey(chip, prog, opts); ok {
			return c.do(key, pred != nil, lower)
		}
	}
	return lower()
}

// Simulate runs the program on the chip through this cache, then the
// exact simulator. Concurrent misses on one key simulate once. Errors
// are never cached. The result is always the caller's to mutate.
func (c *Cache) Simulate(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, error) {
	return simulate(c, chip, prog, opts, nil)
}

// defaultCache is the process-wide cache consulted by Simulate. It
// starts enabled at DefaultCacheCapacity; SetCacheCapacity(0) disables
// it.
var defaultCache atomic.Pointer[Cache]

func init() {
	defaultCache.Store(NewCache(DefaultCacheCapacity))
}

// DefaultCache returns the process-default cache, or nil when caching
// is disabled.
func DefaultCache() *Cache {
	return defaultCache.Load()
}

// SetCacheCapacity replaces the process-default cache with a fresh one
// bounded to n entries; n <= 0 disables caching. Command line tools
// wire their -cache flag here. Counters reset with the replacement.
func SetCacheCapacity(n int) {
	if n <= 0 {
		defaultCache.Store(nil)
		return
	}
	defaultCache.Store(NewCache(n))
}

// Simulate is the shared simulate entry point of the hot paths: it runs
// the program through the process-default cache, or past it when
// caching is disabled.
// Cached or not, the returned profile is always private to the caller
// and the bytes are identical to an uncached sim.RunOpts (the simulator
// is deterministic).
func Simulate(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, error) {
	return simulate(defaultCache.Load(), chip, prog, opts, nil)
}
