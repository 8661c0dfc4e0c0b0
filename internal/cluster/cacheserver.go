package cluster

import (
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// CacheServer is the shared second-level response cache: a tiny
// GET/PUT-over-HTTP protocol in front of a disk directory. Each entry
// is written to a temporary file and renamed into place, so concurrent
// writers and crashing peers never expose a torn entry. Values are
// encoded ascendd response bodies; keys on the wire are the hex SHA-256
// of the canonical request key (WireKey of the digest the shard already
// keys on), which keeps arbitrary-length JSON keys out of URLs and
// doubles as the filename.
// Like every cache tier in this repository it is an accelerator, not a
// correctness dependency: any I/O failure is a miss or a dropped store,
// never an error surfaced to the analysis path.
//
// A positive maxBytes caps the directory: PUTs that would push the
// resident total past the cap evict least-recently-used entries
// (oldest mtime; GETs touch it) under the same lock that does the
// size accounting, so concurrent PUTs cannot race the directory past
// the cap. maxBytes <= 0 means unbounded — the pre-cap behaviour.
//
// Protocol (FORMATS.md §9.3):
//
//	GET  /l2/{hexkey}  -> 200 + body | 404
//	PUT  /l2/{hexkey}  -> 204
//	GET  /l2stats      -> JSON CacheServerStats
type CacheServer struct {
	dir      string
	maxBytes int64

	// mu serializes PUT size accounting and eviction; GETs stay
	// lock-free (a concurrently evicted entry is just a miss).
	mu        sync.Mutex
	sizeBytes int64

	hits      atomic.Uint64
	misses    atomic.Uint64
	puts      atomic.Uint64
	errors    atomic.Uint64
	evictions atomic.Uint64
}

// CacheServerStats is the /l2stats payload.
type CacheServerStats struct {
	Dir       string `json:"dir"`
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Puts      uint64 `json:"puts"`
	Errors    uint64 `json:"errors"`
	Entries   int    `json:"entries"`
	MaxBytes  int64  `json:"max_bytes,omitempty"`
	SizeBytes int64  `json:"size_bytes"`
	Evictions uint64 `json:"evictions"`
}

// maxL2Body bounds stored values; response bodies are JSON documents a
// few KB to a few hundred KB, so 8 MiB is generous.
const maxL2Body = 8 << 20

// NewCacheServer opens (creating if needed) a cache store rooted at
// dir, capped at maxBytes of resident entries (<= 0 = unbounded).
// Entries surviving from a previous run count against the cap from the
// start: the constructor scans the directory and evicts immediately if
// a lowered cap is already exceeded.
func NewCacheServer(dir string, maxBytes int64) (*CacheServer, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("cluster: cache server: %w", err)
	}
	c := &CacheServer{dir: dir, maxBytes: maxBytes}
	c.mu.Lock()
	defer c.mu.Unlock()
	if names, err := os.ReadDir(dir); err == nil {
		for _, n := range names {
			if !strings.HasSuffix(n.Name(), ".l2") {
				continue
			}
			if info, err := n.Info(); err == nil {
				c.sizeBytes += info.Size()
			}
		}
	}
	c.evictLocked()
	return c, nil
}

// Stats snapshots the counters and counts resident entries.
func (c *CacheServer) Stats() CacheServerStats {
	entries := 0
	if names, err := os.ReadDir(c.dir); err == nil {
		for _, n := range names {
			if strings.HasSuffix(n.Name(), ".l2") {
				entries++
			}
		}
	}
	c.mu.Lock()
	size := c.sizeBytes
	c.mu.Unlock()
	return CacheServerStats{
		Dir:       c.dir,
		Hits:      c.hits.Load(),
		Misses:    c.misses.Load(),
		Puts:      c.puts.Load(),
		Errors:    c.errors.Load(),
		Entries:   entries,
		MaxBytes:  c.maxBytes,
		SizeBytes: size,
		Evictions: c.evictions.Load(),
	}
}

// validKey reports whether k is a well-formed wire key (64 hex chars —
// a SHA-256); anything else is rejected before it can touch the
// filesystem.
func validKey(k string) bool {
	if len(k) != 64 {
		return false
	}
	for i := 0; i < len(k); i++ {
		c := k[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// ServeHTTP implements the protocol. Mount under /l2/ plus /l2stats.
func (c *CacheServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if r.URL.Path == "/l2stats" {
		body, _ := json.MarshalIndent(c.Stats(), "", "  ")
		w.Header().Set("Content-Type", "application/json")
		w.Write(append(body, '\n'))
		return
	}
	key := strings.TrimPrefix(r.URL.Path, "/l2/")
	if !validKey(key) {
		http.Error(w, "bad cache key", http.StatusBadRequest)
		return
	}
	path := filepath.Join(c.dir, key+".l2")
	switch r.Method {
	case http.MethodGet:
		body, err := os.ReadFile(path)
		if err != nil {
			c.misses.Add(1)
			http.Error(w, "miss", http.StatusNotFound)
			return
		}
		// Touch so eviction order approximates LRU rather than
		// insertion order. Best-effort: a failed touch only ages the
		// entry, it cannot corrupt anything.
		now := time.Now()
		os.Chtimes(path, now, now)
		c.hits.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
	case http.MethodPut:
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxL2Body))
		if err != nil {
			c.errors.Add(1)
			http.Error(w, "read body: "+err.Error(), http.StatusBadRequest)
			return
		}
		if c.maxBytes > 0 && int64(len(body)) > c.maxBytes {
			// One entry larger than the whole cap: storing it would
			// evict everything and still violate the cap, so decline.
			// A dropped store is invisible to callers by design.
			w.WriteHeader(http.StatusNoContent)
			return
		}
		if err := c.store(path, body); err != nil {
			c.errors.Add(1)
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		c.puts.Add(1)
		w.WriteHeader(http.StatusNoContent)
	default:
		http.Error(w, "GET or PUT required", http.StatusMethodNotAllowed)
	}
}

// store lands body at path and settles the size budget. The whole
// operation — replacement stat, rename, accounting, eviction — runs
// under mu so concurrent PUTs serialize their budget updates and the
// directory never overshoots the cap.
func (c *CacheServer) store(path string, body []byte) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var replaced int64
	if info, err := os.Stat(path); err == nil {
		replaced = info.Size()
	}
	if err := c.write(path, body); err != nil {
		return err
	}
	c.sizeBytes += int64(len(body)) - replaced
	c.evictLocked()
	return nil
}

// evictLocked removes least-recently-used entries (oldest mtime) until
// the resident total fits the cap. Caller holds mu.
func (c *CacheServer) evictLocked() {
	if c.maxBytes <= 0 || c.sizeBytes <= c.maxBytes {
		return
	}
	type entry struct {
		name  string
		size  int64
		mtime time.Time
	}
	names, err := os.ReadDir(c.dir)
	if err != nil {
		return
	}
	entries := make([]entry, 0, len(names))
	for _, n := range names {
		if !strings.HasSuffix(n.Name(), ".l2") {
			continue
		}
		info, err := n.Info()
		if err != nil {
			continue
		}
		entries = append(entries, entry{n.Name(), info.Size(), info.ModTime()})
	}
	sort.Slice(entries, func(i, j int) bool { return entries[i].mtime.Before(entries[j].mtime) })
	// Re-derive the resident total from the scan: counter drift (e.g.
	// an entry deleted behind our back) must not strand the budget.
	var total int64
	for _, e := range entries {
		total += e.size
	}
	c.sizeBytes = total
	for _, e := range entries {
		if c.sizeBytes <= c.maxBytes {
			break
		}
		if err := os.Remove(filepath.Join(c.dir, e.name)); err != nil && !os.IsNotExist(err) {
			continue
		}
		c.sizeBytes -= e.size
		c.evictions.Add(1)
	}
}

// write lands body at path atomically: temp file in the same directory,
// then rename, so readers and concurrent writers only ever see complete
// entries.
func (c *CacheServer) write(path string, body []byte) error {
	tmp, err := os.CreateTemp(c.dir, "tmp-*.l2w")
	if err != nil {
		return err
	}
	_, werr := tmp.Write(body)
	cerr := tmp.Close()
	if werr != nil || cerr != nil {
		os.Remove(tmp.Name())
		if werr != nil {
			return werr
		}
		return cerr
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// WireKey maps a request digest (serve.CanonicalKey: SHA-256 of the
// endpoint-qualified canonical key) to its on-the-wire (and on-disk)
// form: lower-case hex. Collision of distinct canonical keys is treated
// as impossible, as it is for the episode store's SHA-256 filenames.
func WireKey(key [32]byte) string {
	return hex.EncodeToString(key[:])
}
