// Episodic memory for the beam-search tuner: each completed search
// persists its best-known candidate (strategies, tile, passes, exact
// times) keyed by a fingerprint of everything that determines the
// search outcome — chip, kernel baseline program, supported strategy
// set, tile set and search parameters. A later run with the same key
// re-verifies the recorded winner through the exact engine (two or
// three simulations) and, on a bit-exact match, skips the search
// entirely; any mismatch falls back to a full search and overwrites
// the episode. The store keeps one JSON file per key under a
// directory, named by the key's SHA-256.
package opt

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"sync/atomic"
)

// episodeSchema versions the on-disk episode format. v2 keys embed the
// compact program fingerprint (isa.Program.Fingerprint); a v1 file is a
// miss, never read as a v2 episode.
const episodeSchema = "ascendperf/episodes/v2"

// Episode is one persisted best-known candidate.
type Episode struct {
	// Schema is episodeSchema; files with any other value are misses.
	Schema string `json:"schema"`
	// Key is the full (unhashed) episode key, for verification.
	Key string `json:"key"`
	// Kernel is the operator name.
	Kernel string `json:"kernel"`
	// Strategies is the winning strategy set in canonical enum order.
	Strategies []string `json:"strategies"`
	// TileSize is the winning tile in elements; 0 for untunable kernels.
	TileSize int64 `json:"tile_size,omitempty"`
	// Passes is the winning program-pass refinement, in application
	// order (subset of ["minimal_sync", "hoist_loads"]).
	Passes []string `json:"passes,omitempty"`
	// BaselineNS and BestNS are the exact baseline and best makespans;
	// RawBestNS is the best before pass refinement. All three are
	// re-verified bit-exact on warm start.
	BaselineNS float64 `json:"baseline_ns"`
	RawBestNS  float64 `json:"raw_best_ns"`
	BestNS     float64 `json:"best_ns"`
	// ExactSims and Generations record the cold search's cost, so a
	// warm run can report how much the episode saved.
	ExactSims   int `json:"exact_sims"`
	Generations int `json:"generations"`
}

// EpisodeStore is a directory of Episode files. The zero value is not
// usable; NewEpisodeStore validates the directory.
type EpisodeStore struct {
	dir string

	hits, misses, writes, errors atomic.Uint64
}

// NewEpisodeStore opens (creating if needed) an episode directory.
func NewEpisodeStore(dir string) (*EpisodeStore, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	return &EpisodeStore{dir: dir}, nil
}

// Dir returns the store's directory.
func (s *EpisodeStore) Dir() string { return s.dir }

// path maps a key to its file: SHA-256 so arbitrary key text is safe
// as a filename.
func (s *EpisodeStore) path(key string) string {
	sum := sha256.Sum256([]byte(key))
	return filepath.Join(s.dir, hex.EncodeToString(sum[:])+".json")
}

// Load returns the episode stored under key, or nil on any miss
// (absent file, unreadable JSON, schema or key mismatch).
func (s *EpisodeStore) Load(key string) *Episode {
	data, err := os.ReadFile(s.path(key))
	if err != nil {
		s.misses.Add(1)
		return nil
	}
	var e Episode
	if err := json.Unmarshal(data, &e); err != nil || e.Schema != episodeSchema || e.Key != key {
		s.misses.Add(1)
		if err != nil || e.Schema != episodeSchema {
			s.errors.Add(1)
		}
		return nil
	}
	s.hits.Add(1)
	return &e
}

// Store persists the episode under key, atomically (temp file +
// rename), so a concurrent Load never sees a partial file.
func (s *EpisodeStore) Store(key string, e *Episode) {
	e.Schema = episodeSchema
	e.Key = key
	data, err := json.Marshal(e)
	if err != nil {
		s.errors.Add(1)
		return
	}
	tmp, err := os.CreateTemp(s.dir, "tmp-*.json")
	if err != nil {
		s.errors.Add(1)
		return
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return
	}
	if err := os.Rename(tmp.Name(), s.path(key)); err != nil {
		os.Remove(tmp.Name())
		s.errors.Add(1)
		return
	}
	s.writes.Add(1)
}

// EpisodeStoreStats is a counter snapshot of one store.
type EpisodeStoreStats struct {
	Dir                          string
	Hits, Misses, Writes, Errors uint64
}

// Stats snapshots the store's counters.
func (s *EpisodeStore) Stats() EpisodeStoreStats {
	return EpisodeStoreStats{
		Dir:    s.dir,
		Hits:   s.hits.Load(),
		Misses: s.misses.Load(),
		Writes: s.writes.Load(),
		Errors: s.errors.Load(),
	}
}

// defaultEpisodes is the process-wide store searches use when their
// config does not name one; nil disables episodic memory.
var defaultEpisodes atomic.Pointer[EpisodeStore]

// SetEpisodeDir installs (or with "" removes) the process-wide episode
// store. Daemons wire their -episodes flag here.
func SetEpisodeDir(dir string) error {
	if dir == "" {
		defaultEpisodes.Store(nil)
		return nil
	}
	s, err := NewEpisodeStore(dir)
	if err != nil {
		return err
	}
	defaultEpisodes.Store(s)
	return nil
}

// DefaultEpisodeStore returns the process-wide store, nil when none is
// configured.
func DefaultEpisodeStore() *EpisodeStore {
	return defaultEpisodes.Load()
}

func init() {
	if dir := os.Getenv("ASCENDPERF_EPISODE_DIR"); dir != "" {
		// A bad directory is ignored rather than failing process start.
		_ = SetEpisodeDir(dir)
	}
}
