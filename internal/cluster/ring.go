// Package cluster turns the single-process analysis daemon (ascendd)
// into a horizontally scaled serving tier:
//
//   - a consistent-hash Ring places canonicalized requests on N
//     backends so each shard's coalescing flights and response LRU stay
//     hot for "its" keys;
//   - a Router (cmd/ascendrouter) fronts the backends over HTTP with
//     health-aware single-retry failover;
//   - a CacheServer + L2Client pair is the shared second-level response
//     cache consulted on local-LRU miss, so a cold key simulates once
//     cluster-wide and a restarted (or failed-over) shard warm-starts
//     from its peers' work;
//   - a deterministic Zipf sampler and the load driver (Run) measure
//     a running daemon or router, or spawned clusters of it:
//     BENCH_serve.json and BENCH_cluster.json, FORMATS.md §8.5.
package cluster

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sort"
)

// position maps a SHA-256 digest onto the ring's key space: its first
// 8 bytes, big-endian. Requests arrive already digested (the canonical
// key, FORMATS.md §9.2); virtual nodes are digests of "node#replica".
// SHA-256 rather than a fast non-cryptographic hash because the uniform
// distribution is what the ring's balance bounds rest on.
func position(digest [32]byte) uint64 {
	return binary.BigEndian.Uint64(digest[:8])
}

// Ring is a consistent-hash ring with virtual-node replication. Each
// node owns the arc below each of its replica points; a key belongs to
// the first point at or clockwise of its hash. Removing a node moves
// only the keys that node owned — every other key keeps its owner —
// which is the property that keeps surviving shards' caches hot through
// a backend failure.
type Ring struct {
	replicas int
	nodes    []string
	points   []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node int // index into nodes
}

// DefaultReplicas is the virtual-node count per backend: enough that a
// 3-node ring balances within a few percent, cheap enough that ring
// construction stays sub-millisecond.
const DefaultReplicas = 128

// NewRing builds a ring over nodes (backend identifiers, typically base
// URLs) with the given replica count per node; replicas <= 0 uses
// DefaultReplicas.
func NewRing(nodes []string, replicas int) (*Ring, error) {
	if len(nodes) == 0 {
		return nil, fmt.Errorf("cluster: ring needs at least one node")
	}
	seen := make(map[string]bool, len(nodes))
	for _, n := range nodes {
		if seen[n] {
			return nil, fmt.Errorf("cluster: duplicate ring node %q", n)
		}
		seen[n] = true
	}
	if replicas <= 0 {
		replicas = DefaultReplicas
	}
	r := &Ring{
		replicas: replicas,
		nodes:    append([]string(nil), nodes...),
		points:   make([]ringPoint, 0, len(nodes)*replicas),
	}
	for i, n := range r.nodes {
		for v := 0; v < replicas; v++ {
			r.points = append(r.points, ringPoint{
				hash: position(sha256.Sum256([]byte(fmt.Sprintf("%s#%d", n, v)))),
				node: i,
			})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// Nodes returns the ring's nodes in construction order.
func (r *Ring) Nodes() []string { return append([]string(nil), r.nodes...) }

// start returns the index of the first ring point at or clockwise of
// key's position.
func (r *Ring) start(key [32]byte) int {
	h := position(key)
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	if i == len(r.points) {
		i = 0
	}
	return i
}

// Owner returns the node that owns key, a request digest.
func (r *Ring) Owner(key [32]byte) string {
	return r.nodes[r.points[r.start(key)].node]
}

// Sequence returns all nodes in ring order starting from key's owner,
// each node once: the failover order. The router tries Sequence(key)[0]
// first and, on failure, the next distinct node — which is exactly the
// node that would own the key if the first were removed from the ring,
// so retried traffic lands where a rebuilt ring would send it anyway.
func (r *Ring) Sequence(key [32]byte) []string {
	out := make([]string, 0, len(r.nodes))
	seen := make([]bool, len(r.nodes))
	for i, n := r.start(key), 0; n < len(r.points); i, n = (i+1)%len(r.points), n+1 {
		if node := r.points[i].node; !seen[node] {
			seen[node] = true
			out = append(out, r.nodes[node])
			if len(out) == len(r.nodes) {
				break
			}
		}
	}
	return out
}
