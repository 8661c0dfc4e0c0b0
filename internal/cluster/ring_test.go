package cluster

import (
	"crypto/sha256"
	"fmt"
	"testing"
)

func TestRingRejectsBadConfigs(t *testing.T) {
	if _, err := NewRing(nil, 0); err == nil {
		t.Error("empty ring accepted")
	}
	if _, err := NewRing([]string{"a", "a"}, 0); err == nil {
		t.Error("duplicate node accepted")
	}
}

// TestRingDistribution bounds the balance of a 3-backend ring at the
// default replica count: with 10k uniformly hashed keys every backend
// must hold a reasonable share. The bounds are loose enough to be
// deterministic (the hash is fixed) yet tight enough that a broken
// replica scheme — e.g. hashing only the node name — fails immediately.
func TestRingDistribution(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	r, err := NewRing(nodes, DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10000
	counts := map[string]int{}
	for i := 0; i < keys; i++ {
		counts[r.Owner(digest(fmt.Sprintf("key-%d", i)))]++
	}
	for _, n := range nodes {
		share := float64(counts[n]) / keys
		if share < 0.25 || share > 0.42 {
			t.Errorf("node %s owns share %.3f, want within [0.25, 0.42] (counts %v)", n, share, counts)
		}
	}
}

// TestRingConsistency is the property the cluster's cache locality
// rests on: removing one node moves ONLY the keys that node owned.
// Every key owned by a surviving node must keep its owner exactly, and
// the moved fraction equals the removed node's share (≤ ~1/N plus the
// balance slack).
func TestRingConsistency(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	full, err := NewRing(nodes, DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	reduced, err := NewRing(nodes[:2], DefaultReplicas)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 10000
	removed := nodes[2]
	moved := 0
	for i := 0; i < keys; i++ {
		k := digest(fmt.Sprintf("key-%d", i))
		before := full.Owner(k)
		after := reduced.Owner(k)
		if before == removed {
			moved++
			continue
		}
		if before != after {
			t.Fatalf("key %x moved %s -> %s though its owner survived", k, before, after)
		}
	}
	// The moved fraction is exactly the removed node's share; bound it
	// by 1/N plus the distribution slack the balance test allows.
	if frac := float64(moved) / keys; frac > 1.0/3+0.09 {
		t.Errorf("node loss remapped %.3f of keys, want <= 1/3 + slack", frac)
	}
}

// TestRingSequence checks the failover order: it starts at the owner,
// covers every node exactly once, and its second entry is the node that
// would own the key if the owner were removed — so failover traffic
// lands where a rebuilt ring would route it anyway.
func TestRingSequence(t *testing.T) {
	nodes := []string{"http://a:1", "http://b:2", "http://c:3"}
	full, _ := NewRing(nodes, DefaultReplicas)
	for i := 0; i < 200; i++ {
		k := digest(fmt.Sprintf("key-%d", i))
		seq := full.Sequence(k)
		if len(seq) != len(nodes) {
			t.Fatalf("sequence %v misses nodes", seq)
		}
		if seq[0] != full.Owner(k) {
			t.Fatalf("sequence %v does not start at owner %s", seq, full.Owner(k))
		}
		seen := map[string]bool{}
		for _, n := range seq {
			if seen[n] {
				t.Fatalf("sequence %v repeats %s", seq, n)
			}
			seen[n] = true
		}
		// Drop the owner; the reduced ring's owner must be the
		// sequence's second entry.
		var rest []string
		for _, n := range nodes {
			if n != seq[0] {
				rest = append(rest, n)
			}
		}
		reduced, _ := NewRing(rest, DefaultReplicas)
		if got := reduced.Owner(k); got != seq[1] {
			t.Fatalf("key %x: failover target %s, but reduced ring owner %s", k, seq[1], got)
		}
	}
}

// digest stands in for a request digest in tests that name keys by
// string.
func digest(s string) [32]byte { return sha256.Sum256([]byte(s)) }
