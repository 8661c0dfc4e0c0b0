package main

import (
	"strings"
	"testing"
	"time"

	"ascendperf/internal/serve"
)

func TestGates(t *testing.T) {
	rep := &serve.LoadReport{
		Errors:           2,
		RespCacheHitRate: 0.40,
		WarmSpeedupP50:   8,
		WarmP50NS:        int64(2 * time.Millisecond),
	}
	// All checks disabled: nothing fails.
	if fails := gates(rep, -1, -1, -1, 0); len(fails) != 0 {
		t.Fatalf("disabled gates failed: %v", fails)
	}
	// All bounds violated.
	fails := gates(rep, 0, 0.5, 10, time.Millisecond)
	if len(fails) != 4 {
		t.Fatalf("want 4 failures, got %v", fails)
	}
	for _, want := range []string{"errors", "hit rate", "speedup", "warm p50"} {
		found := false
		for _, f := range fails {
			if strings.Contains(f, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("no failure mentions %q: %v", want, fails)
		}
	}
	// All bounds satisfied.
	if fails := gates(rep, 2, 0.4, 8, 2*time.Millisecond); len(fails) != 0 {
		t.Fatalf("satisfied gates failed: %v", fails)
	}
}
