package engine_test

import (
	"testing"

	"ascendperf/internal/engine"
	"ascendperf/internal/graph"
	"ascendperf/internal/hw"
	"ascendperf/internal/model"
)

// TestGraphRunsReuseChipFingerprints: graph scheduling derives per-core
// chips on every request, and each derived chip it simulates on is a
// key of the engine's chip-fingerprint memo. Repeat requests on one
// preset must reuse the derived chips of the first, so the memo does
// not grow per request (it stays pinned for the life of a daemon).
func TestGraphRunsReuseChipFingerprints(t *testing.T) {
	const cores = 4
	chip := hw.TrainingChip()
	var m *model.Model
	for _, cand := range model.Extended() {
		if cand.Name == "Llama 2 Decode" {
			m = cand
		}
	}
	if m == nil {
		t.Fatal("model Llama 2 Decode not found")
	}
	run := func() {
		if _, err := graph.Run(chip, m, graph.Options{Cores: cores}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	after := engine.ChipFPCount()
	for i := 1; i < 50; i++ {
		run()
	}
	if grown := engine.ChipFPCount() - after; grown > cores {
		t.Fatalf("50 graph runs grew the chip-fingerprint memo by %d entries after the first, want at most %d", grown, cores)
	}
}
