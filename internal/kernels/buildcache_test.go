package kernels

import (
	"sync"
	"testing"

	"ascendperf/internal/hw"
)

// TestBuildMemoSharesOnePointer: concurrent builds of one key all get
// the stored program, failed builds are cached, and distinct chips and
// options stay distinct keys.
func TestBuildMemoSharesOnePointer(t *testing.T) {
	var b BuildMemo
	chip := hw.TrainingChip()
	k := NewAddReLU()
	var wg sync.WaitGroup
	progs := make([]any, 8)
	for i := range progs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := b.Build(chip, k, k.Baseline())
			if err != nil {
				t.Error(err)
			}
			progs[i] = p
		}(i)
	}
	wg.Wait()
	for i := range progs {
		if progs[i] != progs[0] {
			t.Fatalf("build %d returned a different program than build 0", i)
		}
	}
	if p, _ := b.Build(chip, k, FullyOptimized(k)); p == progs[0] {
		t.Error("different options shared a program")
	}
	if p, _ := b.Build(hw.TrainingChip(), k, k.Baseline()); p == progs[0] {
		t.Error("different chip objects shared a program")
	}

	tiny := hw.TrainingChip()
	tiny.BufferSize[hw.UB] = 32
	_, err1 := b.Build(tiny, k, k.Baseline())
	_, err2 := b.Build(tiny, k, k.Baseline())
	if err1 == nil || err1 != err2 {
		t.Errorf("infeasible build errors %v, %v: want one cached error", err1, err2)
	}
}
