package cliutil

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"ascendperf/internal/hw"
)

func TestChipByNamePresets(t *testing.T) {
	for name, want := range map[string]string{
		"training": "ascend-training", "inference": "ascend-inference", "tpu": "tpu-style",
	} {
		chip, err := ChipByName(name)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if chip.Name != want {
			t.Errorf("%s resolved to %s", name, chip.Name)
		}
	}
}

func TestChipByNameSpecFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "chip.json")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := hw.TrainingChip().WriteJSON(f); err != nil {
		t.Fatal(err)
	}
	f.Close()
	chip, err := ChipByName(path)
	if err != nil {
		t.Fatal(err)
	}
	if chip.Name != "ascend-training" {
		t.Errorf("loaded chip name = %s", chip.Name)
	}
	if _, err := ChipByName("no-such-preset-or-file"); err == nil {
		t.Error("bogus chip accepted")
	}
}

func TestModelByName(t *testing.T) {
	m, err := ModelByName("PanGu-alpha")
	if err != nil {
		t.Fatal(err)
	}
	if m.Params != "100B" {
		t.Errorf("params = %s", m.Params)
	}
	if _, err := ModelByName("SkyNet"); err == nil {
		t.Error("unknown model accepted")
	}
}

func TestBuildInfo(t *testing.T) {
	s := BuildInfo("ascendprof")
	if !strings.HasPrefix(s, "ascendprof") {
		t.Errorf("missing tool name: %q", s)
	}
	// Tests always run with module support, so the Go toolchain version
	// must be present.
	if !strings.Contains(s, runtime.Version()) {
		t.Errorf("missing go version: %q", s)
	}
}

func TestNewBenchHeader(t *testing.T) {
	h := NewBenchHeader("ascendperf/x/v1", "training", 7)
	if h.Schema != "ascendperf/x/v1" || h.Chip != "training" || h.Seed != 7 {
		t.Errorf("header = %+v", h)
	}
	if h.Cores != runtime.NumCPU() || h.GOMAXPROCS != runtime.GOMAXPROCS(0) {
		t.Errorf("cores %d, GOMAXPROCS %d; want %d, %d", h.Cores, h.GOMAXPROCS, runtime.NumCPU(), runtime.GOMAXPROCS(0))
	}
	// The command names the program without the directory it ran from.
	if prog := filepath.Base(os.Args[0]); !strings.HasPrefix(h.Command, prog) {
		t.Errorf("command %q, want it to start with %q", h.Command, prog)
	}
}
