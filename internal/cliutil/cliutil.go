// Package cliutil holds the small helpers shared by the command-line
// tools: chip resolution (preset name or spec file), model lookup,
// build identification and the header of every committed BENCH file.
package cliutil

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"

	"ascendperf/internal/hw"
	"ascendperf/internal/model"
)

// BuildInfo returns a one-line build identifier for a deployed binary,
// stamped from runtime/debug.ReadBuildInfo: module version, VCS
// revision and commit time when the binary was built from a checkout,
// and the Go toolchain version. Every command prints it under
// -version, so a binary on a serving host can always be traced back to
// a commit.
func BuildInfo(tool string) string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return fmt.Sprintf("%s (no build info; built without module support)", tool)
	}
	version := bi.Main.Version
	if version == "" || version == "(devel)" {
		version = "devel"
	}
	var parts []string
	parts = append(parts, fmt.Sprintf("%s %s", tool, version))
	var rev, at string
	dirty := false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.time":
			at = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if rev != "" {
		if len(rev) > 12 {
			rev = rev[:12]
		}
		if dirty {
			rev += "+dirty"
		}
		parts = append(parts, "rev "+rev)
	}
	if at != "" {
		parts = append(parts, at)
	}
	parts = append(parts, runtime.Version())
	return strings.Join(parts, ", ")
}

// ChipByName resolves a chip preset name (training, inference, tpu) or,
// when the argument names a readable file, loads it as a chip
// specification JSON. Every command accepts both forms.
func ChipByName(name string) (*hw.Chip, error) {
	switch name {
	case "training":
		return hw.TrainingChip(), nil
	case "inference":
		return hw.InferenceChip(), nil
	case "tpu":
		return hw.TPUStyleChip(), nil
	}
	f, err := os.Open(name)
	if err != nil {
		return nil, fmt.Errorf("unknown chip %q (not a preset or a readable spec file)", name)
	}
	defer f.Close()
	return hw.ReadChipJSON(f)
}

// ModelByName finds a built-in workload (Table 2 or extended) by name.
func ModelByName(name string) (*model.Model, error) {
	for _, m := range model.Extended() {
		if m.Name == name {
			return m, nil
		}
	}
	return nil, fmt.Errorf("unknown model %q", name)
}

// BenchHeader opens every committed BENCH_*.json record: which format,
// which chip, how much machine and which command produced the numbers,
// so a figure is never read without the core count it was measured on.
type BenchHeader struct {
	Schema string `json:"schema"`
	Chip   string `json:"chip"`
	// Cores is runtime.NumCPU: the CPUs this process may run on, the
	// count nproc prints.
	Cores      int    `json:"cores"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Seed       uint64 `json:"seed"`
	// Command is the invocation, program name without its directory.
	Command string `json:"command"`
}

// NewBenchHeader fills a header for this process.
func NewBenchHeader(schema, chip string, seed uint64) BenchHeader {
	args := append([]string{filepath.Base(os.Args[0])}, os.Args[1:]...)
	return BenchHeader{
		Schema:     schema,
		Chip:       chip,
		Cores:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Seed:       seed,
		Command:    strings.Join(args, " "),
	}
}
