package experiments

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// TestAllGolden pins the full report that `ascendbench -exp all` prints:
// every figure, table and case study of All, then the extension
// experiments of AllExtensions. A change to
// the simulator, the kernels or the analysis that moves any reproduced
// number shows up here as a diff. Re-bless deliberately with
// `go test ./internal/experiments -run AllGolden -update`.
func TestAllGolden(t *testing.T) {
	got := All() + "\n" + AllExtensions()
	path := filepath.Join("testdata", "all.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("report differs from %s; first difference at line %d", path, firstDiffLine(got, string(want)))
	}
}

// firstDiffLine returns the 1-based line of the first byte where a and b
// differ.
func firstDiffLine(a, b string) int {
	line := 1
	for i := 0; i < len(a) && i < len(b); i++ {
		if a[i] != b[i] {
			return line
		}
		if a[i] == '\n' {
			line++
		}
	}
	return line
}
