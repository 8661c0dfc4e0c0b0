package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ascendperf/internal/trace"
)

func TestRunListsOperators(t *testing.T) {
	if err := run(runOpts{chip: "training"}); err != nil {
		t.Fatal(err)
	}
}

func TestRunFullFeatureSet(t *testing.T) {
	dir := t.TempDir()
	o := runOpts{
		op: "add_relu", chip: "training",
		optimized: true, timeline: true, naive: true,
		disasm: true, critPath: true, metrics: true,
		tracePath:   filepath.Join(dir, "t.json"),
		csvPath:     filepath.Join(dir, "t.csv"),
		metricsJSON: filepath.Join(dir, "m.json"),
	}
	if err := run(o); err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{o.tracePath, o.csvPath, o.metricsJSON} {
		if _, err := os.Stat(p); err != nil {
			t.Errorf("output %s not written: %v", p, err)
		}
	}
}

func TestRunInferenceChip(t *testing.T) {
	if err := run(runOpts{op: "avgpool", chip: "inference"}); err != nil {
		t.Fatal(err)
	}
}

// TestTraceFlagEmitsValidTrace is the acceptance check: -trace output
// passes schema validation (the machine stand-in for "loads in
// Perfetto") and -checktrace accepts it.
func TestTraceFlagEmitsValidTrace(t *testing.T) {
	out := filepath.Join(t.TempDir(), "trace.json")
	if err := run(runOpts{op: "add_relu", chip: "training", tracePath: out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := trace.Validate(f); err != nil {
		t.Fatal(err)
	}
	if err := validateTraceFile(out); err != nil {
		t.Fatal(err)
	}
	if err := validateTraceFile(filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("missing trace file accepted")
	}
}

// TestMetricsJSONFlag checks the -metricsjson schema tag and that the
// per-component decomposition reaches the file.
func TestMetricsJSONFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "m.json")
	if err := run(runOpts{op: "depthwise", chip: "training", metricsJSON: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Schema     string           `json:"schema"`
		Components []map[string]any `json:"components"`
	}
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if m.Schema != trace.SchemaMetrics {
		t.Errorf("schema %q, want %q", m.Schema, trace.SchemaMetrics)
	}
	if len(m.Components) == 0 {
		t.Error("no components in metrics JSON")
	}
}

func TestHTMLReportFlag(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.html")
	if err := run(runOpts{op: "depthwise", chip: "training", htmlPath: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</html>") {
		t.Error("incomplete HTML report")
	}
	if !strings.Contains(string(data), "timeline-svg") {
		t.Error("HTML report lacks the embedded timeline")
	}
	if !strings.Contains(string(data), "critical path") {
		t.Error("HTML report lacks the critical-path overlay")
	}
}

func TestRunToFile(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.svg")
	if err := run(runOpts{op: "depthwise", chip: "training", optimized: true, svgPath: out}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "</svg>") {
		t.Error("incomplete SVG")
	}
}

func TestSaveAndAnalyze(t *testing.T) {
	dir := t.TempDir()
	saved := filepath.Join(dir, "p.json")
	if err := run(runOpts{op: "mul", chip: "training", savePath: saved}); err != nil {
		t.Fatal(err)
	}
	if err := analyzeSaved(saved, "", "training"); err != nil {
		t.Fatal(err)
	}
	if err := analyzeSaved(filepath.Join(dir, "missing.json"), "", "training"); err == nil {
		t.Error("missing file accepted")
	}
	if err := analyzeSaved(saved, "", "quantum"); err == nil {
		t.Error("unknown chip accepted")
	}

	// Diff mode: compare baseline against the optimized variant.
	opt := filepath.Join(dir, "opt.json")
	if err := run(runOpts{op: "mul", chip: "training", optimized: true, savePath: opt}); err != nil {
		t.Fatal(err)
	}
	if err := analyzeSaved(saved, opt, "training"); err != nil {
		t.Fatal(err)
	}
	if err := analyzeSaved(saved, filepath.Join(dir, "missing.json"), "training"); err == nil {
		t.Error("missing diff file accepted")
	}
}

func TestCustomChipFile(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "chip.json")
	if err := writeChipSpec("training", spec); err != nil {
		t.Fatal(err)
	}
	// The spec file now works anywhere a preset name does.
	if err := run(runOpts{op: "mul", chip: spec}); err != nil {
		t.Fatal(err)
	}
	if err := writeChipSpec("quantum", spec); err == nil {
		t.Error("unknown preset accepted for dump")
	}
}

func TestRunHandWrittenProgram(t *testing.T) {
	dir := t.TempDir()
	asm := filepath.Join(dir, "p.txt")
	src := "copy GM->UB bytes=4096\nset_flag MTE-GM->Vector ev=0\nwait_flag MTE-GM->Vector ev=0\nVector.FP16 ops=2048 repeat=1\n"
	if err := os.WriteFile(asm, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(runOpts{asm: asm, chip: "training", timeline: true, critPath: true, metrics: true}); err != nil {
		t.Fatal(err)
	}
	if err := run(runOpts{asm: filepath.Join(dir, "missing.txt"), chip: "training"}); err == nil {
		t.Error("missing asm accepted")
	}
}

func TestRunSweep(t *testing.T) {
	if err := runSweep("add", "training", true, "0.5,1,2"); err != nil {
		t.Fatal(err)
	}
	if err := runSweep("nope", "training", false, "1"); err == nil {
		t.Error("unknown operator accepted")
	}
	if err := runSweep("add", "training", false, "x"); err == nil {
		t.Error("bad scale accepted")
	}
	if err := runSweep("add", "quantum", false, "1"); err == nil {
		t.Error("unknown chip accepted")
	}
}

func TestRunErrors(t *testing.T) {
	if err := run(runOpts{op: "nope", chip: "training"}); err == nil {
		t.Error("unknown operator accepted")
	}
	if err := run(runOpts{op: "add_relu", chip: "quantum"}); err == nil {
		t.Error("unknown chip accepted")
	}
}

func TestRunHTMLReport(t *testing.T) {
	dir := t.TempDir()
	htmlOut, svgOut := filepath.Join(dir, "r.html"), filepath.Join(dir, "r.svg")
	if err := run(runOpts{op: "add_relu", chip: "training", htmlPath: htmlOut, svgPath: svgOut}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(htmlOut)
	if err != nil {
		t.Fatal(err)
	}
	html := string(data)
	if !strings.Contains(html, "</html>") {
		t.Error("incomplete HTML report")
	}
	if !strings.Contains(html, "timeline-svg") {
		t.Error("report lacks the embedded timeline")
	}
	if !strings.Contains(html, "critical path") {
		t.Error("report lacks the critical-path overlay")
	}
	// Both outputs can be asked for in one run.
	svg, err := os.ReadFile(svgOut)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(svg), "</svg>") {
		t.Error("incomplete SVG")
	}
}

func TestRunSVGErrors(t *testing.T) {
	out := filepath.Join(t.TempDir(), "r.svg")
	if err := run(runOpts{op: "nope", chip: "training", svgPath: out}); err == nil {
		t.Error("unknown operator accepted")
	}
	if err := run(runOpts{op: "mul", chip: "quantum", svgPath: out}); err == nil {
		t.Error("unknown chip accepted")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Error("SVG written despite the error")
	}
}
