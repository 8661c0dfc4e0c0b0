package trace

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ascendperf/internal/critpath"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

var update = flag.Bool("update", false, "rewrite golden files")

// miniProgram is a small fixed pipeline touching transfer, compute and
// every synchronization kind, used for the golden trace.
const miniProgram = `
; golden-trace pipeline
copy GM->UB bytes=4096 reads=GM[0:4096) writes=UB[0:4096) ; load-x
set_flag MTE-GM->Vector ev=0
wait_flag MTE-GM->Vector ev=0
Vector.FP16 ops=2048 repeat=1 reads=UB[0:4096) writes=UB[4096:8192) ; relu
pipe_barrier(PIPE_ALL)
copy UB->GM bytes=4096 reads=UB[4096:8192) writes=GM[65536:69632) ; store-y
`

func miniTrace(t *testing.T) (*hw.Chip, *isa.Program, *Document) {
	t.Helper()
	chip := hw.TrainingChip()
	prog, err := isa.Parse("mini", strings.NewReader(miniProgram))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := critpath.Compute(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	doc, err := New(chip, prog, p, Options{CritPath: cp})
	if err != nil {
		t.Fatal(err)
	}
	return chip, prog, doc
}

// TestGoldenTrace locks the emitted trace JSON byte-for-byte. Format
// changes are deliberate schema changes: regenerate with
// `go test ./internal/trace -run TestGoldenTrace -update` and document
// the change in FORMATS.md §6.
func TestGoldenTrace(t *testing.T) {
	chip, prog, _ := miniTrace(t)
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := critpath.Compute(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, chip, prog, p, Options{CritPath: cp}); err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "mini_trace.golden.json")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("trace JSON diverges from %s (rerun with -update if the schema change is intended)\ngot:\n%s", golden, buf.String())
	}
	if err := Validate(bytes.NewReader(want)); err != nil {
		t.Errorf("golden trace fails validation: %v", err)
	}
}

// TestPerfettoRequiredFieldsRoundTrip emits traces for real kernels and
// re-decodes them as generic JSON, checking the fields Perfetto requires
// are always present: pid/tid/ts/ph on every event, dur on complete
// events, a named track for every tid that carries spans.
func TestPerfettoRequiredFieldsRoundTrip(t *testing.T) {
	chip := hw.TrainingChip()
	for _, name := range []string{"add_relu", "depthwise", "matmul"} {
		k := kernels.Registry()[name]
		if k == nil {
			t.Fatalf("kernel %q missing", name)
		}
		prog, err := k.Build(chip, k.Baseline())
		if err != nil {
			t.Fatal(err)
		}
		p, err := sim.Run(chip, prog)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := Write(&buf, chip, prog, p, Options{}); err != nil {
			t.Fatal(err)
		}
		if err := Validate(bytes.NewReader(buf.Bytes())); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
			t.Fatal(err)
		}
		var spans, flows int
		for _, ev := range doc.TraceEvents {
			for _, field := range []string{"ph", "pid", "tid", "ts"} {
				if _, ok := ev[field]; !ok {
					t.Fatalf("%s: event %v missing %s", name, ev, field)
				}
			}
			switch ev["ph"] {
			case "X":
				if _, ok := ev["dur"]; !ok {
					t.Fatalf("%s: X event missing dur: %v", name, ev)
				}
				spans++
			case "s":
				flows++
			}
		}
		if spans != len(prog.Instrs) {
			t.Errorf("%s: %d X events for %d instructions", name, spans, len(prog.Instrs))
		}
		waits := 0
		for i := range prog.Instrs {
			if prog.Instrs[i].Kind == isa.KindWaitFlag {
				waits++
			}
		}
		if flows != waits {
			t.Errorf("%s: %d flow starts for %d wait_flags", name, flows, waits)
		}
	}
}

// TestTraceTracksPerComponent checks the one-track-per-component-queue
// property: thread_name metadata exists exactly for the active
// components, named canonically.
func TestTraceTracksPerComponent(t *testing.T) {
	chip, prog, doc := miniTrace(t)
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, c := range p.ActiveComponents() {
		want[c.String()] = true
	}
	got := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "thread_name" {
			got[ev.Args["name"].(string)] = true
		}
	}
	for name := range want {
		if !got[name] {
			t.Errorf("no track for component %s", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("track %s for inactive component", name)
		}
	}
}

// TestTraceCriticalOverlay checks that critical-path spans are marked
// and that at least one span is (the path is never empty).
func TestTraceCriticalOverlay(t *testing.T) {
	_, _, doc := miniTrace(t)
	marked := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" && ev.Args["on_critical_path"] == true {
			if ev.CName == "" {
				t.Error("critical span without color")
			}
			marked++
		}
	}
	if marked == 0 {
		t.Error("no spans marked on the critical path")
	}
}

// TestTraceNeedsSpans checks the KeepSpans pitfall is surfaced as an
// error rather than an empty trace.
func TestTraceNeedsSpans(t *testing.T) {
	chip := hw.TrainingChip()
	prog, err := isa.Parse("mini", strings.NewReader(miniProgram))
	if err != nil {
		t.Fatal(err)
	}
	p, err := sim.RunOpts(chip, prog, sim.Options{}) // zero value drops spans
	if err != nil {
		t.Fatal(err)
	}
	if err := Write(io.Discard, chip, prog, p, Options{}); err == nil {
		t.Error("trace accepted a span-less profile")
	}
	if _, err := ComputeMetrics(chip, prog, p); err == nil {
		t.Error("metrics accepted a span-less profile")
	}
}

// TestValidateRejectsMalformed feeds corrupted documents through the
// validator.
func TestValidateRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"not json":      `{"traceEvents":`,
		"wrong schema":  `{"traceEvents":[{"ph":"i","pid":1,"tid":1,"ts":0,"name":"x"}],"otherData":{"schema":"nope"}}`,
		"empty events":  `{"traceEvents":[],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"missing pid":   `{"traceEvents":[{"ph":"X","tid":1,"ts":0,"dur":1,"name":"x"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"missing dur":   `{"traceEvents":[{"ph":"X","pid":1,"tid":1,"ts":0,"name":"x"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"unpaired flow": `{"traceEvents":[{"ph":"s","pid":1,"tid":1,"ts":0,"id":7,"name":"x"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"duplicate flow id": `{"traceEvents":[` +
			`{"ph":"s","pid":1,"tid":1,"ts":0,"id":7,"name":"x"},{"ph":"f","bp":"e","pid":1,"tid":2,"ts":1,"id":7,"name":"x"},` +
			`{"ph":"s","pid":1,"tid":1,"ts":2,"id":7,"name":"y"},{"ph":"f","bp":"e","pid":1,"tid":2,"ts":3,"id":7,"name":"y"}` +
			`],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"unnamed track":   `{"traceEvents":[{"ph":"X","pid":1,"tid":9,"ts":0,"dur":1,"name":"x"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"bad flow bind":   `{"traceEvents":[{"ph":"f","pid":1,"tid":1,"ts":0,"id":7,"name":"x"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"unknown phase":   `{"traceEvents":[{"ph":"Q","pid":1,"tid":1,"ts":0,"name":"x"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
		"metadata noargs": `{"traceEvents":[{"ph":"M","pid":1,"tid":0,"ts":0,"name":"process_name"}],"otherData":{"schema":"` + SchemaTrace + `"}}`,
	}
	for label, doc := range cases {
		if err := Validate(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: accepted", label)
		}
	}
}
