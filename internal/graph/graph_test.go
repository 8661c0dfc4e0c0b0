package graph

import (
	"strings"
	"testing"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
)

// TestSerialParityAllWorkloads is the parity contract scripts/ci.sh
// gates on: a 1-core, no-overlap graph schedule is the serial operator
// sum, bit-exact to model.Run's BaselineComputeTime on every registry
// workload. Both sides sum the same cached simulations over the
// integer tick lattice, so not even the last bit may differ.
func TestSerialParityAllWorkloads(t *testing.T) {
	chip := hw.TrainingChip()
	for _, m := range model.Extended() {
		rr, err := model.NewRunner(chip).Run(m)
		if err != nil {
			t.Fatalf("%s: run: %v", m.Name, err)
		}
		s, err := Run(chip, m, Options{Cores: 1})
		if err != nil {
			t.Fatalf("%s: schedule: %v", m.Name, err)
		}
		if s.SerialNS != rr.BaselineComputeTime {
			t.Errorf("%s: serial sum %v != model.Run %v", m.Name, s.SerialNS, rr.BaselineComputeTime)
		}
		if s.MakespanNS != rr.BaselineComputeTime {
			t.Errorf("%s: 1-core makespan %v != model.Run %v", m.Name, s.MakespanNS, rr.BaselineComputeTime)
		}
		if s.SerialFallback {
			t.Errorf("%s: 1-core schedule flagged as fallback", m.Name)
		}
		if s.CrossCoreEdges != 0 || s.TransferNS != 0 {
			t.Errorf("%s: 1-core schedule paid transfers (%d edges, %v ns)", m.Name, s.CrossCoreEdges, s.TransferNS)
		}
	}
}

// TestMakespanNeverExceedsSerial checks the serial-fallback invariant
// at several core counts: overlap may win, but never lose.
func TestMakespanNeverExceedsSerial(t *testing.T) {
	chip := hw.TrainingChip()
	for _, m := range model.Extended() {
		for _, cores := range []int{2, 4, 8} {
			s, err := Run(chip, m, Options{Cores: cores})
			if err != nil {
				t.Fatalf("%s @%d: %v", m.Name, cores, err)
			}
			if s.MakespanNS > s.SerialNS {
				t.Errorf("%s @%d: makespan %v exceeds serial %v", m.Name, cores, s.MakespanNS, s.SerialNS)
			}
			if eff := s.OverlapEfficiency(); eff < 1 {
				t.Errorf("%s @%d: overlap efficiency %v < 1", m.Name, cores, eff)
			}
		}
	}
}

// TestOverlapOnDecodeWorkloads pins the headline claim: the LLM decode
// workloads genuinely overlap at 4 cores — contention-degraded
// durations and transfer costs included, the graph finishes strictly
// faster than the serial operator sum.
func TestOverlapOnDecodeWorkloads(t *testing.T) {
	chip := hw.TrainingChip()
	for _, name := range []string{"Llama 2 Decode", "Mixtral MoE Decode"} {
		m := findModel(t, name)
		s, err := Run(chip, m, Options{Cores: 4})
		if err != nil {
			t.Fatal(err)
		}
		if eff := s.OverlapEfficiency(); eff <= 1.0 {
			t.Errorf("%s: overlap efficiency %v, want > 1.0", name, eff)
		}
		if s.SerialFallback {
			t.Errorf("%s: fell back to serial", name)
		}
		if s.CrossCoreEdges == 0 {
			t.Errorf("%s: no cross-core edges in a 4-core schedule", name)
		}
	}
}

// TestWorkerDeterminism: the report is byte-identical across -workers
// settings. Scheduling is serial; only duration measurement fans out,
// through ParallelMap's deterministic ordering.
func TestWorkerDeterminism(t *testing.T) {
	chip := hw.TrainingChip()
	m := findModel(t, "Llama 2 Decode")
	render := func(workers int) string {
		s, err := Run(chip, m, Options{Cores: 4, Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := NewReport(s).WriteJSON(&b); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	if one, eight := render(1), render(8); one != eight {
		t.Fatalf("report differs between workers=1 and workers=8")
	}
}

// TestDerivedShape sanity-checks the layered derivation: instances
// spread exactly once, topological node order, layer-barrier edges.
func TestDerivedShape(t *testing.T) {
	chip := hw.TrainingChip()
	m := findModel(t, "Llama 2 Decode")
	g, err := derive(chip, m, &kernels.BuildMemo{})
	if err != nil {
		t.Fatal(err)
	}
	// Every operator's instances land exactly once.
	mult := make(map[int]int)
	for _, n := range g.Nodes {
		mult[n.Op] += n.Mult
	}
	for k, inst := range m.Ops {
		if mult[k] != inst.Count {
			t.Errorf("%s: %d instances spread, want %d", inst.Kernel.Name(), mult[k], inst.Count)
		}
	}
	// Edges only bridge consecutive layers, forward.
	for _, e := range g.Edges {
		if g.Nodes[e.To].Layer != g.Nodes[e.From].Layer+1 {
			t.Errorf("edge %d->%d spans layers %d->%d", e.From, e.To, g.Nodes[e.From].Layer, g.Nodes[e.To].Layer)
		}
		if e.From >= e.To {
			t.Errorf("edge %d->%d not in topological index order", e.From, e.To)
		}
	}
	if g.Layers != 65 { // rmsnorm count is the largest (65)
		t.Errorf("layers = %d, want 65", g.Layers)
	}
}

// TestExplicitEdges covers the workload-file edge form end to end:
// parse, longest-path layering, per-edge tensor bytes, liveness.
func TestExplicitEdges(t *testing.T) {
	chip := hw.TrainingChip()
	m, err := model.ReadWorkload(strings.NewReader(`{
		"name": "diamond",
		"ops": [
			{"op": "matmul", "count": 1},
			{"op": "add", "count": 1},
			{"op": "mul", "count": 1},
			{"op": "softmax", "count": 1}
		],
		"edges": [
			{"from": "matmul", "to": "add"},
			{"from": "matmul", "to": "mul"},
			{"from": "add", "to": "softmax"},
			{"from": "mul", "to": "softmax"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	g, err := derive(chip, m, &kernels.BuildMemo{})
	if err != nil {
		t.Fatal(err)
	}
	if g.Layers != 3 {
		t.Errorf("layers = %d, want 3 (diamond)", g.Layers)
	}
	if len(g.Nodes) != 4 || len(g.Edges) != 4 {
		t.Fatalf("got %d nodes, %d edges, want 4 and 4", len(g.Nodes), len(g.Edges))
	}
	for _, e := range g.Edges {
		if e.Bytes != g.Nodes[e.From].OutBytes {
			t.Errorf("edge %d->%d carries %d bytes, want producer's %d", e.From, e.To, e.Bytes, g.Nodes[e.From].OutBytes)
		}
	}
	s, err := Run(chip, m, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	if s.MakespanNS > s.SerialNS {
		t.Errorf("makespan %v exceeds serial %v", s.MakespanNS, s.SerialNS)
	}
	if s.PeakLiveBytes <= 0 {
		t.Errorf("peak live bytes = %d, want > 0", s.PeakLiveBytes)
	}
}

// TestGraphStatsFlushed: each Run adds to the engine's graph counters.
func TestGraphStatsFlushed(t *testing.T) {
	chip := hw.TrainingChip()
	m := findModel(t, "VGG16")
	before := engine.Stats()
	s, err := Run(chip, m, Options{Cores: 2})
	if err != nil {
		t.Fatal(err)
	}
	after := engine.Stats()
	if after.GraphSchedules != before.GraphSchedules+1 {
		t.Errorf("schedules %d -> %d, want +1", before.GraphSchedules, after.GraphSchedules)
	}
	if after.GraphNodes != before.GraphNodes+uint64(len(s.Graph.Nodes)) {
		t.Errorf("nodes delta wrong")
	}
	if after.GraphTransfers != before.GraphTransfers+uint64(s.CrossCoreEdges) {
		t.Errorf("cross-core transfer delta wrong")
	}
}

func findModel(t *testing.T, name string) *model.Model {
	t.Helper()
	for _, m := range model.Extended() {
		if m.Name == name {
			return m
		}
	}
	t.Fatalf("model %q not found", name)
	return nil
}
