// Package graph promotes internal/model operator inventories into real
// dependency DAGs and schedules them across multiple AICores — the
// repository's whole-graph layer. Per-operator analysis explains what
// each kernel costs; this package explains what those costs buy end to
// end, which is a graph-level question: inter-operator dependencies
// decide what can overlap, inter-core tensor traffic pays GM transfer
// time, and shared-GM contention (the internal/multicore model) makes
// concurrent operators degrade each other. The paper's Fig. 15 gap
// between computation speedup and end-to-end speedup is exactly this
// phenomenon, and the scheduler's report makes it a first-class
// simulated quantity: graph makespan vs. serial operator-sum (overlap
// efficiency), transfer share, and per-core utilization.
//
// Two DAG forms exist:
//
//   - Derived (from a plain inventory): each operator's Count
//     instances are spread over the workload's layer structure — L =
//     the largest count, one layer per repetition — and consecutive
//     layers are bridged with dependency edges, the DNN layer-barrier
//     reading of an inventory ("the k-th repetition of every operator
//     belongs to the k-th layer").
//
//   - Explicit (a workload file's "edges" field, model.Model.Edges):
//     one node per inventory row, dependencies as written, layers by
//     longest-path depth.
//
// Every edge carries the producer's GM-written bytes (its activation
// tensor), measured by scanning the operator's built program for
// GM-touching transfers — the same tensors whose liveness bounds
// on-chip memory pressure (Schedule reports the peak live bytes).
package graph

import (
	"fmt"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
)

// Node is one schedulable unit: a group of identical operator
// instances within one layer.
type Node struct {
	// Name identifies the node: the instance name, "@layer"-qualified
	// for derived graphs where an operator spans several layers.
	Name string
	// Op indexes the model's inventory row this node instantiates.
	Op int
	// Layer is the node's depth: the derivation layer, or the
	// longest-path depth for explicit graphs.
	Layer int
	// Mult is how many instances of the operator this node groups; the
	// node's duration is the per-instance time times Mult.
	Mult int
	// InBytes and OutBytes are the node's GM tensor traffic (bytes read
	// from and written to GM by its built program, times Mult). OutBytes
	// is the activation every out-edge carries.
	InBytes  int64
	OutBytes int64
}

// Edge is one producer→consumer dependency carrying a tensor.
type Edge struct {
	// From and To index Graph.Nodes.
	From, To int
	// Bytes is the tensor size carried: the producer's OutBytes. A
	// consumer on another core pays this over the shared GM links.
	Bytes int64
}

// Graph is a workload's dependency DAG. Nodes are stored in
// topological order (layer-major), so index order is a valid serial
// execution order.
type Graph struct {
	// Model is the source workload.
	Model *model.Model
	// Nodes in topological (layer-major) order.
	Nodes []Node
	// Edges in deterministic construction order.
	Edges []Edge
	// Layers is the depth of the DAG.
	Layers int
}

// Preds returns, per node, the indices of incoming edges.
func (g *Graph) Preds() [][]int {
	in := make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		in[e.To] = append(in[e.To], i)
	}
	return in
}

// Succs returns, per node, the indices of outgoing edges.
func (g *Graph) Succs() [][]int {
	out := make([][]int, len(g.Nodes))
	for i, e := range g.Edges {
		out[e.From] = append(out[e.From], i)
	}
	return out
}

// gmBytes scans a built program for GM-touching transfers and returns
// the bytes read from and written to GM — the operator's input and
// output tensor traffic. This is shape-general: it needs no per-kernel
// tensor metadata, only the transfers the kernel actually issues.
func gmBytes(prog *isa.Program) (in, out int64) {
	for i := range prog.Instrs {
		instr := &prog.Instrs[i]
		if instr.Kind != isa.KindTransfer {
			continue
		}
		if instr.Path.Src == hw.GM {
			in += instr.Bytes
		}
		if instr.Path.Dst == hw.GM {
			out += instr.Bytes
		}
	}
	return in, out
}

// opBytes measures every inventory row's per-instance GM tensor
// traffic on chip.
func opBytes(chip *hw.Chip, m *model.Model, builds *kernels.BuildMemo) (in, out []int64, err error) {
	in = make([]int64, len(m.Ops))
	out = make([]int64, len(m.Ops))
	for i, inst := range m.Ops {
		prog, err := builds.Build(chip, inst.Kernel, inst.Kernel.Baseline())
		if err != nil {
			return nil, nil, fmt.Errorf("graph: %s: %s: %w", m.Name, inst.Kernel.Name(), err)
		}
		in[i], out[i] = gmBytes(prog)
	}
	return in, out, nil
}

// derive builds the dependency DAG of a workload on chip: the explicit
// edge list when the model declares one, the layered derivation
// otherwise. Operators' baseline builds come from builds, which Run
// shares with its duration pass.
func derive(chip *hw.Chip, m *model.Model, builds *kernels.BuildMemo) (*Graph, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	inB, outB, err := opBytes(chip, m, builds)
	if err != nil {
		return nil, err
	}
	if len(m.Edges) > 0 {
		return deriveExplicit(m, inB, outB), nil
	}
	return deriveLayered(m, inB, outB), nil
}

// deriveLayered spreads each operator's instances over L layers (L =
// the largest count) and bridges consecutive layers with all-pairs
// dependency edges — the layer-barrier reading of an inventory. An
// operator with count c places floor((l+1)c/L) - floor(lc/L) instances
// in layer l, so counts that do not divide L spread as evenly as
// integer arithmetic allows and every instance lands exactly once.
func deriveLayered(m *model.Model, inB, outB []int64) *Graph {
	layers := 0
	for _, inst := range m.Ops {
		if inst.Count > layers {
			layers = inst.Count
		}
	}
	g := &Graph{Model: m, Layers: layers}
	byLayer := make([][]int, layers)
	for l := 0; l < layers; l++ {
		for k, inst := range m.Ops {
			c := int64(inst.Count)
			mult := int((int64(l+1)*c)/int64(layers) - (int64(l)*c)/int64(layers))
			if mult == 0 {
				continue
			}
			name := inst.Kernel.Name()
			if layers > 1 {
				name = fmt.Sprintf("%s@%d", name, l)
			}
			byLayer[l] = append(byLayer[l], len(g.Nodes))
			g.Nodes = append(g.Nodes, Node{
				Name:     name,
				Op:       k,
				Layer:    l,
				Mult:     mult,
				InBytes:  inB[k] * int64(mult),
				OutBytes: outB[k] * int64(mult),
			})
		}
	}
	for l := 0; l+1 < layers; l++ {
		for _, from := range byLayer[l] {
			for _, to := range byLayer[l+1] {
				g.Edges = append(g.Edges, Edge{From: from, To: to, Bytes: g.Nodes[from].OutBytes})
			}
		}
	}
	return g
}

// deriveExplicit builds one node per inventory row and takes the
// model's declared edges verbatim; layers are longest-path depths.
func deriveExplicit(m *model.Model, inB, outB []int64) *Graph {
	g := &Graph{Model: m}
	depth := make([]int, len(m.Ops))
	// Model.Validate guarantees acyclicity; a topological relaxation in
	// index order repeated until fixpoint computes longest-path depths.
	// With n rows this is O(n·e) worst case, trivial at workload sizes.
	for changed := true; changed; {
		changed = false
		for _, e := range m.Edges {
			if depth[e[1]] < depth[e[0]]+1 {
				depth[e[1]] = depth[e[0]] + 1
				changed = true
			}
		}
	}
	// Nodes in topological (depth-major, then index) order.
	order := make([]int, 0, len(m.Ops))
	for d := 0; d <= maxInt(depth); d++ {
		for k := range m.Ops {
			if depth[k] == d {
				order = append(order, k)
			}
		}
	}
	pos := make([]int, len(m.Ops))
	for i, k := range order {
		pos[k] = i
		g.Nodes = append(g.Nodes, Node{
			Name:     m.Ops[k].Kernel.Name(),
			Op:       k,
			Layer:    depth[k],
			Mult:     m.Ops[k].Count,
			InBytes:  inB[k] * int64(m.Ops[k].Count),
			OutBytes: outB[k] * int64(m.Ops[k].Count),
		})
		if depth[k]+1 > g.Layers {
			g.Layers = depth[k] + 1
		}
	}
	for _, e := range m.Edges {
		g.Edges = append(g.Edges, Edge{From: pos[e[0]], To: pos[e[1]], Bytes: g.Nodes[pos[e[0]]].OutBytes})
	}
	return g
}

func maxInt(xs []int) int {
	m := 0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
