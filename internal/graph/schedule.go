package graph

import (
	"container/heap"
	"fmt"
	"sort"
	"sync/atomic"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/multicore"
	"ascendperf/internal/sim"
)

// Options tunes a graph schedule.
type Options struct {
	// Cores is the AICore count to schedule across (0 = 1).
	Cores int
	// Workers bounds the duration-measurement fan-out on the engine
	// pool; 0 uses the engine default, 1 runs serially. The schedule
	// itself is constructed serially, so reports are byte-identical
	// across worker counts.
	Workers int
}

// Placement is one node's slot in the schedule.
type Placement struct {
	// Node indexes Graph.Nodes.
	Node int
	// Core is the AICore the node ran on.
	Core int
	// StartNS and EndNS bound the node's execution (exact tick-lattice
	// values).
	StartNS float64
	EndNS   float64
	// Occupancy is how many cores were busy while the node ran —
	// sampled at its dispatch instant — and therefore which contention
	// level its duration was simulated under.
	Occupancy int
}

// Schedule is the outcome of scheduling a graph across cores.
type Schedule struct {
	// Graph is the scheduled DAG.
	Graph *Graph
	// Chip names the hardware preset.
	Chip string
	// Cores is the core count scheduled across.
	Cores int
	// Placements holds one slot per node, in node-index order.
	Placements []Placement
	// MakespanNS is the finish time of the last node.
	MakespanNS float64
	// SerialNS is the serial operator-sum baseline: every instance run
	// back to back on one core with no contention — bit-exact to
	// model.Run's BaselineComputeTime (same builds, same simulations,
	// same accumulation order).
	SerialNS float64
	// TransferNS sums the inter-core GM transfer time paid by edges
	// whose producer and consumer landed on different cores.
	TransferNS float64
	// CrossCoreEdges counts those edges.
	CrossCoreEdges int
	// PeakLiveBytes is the liveness high-water mark: the largest total
	// of activation tensors produced but not yet fully consumed at any
	// instant of the schedule.
	PeakLiveBytes int64
	// PerCoreBusyNS sums each core's executing time.
	PerCoreBusyNS []float64
	// PerCoreNodes counts nodes placed per core.
	PerCoreNodes []int
	// SerialFallback records that the overlapped placement lost to the
	// serial order (shared-GM contention ate the parallelism) and the
	// serial schedule was kept — the reason MakespanNS never exceeds
	// SerialNS.
	SerialFallback bool
}

// OverlapEfficiency is the serial operator-sum over the graph makespan:
// the end-to-end speedup multi-core overlap actually bought. 1.0 means
// no overlap (or the serial fallback); ≥ 1.0 always, by construction.
func (s *Schedule) OverlapEfficiency() float64 {
	if s.MakespanNS <= 0 {
		return 0
	}
	return s.SerialNS / s.MakespanNS
}

// TransferShare is inter-core transfer time as a fraction of all
// scheduled time (busy + transfer): how much of the cluster's effort
// went into moving tensors between cores rather than computing.
func (s *Schedule) TransferShare() float64 {
	var busy float64
	for _, b := range s.PerCoreBusyNS {
		busy += b
	}
	if busy+s.TransferNS <= 0 {
		return 0
	}
	return s.TransferNS / (busy + s.TransferNS)
}

// Utilization is core c's busy time over the makespan.
func (s *Schedule) Utilization(c int) float64 {
	if s.MakespanNS <= 0 || c < 0 || c >= len(s.PerCoreBusyNS) {
		return 0
	}
	return s.PerCoreBusyNS[c] / s.MakespanNS
}

// durations measures every inventory row's per-instance duration at
// every contention level 1..cores: occupancy o simulates the baseline
// program against multicore.PerCoreChip(chip, o), whose GM-attached
// links carry 1/o of the chip's bandwidth — concurrent operators
// degrade each other exactly the way internal/multicore models it.
// Occupancy 1 uses the chip itself, so single-core graph times are the
// very simulations model.Run caches. Each operator is built once, on
// chip, and that program is simulated at every occupancy: a per-core
// chip differs from chip only in its GM-link bandwidths and name,
// which no kernel build and no program validation reads, so the build
// on a per-core chip would be the same program (TestPerCoreBuildsMatch
// checks every registry kernel and workload operator). Those builds
// are also the ones derive measured tensor bytes on. The (op ×
// occupancy) matrix fans out over the engine pool; ParallelMap keeps
// results in index order, so worker count never changes a single bit
// downstream.
func durations(chip *hw.Chip, m *model.Model, cores, workers int, builds *kernels.BuildMemo) ([][]int64, error) {
	chips := make([]*hw.Chip, cores+1)
	chips[1] = chip
	for o := 2; o <= cores; o++ {
		chips[o] = multicore.PerCoreChip(chip, o)
	}
	n := len(m.Ops)
	flat, err := engine.ParallelMap(workers, n*cores, func(i int) (int64, error) {
		k, o := i/cores, i%cores+1
		inst := m.Ops[k]
		prog, err := builds.Build(chip, inst.Kernel, inst.Kernel.Baseline())
		if err != nil {
			return 0, fmt.Errorf("graph: %s: %s: %w", m.Name, inst.Kernel.Name(), err)
		}
		p, err := engine.Simulate(chips[o], prog, sim.Options{})
		if err != nil {
			return 0, fmt.Errorf("graph: %s: %s: %w", m.Name, inst.Kernel.Name(), err)
		}
		return sim.ToTicks(p.TotalTime), nil
	})
	if err != nil {
		return nil, err
	}
	per := make([][]int64, n)
	for k := 0; k < n; k++ {
		per[k] = flat[k*cores : (k+1)*cores]
	}
	return per, nil
}

// readyHeap orders schedulable nodes by descending bottom-level
// priority (longest downstream work first), node index breaking ties —
// the classic list-scheduling order, deterministic by construction.
type readyHeap struct {
	nodes []int
	prio  []int64
}

func (h *readyHeap) Len() int { return len(h.nodes) }
func (h *readyHeap) Less(i, j int) bool {
	a, b := h.nodes[i], h.nodes[j]
	if h.prio[a] != h.prio[b] {
		return h.prio[a] > h.prio[b]
	}
	return a < b
}
func (h *readyHeap) Swap(i, j int) { h.nodes[i], h.nodes[j] = h.nodes[j], h.nodes[i] }
func (h *readyHeap) Push(x any)    { h.nodes = append(h.nodes, x.(int)) }
func (h *readyHeap) Pop() any {
	n := len(h.nodes)
	v := h.nodes[n-1]
	h.nodes = h.nodes[:n-1]
	return v
}

// Run derives the workload's DAG and schedules it across cores: list
// scheduling with bottom-level priorities, earliest-finish core
// assignment, per-edge inter-core GM transfer costs, and
// contention-degraded durations. All time arithmetic runs on the
// simulator's integer tick lattice, so results are exact and
// reproducible bit for bit. Each call adds to the graph_* counters of
// engine.Live.
func Run(chip *hw.Chip, m *model.Model, opts Options) (*Schedule, error) {
	var builds kernels.BuildMemo
	g, err := derive(chip, m, &builds)
	if err != nil {
		return nil, err
	}
	s, err := schedule(chip, g, opts, &builds)
	if err != nil {
		return nil, err
	}
	live := &engine.Live
	atomic.AddUint64(&live.GraphSchedules, 1)
	atomic.AddUint64(&live.GraphNodes, uint64(len(g.Nodes)))
	atomic.AddUint64(&live.GraphEdges, uint64(len(g.Edges)))
	atomic.AddUint64(&live.GraphTransfers, uint64(s.CrossCoreEdges))
	if s.SerialFallback {
		atomic.AddUint64(&live.GraphSerialFallbacks, 1)
	}
	return s, nil
}

// schedule places g's nodes across cores.
func schedule(chip *hw.Chip, g *Graph, opts Options, builds *kernels.BuildMemo) (*Schedule, error) {
	cores := opts.Cores
	if cores < 1 {
		cores = 1
	}
	m := g.Model
	per, err := durations(chip, m, cores, opts.Workers, builds)
	if err != nil {
		return nil, err
	}

	s := &Schedule{
		Graph: g, Chip: chip.Name, Cores: cores,
		PerCoreBusyNS: make([]float64, cores),
		PerCoreNodes:  make([]int, cores),
	}
	// The serial operator-sum baseline, accumulated exactly as
	// model.Run accumulates BaselineComputeTime: per-instance time ×
	// count, float, inventory order. Every term is an exact tick-
	// lattice value, so this equals the tick-integer sum bit for bit —
	// the CI parity gate depends on it.
	for k, inst := range m.Ops {
		s.SerialNS += sim.FromTicks(per[k][0]) * float64(inst.Count)
	}

	// Node durations (ticks) per occupancy; mult ≤ count keeps the
	// product far below 2^53 ticks, so these are exact.
	durAt := func(v, occ int) int64 {
		return per[g.Nodes[v].Op][occ-1] * int64(g.Nodes[v].Mult)
	}

	var placements []placed
	makespan := int64(0)
	if cores > 1 {
		placements = overlapped(chip, g, cores, durAt)
		for i := range placements {
			if placements[i].end > makespan {
				makespan = placements[i].end
			}
		}
	}
	serialTicks := sim.ToTicks(s.SerialNS)
	if cores == 1 || makespan > serialTicks {
		// Serial fallback (and the exact 1-core path): every node back
		// to back on core 0 in topological order at occupancy 1. The
		// makespan is the serial sum by construction, which also
		// guarantees the invariant MakespanNS ≤ SerialNS for every
		// schedule this package returns.
		s.SerialFallback = cores > 1
		t := int64(0)
		placements = placements[:0]
		for v := range g.Nodes {
			d := durAt(v, 1)
			placements = append(placements, placed{node: v, core: 0, start: t, end: t + d, occ: 1})
			t += d
		}
		makespan = t
	}

	s.MakespanNS = sim.FromTicks(makespan)
	coreOf := make([]int, len(g.Nodes))
	endOf := make([]int64, len(g.Nodes))
	for _, p := range placements {
		coreOf[p.node] = p.core
		endOf[p.node] = p.end
		s.Placements = append(s.Placements, Placement{
			Node: p.node, Core: p.core,
			StartNS: sim.FromTicks(p.start), EndNS: sim.FromTicks(p.end),
			Occupancy: p.occ,
		})
		s.PerCoreBusyNS[p.core] += sim.FromTicks(p.end - p.start)
		s.PerCoreNodes[p.core]++
	}
	sort.Slice(s.Placements, func(i, j int) bool { return s.Placements[i].Node < s.Placements[j].Node })

	// Transfer accounting: edges crossing cores paid their tensor over
	// the contended per-core GM link.
	var transferTicks int64
	for _, e := range g.Edges {
		if coreOf[e.From] != coreOf[e.To] {
			s.CrossCoreEdges++
			transferTicks += transferCost(chip, cores, e.Bytes)
		}
	}
	s.TransferNS = sim.FromTicks(transferTicks)

	// Liveness: a node's activation is allocated when it finishes and
	// freed when its last consumer finishes (sinks free immediately).
	// Sweep the alloc/free events in tick order, allocations first at
	// equal instants, and record the high-water mark.
	type ev struct {
		tick  int64
		alloc bool
		bytes int64
	}
	var evs []ev
	succs := g.Succs()
	for v := range g.Nodes {
		if g.Nodes[v].OutBytes == 0 {
			continue
		}
		free := endOf[v]
		for _, ei := range succs[v] {
			if e := endOf[g.Edges[ei].To]; e > free {
				free = e
			}
		}
		evs = append(evs,
			ev{tick: endOf[v], alloc: true, bytes: g.Nodes[v].OutBytes},
			ev{tick: free, alloc: false, bytes: g.Nodes[v].OutBytes})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].tick != evs[j].tick {
			return evs[i].tick < evs[j].tick
		}
		return evs[i].alloc && !evs[j].alloc
	})
	var live int64
	for _, e := range evs {
		if e.alloc {
			live += e.bytes
			if live > s.PeakLiveBytes {
				s.PeakLiveBytes = live
			}
		} else {
			live -= e.bytes
		}
	}
	return s, nil
}

// placed is the scheduler's internal tick-domain placement.
type placed struct {
	node, core, occ int
	start, end      int64
}

// transferCost is the tick cost of moving bytes between cores through
// GM: the tensor crosses the GM↔UB link at the contended per-core
// bandwidth (the chip's GM→UB bandwidth divided across cores, exactly
// as multicore.PerCoreChip would degrade it).
func transferCost(chip *hw.Chip, cores int, bytes int64) int64 {
	if bytes == 0 {
		return 0
	}
	bw := chip.Paths[hw.PathGMToUB].Bandwidth / float64(cores)
	if bw <= 0 {
		return 0
	}
	return sim.ToTicks(float64(bytes) / bw)
}

// overlapped runs the list scheduler: ready nodes (all predecessors
// placed) are drawn in bottom-level priority order and assigned to the
// core where they finish earliest, honouring predecessor finish times
// plus cross-core transfer costs. A node dispatched while R cores are
// busy (itself included) runs at the occupancy-R duration, so
// shared-GM contention follows the actual concurrency of the schedule
// rather than a fixed worst case.
func overlapped(chip *hw.Chip, g *Graph, cores int, durAt func(v, occ int) int64) []placed {
	n := len(g.Nodes)
	preds := g.Preds()
	succs := g.Succs()

	// Bottom-level priorities over occupancy-1 durations: the longest
	// downstream chain each node heads.
	prio := make([]int64, n)
	for v := n - 1; v >= 0; v-- { // reverse topological order
		best := int64(0)
		for _, ei := range succs[v] {
			if p := prio[g.Edges[ei].To]; p > best {
				best = p
			}
		}
		prio[v] = durAt(v, 1) + best
	}

	indeg := make([]int, n)
	for v := range g.Nodes {
		indeg[v] = len(preds[v])
	}
	ready := &readyHeap{prio: prio}
	for v := 0; v < n; v++ {
		if indeg[v] == 0 {
			ready.nodes = append(ready.nodes, v)
		}
	}
	heap.Init(ready)

	coreFree := make([]int64, cores)
	coreOf := make([]int, n)
	endOf := make([]int64, n)
	out := make([]placed, 0, n)
	for ready.Len() > 0 {
		v := heap.Pop(ready).(int)
		// Earliest start per core: the core's own availability and
		// every predecessor's finish, plus the tensor transfer when the
		// predecessor ran elsewhere.
		bestCore, bestStart := 0, int64(-1)
		for c := 0; c < cores; c++ {
			est := coreFree[c]
			for _, ei := range preds[v] {
				e := g.Edges[ei]
				arrive := endOf[e.From]
				if coreOf[e.From] != c {
					arrive += transferCost(chip, cores, e.Bytes)
				}
				if arrive > est {
					est = arrive
				}
			}
			if bestStart < 0 || est < bestStart {
				bestCore, bestStart = c, est
			}
		}
		// Occupancy at dispatch: cores still running something at the
		// start instant, this node included.
		occ := 1
		for c := 0; c < cores; c++ {
			if c != bestCore && coreFree[c] > bestStart {
				occ++
			}
		}
		d := durAt(v, occ)
		coreOf[v] = bestCore
		endOf[v] = bestStart + d
		coreFree[bestCore] = endOf[v]
		out = append(out, placed{node: v, core: bestCore, occ: occ, start: bestStart, end: endOf[v]})
		for _, ei := range succs[v] {
			to := g.Edges[ei].To
			indeg[to]--
			if indeg[to] == 0 {
				heap.Push(ready, to)
			}
		}
	}
	return out
}
