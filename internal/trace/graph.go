// Graph timelines: the whole-graph analogue of the per-operator trace.
// One track per AICore instead of one per component queue; one complete
// span per scheduled node; flow arrows for the dependency edges that
// cross cores (the ones that pay a GM transfer).
package trace

import (
	"fmt"
	"io"

	"ascendperf/internal/graph"
)

// SchemaGraphTrace is the versioned tag stamped into otherData.schema
// of every emitted graph timeline (FORMATS.md §12).
const SchemaGraphTrace = "ascendperf/graphtrace/v1"

// NewGraph builds the Chrome-trace document for one graph schedule.
// Track ids are core+1 (tid 0 stays reserved for process metadata),
// so the Perfetto row order is the core order.
func NewGraph(s *graph.Schedule) *Document {
	doc := &Document{
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"schema":      SchemaGraphTrace,
			"model":       s.Graph.Model.Name,
			"chip":        s.Chip,
			"cores":       s.Cores,
			"makespan_ns": s.MakespanNS,
			"serial_ns":   s.SerialNS,
		},
	}
	doc.TraceEvents = append(doc.TraceEvents, Event{
		Name: "process_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("Graph: %s on %s (%d cores)", s.Graph.Model.Name, s.Chip, s.Cores)},
	})
	for c := 0; c < s.Cores; c++ {
		doc.TraceEvents = append(doc.TraceEvents,
			Event{Name: "thread_name", Ph: "M", PID: tracePID, TID: c + 1,
				Args: map[string]any{"name": fmt.Sprintf("AICore %d", c)}},
			Event{Name: "thread_sort_index", Ph: "M", PID: tracePID, TID: c + 1,
				Args: map[string]any{"sort_index": c}},
		)
	}

	place := make([]*graph.Placement, len(s.Graph.Nodes))
	for i := range s.Placements {
		p := &s.Placements[i]
		place[p.Node] = p
	}
	for i := range s.Placements {
		p := &s.Placements[i]
		n := &s.Graph.Nodes[p.Node]
		dur := us(p.EndNS - p.StartNS)
		doc.TraceEvents = append(doc.TraceEvents, Event{
			Name: n.Name, Cat: "node", Ph: "X",
			TS: us(p.StartNS), Dur: &dur, PID: tracePID, TID: p.Core + 1,
			Args: map[string]any{
				"op":        s.Graph.Model.Ops[n.Op].Kernel.Name(),
				"layer":     n.Layer,
				"mult":      n.Mult,
				"occupancy": p.Occupancy,
				"out_bytes": n.OutBytes,
			},
		})
	}

	// Flow arrows only for the edges that crossed cores: same-core
	// dependencies are visible as adjacency on the track, cross-core
	// ones are where the schedule paid a transfer.
	for ei, e := range s.Graph.Edges {
		from, to := place[e.From], place[e.To]
		if from == nil || to == nil || from.Core == to.Core {
			continue
		}
		name := fmt.Sprintf("%s -> %s", s.Graph.Nodes[e.From].Name, s.Graph.Nodes[e.To].Name)
		doc.TraceEvents = append(doc.TraceEvents,
			Event{Name: name, Cat: "transfer", Ph: "s", ID: ei + 1,
				TS: us((from.StartNS + from.EndNS) / 2), PID: tracePID, TID: from.Core + 1,
				Args: map[string]any{"bytes": e.Bytes}},
			Event{Name: name, Cat: "transfer", Ph: "f", BP: "e", ID: ei + 1,
				TS: us((to.StartNS + to.EndNS) / 2), PID: tracePID, TID: to.Core + 1,
				Args: map[string]any{"bytes": e.Bytes}},
		)
	}
	return doc
}

// WriteGraph emits the graph timeline as JSON.
func WriteGraph(w io.Writer, s *graph.Schedule) error {
	return writeDocument(w, NewGraph(s))
}
