// Package trace is the observability layer over the simulator — the
// repository's msprof equivalent. It consumes the per-instruction spans
// a simulation produces and turns them into the artifacts an engineer
// actually inspects:
//
//   - Chrome Trace Format / Perfetto-compatible JSON timelines
//     (FORMATS.md §6): one track per component queue (Cube, Vector,
//     Scalar, MTE-GM, MTE-L1, MTE-UB), flow arrows for every
//     set_flag→wait_flag dependency, instant markers for PIPE_ALL
//     barriers, and an optional critical-path overlay marking the spans
//     that determine the makespan. Load the output in
//     https://ui.perfetto.dev or chrome://tracing.
//
//   - A per-component metrics report (metrics.go): busy / wait / idle
//     decomposition of every queue with the waiting time attributed to
//     dispatch, flag, barrier or spatial-hazard causes, occupancy,
//     bytes moved per memory path, and the invariant that each
//     component's busy + wait + idle sums exactly to the operator's
//     total time.
//
//   - A validator (validate.go) that checks an emitted trace against
//     the FORMATS.md §6 schema, used by tests and scripts/ci.sh.
//
// Building a trace requires the full span timeline: simulate with
// sim.Run, or sim.Options{KeepSpans: true} through engine.Simulate (the
// cache keys on KeepSpans, so traced and untraced runs never collide).
package trace

import (
	"fmt"
	"io"
	"sort"

	"ascendperf/internal/critpath"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// SchemaTrace is the versioned tag stamped into otherData.schema of
// every emitted timeline; Validate rejects files carrying any other tag.
const SchemaTrace = "ascendperf/trace/v1"

// tracePID is the single process id all tracks live under (one trace =
// one AICore).
const tracePID = 1

// Event is one Chrome trace-event record. Fields follow the Trace Event
// Format; ts and dur are microseconds (the unit Perfetto expects),
// converted from the simulator's nanoseconds.
type Event struct {
	Name string `json:"name"`
	Cat  string `json:"cat,omitempty"`
	// Ph is the event phase: "M" metadata, "X" complete span,
	// "s"/"f" flow start/finish, "i" instant.
	Ph  string   `json:"ph"`
	TS  float64  `json:"ts"`
	Dur *float64 `json:"dur,omitempty"` // X events only
	PID int      `json:"pid"`
	TID int      `json:"tid"`
	// ID links the two halves of a flow arrow ("s"/"f" events).
	ID int `json:"id,omitempty"`
	// BP is "e" on flow-finish events (bind to enclosing slice).
	BP string `json:"bp,omitempty"`
	// Scope is the instant-event scope ("t" = thread).
	Scope string `json:"s,omitempty"`
	// CName is a Chrome reserved color name; critical-path spans use
	// "terrible" so chrome://tracing paints them red.
	CName string         `json:"cname,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Document is the top-level trace JSON object.
type Document struct {
	TraceEvents     []Event        `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	OtherData       map[string]any `json:"otherData"`
}

// Options tunes trace generation.
type Options struct {
	// CritPath, when set, overlays the critical-path result: every span
	// on the path is marked args.on_critical_path=true and colored.
	CritPath *critpath.Analysis
}

// New builds the trace document for one simulated schedule. The profile
// must carry one span per instruction (simulate with KeepSpans).
func New(chip *hw.Chip, prog *isa.Program, p *profile.Profile, opts Options) (*Document, error) {
	n := len(prog.Instrs)
	if n == 0 || p == nil || p.NumSpans() != n {
		have := 0
		if p != nil {
			have = p.NumSpans()
		}
		return nil, fmt.Errorf("trace: need one span per instruction (have %d of %d); simulate with KeepSpans", have, n)
	}
	starts := make([]float64, n)
	ends := make([]float64, n)
	for s := range p.Spans() {
		starts[s.Index] = s.Start
		ends[s.Index] = s.End
	}
	critical := map[int]bool{}
	if opts.CritPath != nil {
		for _, st := range opts.CritPath.Steps {
			critical[st.Index] = true
		}
	}

	doc := &Document{
		DisplayTimeUnit: "ns",
		OtherData: map[string]any{
			"schema":   SchemaTrace,
			"program":  prog.Name,
			"chip":     chip.Name,
			"total_ns": p.TotalTime,
		},
	}

	// Metadata: the process and one named, ordered track per active
	// component queue.
	doc.TraceEvents = append(doc.TraceEvents, Event{
		Name: "process_name", Ph: "M", PID: tracePID, TID: 0,
		Args: map[string]any{"name": fmt.Sprintf("AICore: %s on %s", prog.Name, chip.Name)},
	})
	for _, c := range p.ActiveComponents() {
		doc.TraceEvents = append(doc.TraceEvents,
			Event{Name: "thread_name", Ph: "M", PID: tracePID, TID: tidOf(c),
				Args: map[string]any{"name": c.String()}},
			Event{Name: "thread_sort_index", Ph: "M", PID: tracePID, TID: tidOf(c),
				Args: map[string]any{"sort_index": int(c)}},
		)
	}

	// One "X" complete event per span, in span (start-time) order.
	for s := range p.Spans() {
		in := &prog.Instrs[s.Index]
		name := s.Label
		if name == "" {
			name = prog.InstrString(s.Index)
		}
		dur := us(s.Duration())
		ev := Event{
			Name: name, Cat: s.Kind.String(), Ph: "X",
			TS: us(s.Start), Dur: &dur, PID: tracePID, TID: tidOf(s.Comp),
			Args: map[string]any{"index": s.Index},
		}
		switch in.Kind {
		case isa.KindTransfer:
			ev.Args["path"] = in.Path.String()
			ev.Args["bytes"] = in.Bytes
		case isa.KindCompute:
			ev.Args["unit"] = in.Unit.String()
			ev.Args["prec"] = in.Prec.String()
			ev.Args["ops"] = in.Ops
		case isa.KindSetFlag, isa.KindWaitFlag:
			ev.Args["event"] = int(in.EventID)
		}
		if critical[s.Index] {
			ev.Args["on_critical_path"] = true
			ev.CName = "terrible"
		}
		doc.TraceEvents = append(doc.TraceEvents, ev)
	}

	// Flow arrows for flag dependencies: the k-th wait_flag of a key
	// consumes the k-th completing set_flag (the simulator's counting
	// semantics). The flow start sits at the midpoint of the set span
	// and the finish at the midpoint of the wait span, so Perfetto binds
	// both ends to their enclosing slices.
	sets := map[isa.FlagKey][]int{}
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Kind == isa.KindSetFlag {
			k := in.FlagKey()
			sets[k] = append(sets[k], i)
		}
	}
	for k := range sets {
		ss := sets[k]
		sort.SliceStable(ss, func(a, b int) bool { return ends[ss[a]] < ends[ss[b]] })
	}
	waitCount := map[isa.FlagKey]int{}
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Kind != isa.KindWaitFlag {
			continue
		}
		k := in.FlagKey()
		seq := waitCount[k]
		waitCount[k]++
		if seq >= len(sets[k]) {
			continue // unmatched wait; the simulator would have deadlocked
		}
		set := sets[k][seq]
		name := fmt.Sprintf("flag %s->%s ev=%d", in.From, in.To, in.EventID)
		doc.TraceEvents = append(doc.TraceEvents,
			Event{Name: name, Cat: "flag", Ph: "s", ID: set + 1,
				TS: us((starts[set] + ends[set]) / 2), PID: tracePID, TID: tidOf(in.From)},
			Event{Name: name, Cat: "flag", Ph: "f", BP: "e", ID: set + 1,
				TS: us((starts[i] + ends[i]) / 2), PID: tracePID, TID: tidOf(in.To)},
		)
	}

	// Instant markers at every PIPE_ALL barrier completion.
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Kind == isa.KindBarrier && in.Scope == isa.BarrierAll {
			c, _ := in.Component(chip)
			doc.TraceEvents = append(doc.TraceEvents, Event{
				Name: "pipe_barrier(PIPE_ALL)", Cat: "barrier", Ph: "i", Scope: "t",
				TS: us(ends[i]), PID: tracePID, TID: tidOf(c),
				Args: map[string]any{"index": i},
			})
		}
	}
	return doc, nil
}

// Write builds the trace for the schedule and emits it as JSON.
func Write(w io.Writer, chip *hw.Chip, prog *isa.Program, p *profile.Profile, opts Options) error {
	doc, err := New(chip, prog, p, opts)
	if err != nil {
		return err
	}
	return writeDocument(w, doc)
}

// tidOf maps a component to its track id. Thread ids start at 1; tid 0
// is reserved for process-scoped metadata.
func tidOf(c hw.Component) int { return int(c) + 1 }

// us converts simulator nanoseconds to trace microseconds.
func us(ns float64) float64 { return ns / 1000 }
