package trace

import (
	"fmt"
	"sort"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
)

// This file keeps the document builder Write replaced, verbatim: New
// builds the whole Document, one Event with an args map per span, and
// writeDocument or encoding/json encodes it. It is the reference
// Write's streamed bytes are held to (TestWriteMatchesNew,
// FuzzTraceWrite).

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
