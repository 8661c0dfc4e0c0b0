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
	"cmp"
	"fmt"
	"io"
	"slices"
	"strconv"

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

// Write emits the trace of one simulated schedule as JSON. The profile
// must carry one span per instruction (simulate with KeepSpans).
func Write(w io.Writer, chip *hw.Chip, prog *isa.Program, p *profile.Profile, opts Options) error {
	b, err := Append(nil, chip, prog, p, opts)
	if err != nil {
		return err
	}
	_, err = w.Write(b)
	return err
}

// Append appends the trace Write emits to dst. It streams the events
// straight from the profile's spans into one buffer, with the bytes
// encoding/json gives the equivalent Document (TestWriteMatchesNew):
// the metadata, one "X" span per instruction in start order, the flag
// flows in wait order and the PIPE_ALL barrier instants in program
// order.
func Append(dst []byte, chip *hw.Chip, prog *isa.Program, p *profile.Profile, opts Options) ([]byte, error) {
	n := len(prog.Instrs)
	if n == 0 || p == nil || p.NumSpans() != n {
		have := 0
		if p != nil {
			have = p.NumSpans()
		}
		return dst, fmt.Errorf("trace: need one span per instruction (have %d of %d); simulate with KeepSpans", have, n)
	}
	tl := p.Timeline
	t := newTimes(tl, n)
	var critical []uint64
	if opts.CritPath != nil {
		critical = make([]uint64, (n+63)/64)
		for _, st := range opts.CritPath.Steps {
			if 0 <= st.Index && st.Index < n {
				critical[st.Index/64] |= 1 << (st.Index % 64)
			}
		}
	}

	size := 1024 + spanBytes*n
	for _, label := range tl.Label {
		size += len(label)
	}
	e := docEncoder{buf: slices.Grow(dst, size)}
	var name []byte // scratch for the names of unlabelled spans and flows
	e.buf = append(e.buf, '{')
	e.field(1, true, "traceEvents")
	e.buf = append(e.buf, '[')

	// Metadata: the process and one named, ordered track per active
	// component queue.
	e.openEvent(true)
	e.string("process_name")
	e.eventRest(&Event{Ph: "M", PID: tracePID})
	e.openArgs("name")
	name = append(append(append(append(name[:0], "AICore: "...), prog.Name...), " on "...), chip.Name...)
	e.buf = appendQuoted(e.buf, name)
	e.closeArgs()
	for c := range hw.Component(hw.NumComponents) {
		if p.InstrCount[c] == 0 {
			continue
		}
		e.metadata("thread_name", tidOf(c), "name")
		e.string(c.String())
		e.closeArgs()
		e.metadata("thread_sort_index", tidOf(c), "sort_index")
		e.buf = strconv.AppendInt(e.buf, int64(c), 10)
		e.closeArgs()
	}

	// One "X" complete event per span, in span (start-time) order. The
	// args keys of each instruction kind are written in sorted order.
	for k := range n {
		i := int(tl.Index[k])
		in := &prog.Instrs[i]
		e.openEvent(false)
		if label := tl.LabelAt(k); label != "" {
			e.string(label)
		} else {
			name = prog.AppendInstrString(name[:0], i)
			e.buf = appendQuoted(e.buf, name)
		}
		start, end := profile.FromTicks(tl.Start[k]), profile.FromTicks(tl.End[k])
		dur := us(end - start)
		ev := Event{Cat: isa.Kind(tl.Kind[k]).String(), Ph: "X", TS: us(start), Dur: &dur,
			PID: tracePID, TID: tidOf(hw.Component(tl.Comp[k]))}
		onPath := critical != nil && critical[i/64]&(1<<(i%64)) != 0
		if onPath {
			ev.CName = "terrible"
		}
		e.eventRest(&ev)
		switch in.Kind {
		case isa.KindTransfer:
			e.openArgs("bytes")
			e.buf = strconv.AppendInt(e.buf, in.Bytes, 10)
			e.field(4, false, "index")
		case isa.KindSetFlag, isa.KindWaitFlag:
			e.openArgs("event")
			e.buf = strconv.AppendInt(e.buf, int64(in.EventID), 10)
			e.field(4, false, "index")
		default:
			e.openArgs("index")
		}
		e.buf = strconv.AppendInt(e.buf, int64(i), 10)
		if onPath {
			e.field(4, false, "on_critical_path")
			e.buf = append(e.buf, "true"...)
		}
		switch in.Kind {
		case isa.KindTransfer:
			e.field(4, false, "path")
			name = append(append(append(name[:0], in.Path.Src.String()...), "->"...), in.Path.Dst.String()...)
			e.buf = appendQuoted(e.buf, name)
		case isa.KindCompute:
			e.field(4, false, "ops")
			e.buf = strconv.AppendInt(e.buf, in.Ops, 10)
			e.field(4, false, "prec")
			e.string(in.Prec.String())
			e.field(4, false, "unit")
			e.string(in.Unit.String())
		}
		e.closeArgs()
	}

	// Flow arrows for flag dependencies. The flow start sits at the
	// midpoint of the set span and the finish at the midpoint of the
	// wait span, so Perfetto binds both ends to their enclosing slices.
	for _, m := range matchFlags(prog, t) {
		set, wait := int(m.set), int(m.wait)
		in := &prog.Instrs[wait]
		name = append(append(append(name[:0], "flag "...), in.From.String()...), "->"...)
		name = strconv.AppendInt(append(append(name, in.To.String()...), " ev="...), int64(in.EventID), 10)
		e.openEvent(false)
		e.buf = appendQuoted(e.buf, name)
		e.eventRest(&Event{Cat: "flag", Ph: "s", ID: set + 1,
			TS: us((t.start(set) + t.end(set)) / 2), PID: tracePID, TID: tidOf(in.From)})
		e.eventEnd()
		e.openEvent(false)
		e.buf = appendQuoted(e.buf, name)
		e.eventRest(&Event{Cat: "flag", Ph: "f", BP: "e", ID: set + 1,
			TS: us((t.start(wait) + t.end(wait)) / 2), PID: tracePID, TID: tidOf(in.To)})
		e.eventEnd()
	}

	// Instant markers at every PIPE_ALL barrier completion.
	for i := range prog.Instrs {
		in := &prog.Instrs[i]
		if in.Kind == isa.KindBarrier && in.Scope == isa.BarrierAll {
			c, _ := in.Component(chip)
			e.openEvent(false)
			e.string("pipe_barrier(PIPE_ALL)")
			e.eventRest(&Event{Cat: "barrier", Ph: "i", Scope: "t", TS: us(t.end(i)), PID: tracePID, TID: tidOf(c)})
			e.openArgs("index")
			e.buf = strconv.AppendInt(e.buf, int64(i), 10)
			e.closeArgs()
		}
	}

	e.newline(1)
	e.buf = append(e.buf, ']')
	e.field(1, false, "displayTimeUnit")
	e.string("ns")
	e.field(1, false, "otherData")
	e.buf = append(e.buf, '{')
	e.field(2, true, "chip")
	e.string(chip.Name)
	e.field(2, false, "program")
	e.string(prog.Name)
	e.field(2, false, "schema")
	e.string(SchemaTrace)
	e.field(2, false, "total_ns")
	e.float(p.TotalTime)
	e.newline(1)
	e.buf = append(e.buf, '}')
	e.newline(0)
	e.buf = append(e.buf, '}', '\n')
	if e.err != nil {
		return dst, e.err
	}
	return e.buf, nil
}

// spanBytes is about what one span's event, with its share of the
// flows, takes in the output besides its label. It sizes the buffer so
// that a long program does not regrow it.
const spanBytes = 320

// openEvent starts the next element of traceEvents at depth 2, up to
// the value of its name.
func (e *docEncoder) openEvent(first bool) {
	if !first {
		e.buf = append(e.buf, ',')
	}
	e.newline(2)
	e.buf = append(e.buf, '{')
	e.field(3, true, "name")
}

// metadata appends a track's "M" event up to the value of its one args
// member, key.
func (e *docEncoder) metadata(name string, tid int, key string) {
	e.openEvent(false)
	e.string(name)
	e.eventRest(&Event{Ph: "M", PID: tracePID, TID: tid})
	e.openArgs(key)
}

// openArgs starts an event's args object with its first member, key,
// up to the member's value.
func (e *docEncoder) openArgs(key string) {
	e.field(3, false, "args")
	e.buf = append(e.buf, '{')
	e.field(4, true, key)
}

// closeArgs closes the args object and its event.
func (e *docEncoder) closeArgs() {
	e.newline(3)
	e.buf = append(e.buf, '}')
	e.eventEnd()
}

// times reads instruction i's span times in nanoseconds off the tick
// timeline: its later span if it has two, 0 if it has none.
type times struct {
	tl *profile.SpanSeq
	at []int32 // the span of each instruction, or -1
}

func newTimes(tl *profile.SpanSeq, n int) times {
	at := make([]int32, n)
	for i := range at {
		at[i] = -1
	}
	for k, i := range tl.Index {
		at[i] = int32(k)
	}
	return times{tl, at}
}

func (t times) start(i int) float64 {
	if k := t.at[i]; k >= 0 {
		return profile.FromTicks(t.tl.Start[k])
	}
	return 0
}

func (t times) end(i int) float64 {
	if k := t.at[i]; k >= 0 {
		return profile.FromTicks(t.tl.End[k])
	}
	return 0
}

// flagPair is a set_flag and the wait_flag that consumes it.
type flagPair struct{ set, wait int32 }

// matchFlags pairs the k-th wait_flag of each flag stream, in program
// order, with the k-th set_flag of the stream to complete (ties in
// program order): the simulator's counting semantics. It returns the
// pairs in wait order; a wait past the sets of its stream, which the
// simulator would have deadlocked on, has none.
func matchFlags(prog *isa.Program, t times) []flagPair {
	nSets, nWaits := 0, 0
	for i := range prog.Instrs {
		switch prog.Instrs[i].Kind {
		case isa.KindSetFlag:
			nSets++
		case isa.KindWaitFlag:
			nWaits++
		}
	}
	if nWaits == 0 {
		return nil
	}
	sets, waits := make([]int32, 0, nSets), make([]int32, 0, nWaits)
	for i := range prog.Instrs {
		switch prog.Instrs[i].Kind {
		case isa.KindSetFlag:
			sets = append(sets, int32(i))
		case isa.KindWaitFlag:
			waits = append(waits, int32(i))
		}
	}
	stream := func(a, b int32) int {
		x, y := &prog.Instrs[a], &prog.Instrs[b]
		return cmp.Or(cmp.Compare(x.From, y.From), cmp.Compare(x.To, y.To), cmp.Compare(x.EventID, y.EventID))
	}
	slices.SortFunc(sets, func(a, b int32) int {
		return cmp.Or(stream(a, b), cmp.Compare(t.end(int(a)), t.end(int(b))), cmp.Compare(a, b))
	})
	slices.SortFunc(waits, func(a, b int32) int { return cmp.Or(stream(a, b), cmp.Compare(a, b)) })
	pairs := make([]flagPair, 0, nWaits)
	s := 0
	for w := 0; w < len(waits); {
		for s < len(sets) && stream(sets[s], waits[w]) < 0 {
			s++
		}
		for first := waits[w]; w < len(waits) && stream(waits[w], first) == 0; w++ {
			if s < len(sets) && stream(sets[s], first) == 0 {
				pairs = append(pairs, flagPair{sets[s], waits[w]})
				s++
			}
		}
	}
	slices.SortFunc(pairs, func(a, b flagPair) int { return cmp.Compare(a.wait, b.wait) })
	return pairs
}

// tidOf maps a component to its track id. Thread ids start at 1; tid 0
// is reserved for process-scoped metadata.
func tidOf(c hw.Component) int { return int(c) + 1 }

// us converts simulator nanoseconds to trace microseconds.
func us(ns float64) float64 { return ns / 1000 }
