// Package profile holds the measurement layer of the analysis system: the
// metrics extracted while an operator executes, mirroring what the paper
// obtains from msprof and the PyTorch profiler (Section 3.2):
//
//   - transferred bytes per transfer path and operations per precision,
//     derived from the per-component instruction queues;
//   - the execution (active) time of each component, from monitoring the
//     non-empty time of its instruction queue;
//   - total operator time.
//
// A Profile is produced by the simulator and consumed by the roofline
// analyzer. The package also exports the span timeline as CSV for
// inspection.
package profile

import (
	"fmt"
	"io"
	"iter"
	"math"
	"sort"
	"strings"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

// Span is one executed instruction interval on a component queue. Spans
// are only recorded when the simulation keeps its timeline (sim.Run, or
// sim.RunOpts / engine.Simulate with Options.KeepSpans set); aggregate
// metrics (Busy, PathBytes, ...) are always populated. Spans are the raw
// material of viz.Timeline, trace.Write, trace.ComputeMetrics and
// critpath.Compute.
type Span struct {
	// Comp is the component queue the instruction executed on.
	Comp hw.Component
	// Kind is the instruction class (transfer, compute, set/wait flag,
	// barrier), mirroring the source instruction's Kind.
	Kind isa.Kind
	// Index is the instruction's position in program order; it links the
	// span back to Program.Instrs[Index]. Every instruction of a program
	// has exactly one span.
	Index int
	// Start and End bound the execution interval in nanoseconds from
	// operator launch. End-Start is pure execution time: queue residency
	// before Start (dispatch delay, flag/barrier waits, hazard stalls)
	// is visible only as the gap to the previous span on the same
	// component — trace.ComputeMetrics attributes those gaps to causes.
	Start float64
	End   float64
	// Label is the instruction's optional source annotation (";" comment
	// in the assembly format), carried through for display.
	Label string
}

// Duration returns the span length in nanoseconds.
func (s Span) Duration() float64 { return s.End - s.Start }

// TickScale is the integer quantization of the compact span timeline:
// 2^20 ticks per nanosecond, the same lattice the simulator schedules
// on (sim.TickScale) and internal/trace decomposes on. Lattice values
// are dyadic rationals, so tick<->ns conversion is exact in float64 for
// any schedule shorter than 2^33 ns (~8.6 s).
const TickScale = 1 << 20

// ToTicks quantizes a time in nanoseconds to the tick lattice; exact
// (a pure representation change) for values produced by FromTicks.
func ToTicks(ns float64) int64 { return int64(math.Round(ns * TickScale)) }

// FromTicks converts ticks to nanoseconds, exactly for |t| < 2^53.
func FromTicks(t int64) float64 { return float64(t) / TickScale }

// SpanSeq is the compact span timeline: parallel arrays in start order,
// with times held as integer ticks on the 2^-20 ns lattice. It is the
// storage format the simulator emits directly from its pooled integer
// schedule — five dense arrays and a label column instead of one
// 64-byte struct per instruction — and the format tick-exact consumers
// (internal/trace, internal/check) read without re-expanding to float
// spans. Casual consumers materialize Span values via Profile.Spans or
// SpanSeq.At.
type SpanSeq struct {
	// Index is the instruction's position in program order.
	Index []int32
	// Comp is the component queue (hw.Component) per span.
	Comp []uint8
	// Kind is the instruction class (isa.Kind) per span.
	Kind []uint8
	// Start and End bound execution in ticks (2^-20 ns).
	Start []int64
	End   []int64
	// Label carries the optional source annotation per span. It is nil
	// (not merely empty) when no span carries a label — the common
	// case — so fully unlabeled timelines hold no pointer array for the
	// GC to scan. Read through LabelAt, which maps nil to "".
	Label []string
}

// Len returns the number of spans.
func (q *SpanSeq) Len() int {
	if q == nil {
		return 0
	}
	return len(q.Index)
}

// LabelAt returns span i's label, "" when the timeline is unlabeled.
func (q *SpanSeq) LabelAt(i int) string {
	if q.Label == nil {
		return ""
	}
	return q.Label[i]
}

// At materializes span i with nanosecond times.
func (q *SpanSeq) At(i int) Span {
	return Span{
		Comp:  hw.Component(q.Comp[i]),
		Kind:  isa.Kind(q.Kind[i]),
		Index: int(q.Index[i]),
		Start: FromTicks(q.Start[i]),
		End:   FromTicks(q.End[i]),
		Label: q.LabelAt(i),
	}
}

// Append adds a span, quantizing its times to the tick lattice (exact
// for times that came off the lattice, i.e. any simulator output).
func (q *SpanSeq) Append(s Span) {
	if s.Label != "" && q.Label == nil {
		q.Label = make([]string, len(q.Index), cap(q.Index)+1)
	}
	q.Index = append(q.Index, int32(s.Index))
	q.Comp = append(q.Comp, uint8(s.Comp))
	q.Kind = append(q.Kind, uint8(s.Kind))
	q.Start = append(q.Start, ToTicks(s.Start))
	q.End = append(q.End, ToTicks(s.End))
	if q.Label != nil {
		q.Label = append(q.Label, s.Label)
	}
}

// Grow pre-sizes the arrays for n appends.
func (q *SpanSeq) Grow(n int) {
	if cap(q.Index) >= len(q.Index)+n {
		return
	}
	c := len(q.Index) + n
	q.Index = append(make([]int32, 0, c), q.Index...)
	q.Comp = append(make([]uint8, 0, c), q.Comp...)
	q.Kind = append(make([]uint8, 0, c), q.Kind...)
	q.Start = append(make([]int64, 0, c), q.Start...)
	q.End = append(make([]int64, 0, c), q.End...)
	if q.Label != nil {
		q.Label = append(make([]string, 0, c), q.Label...)
	}
}

// NewSpanSeq builds a timeline from materialized spans — the
// convenience path for tests and hand-assembled profiles; the
// simulator fills the arrays directly.
func NewSpanSeq(spans ...Span) *SpanSeq {
	q := &SpanSeq{}
	q.Grow(len(spans))
	for _, s := range spans {
		q.Append(s)
	}
	return q
}

// Clone returns a deep copy.
func (q *SpanSeq) Clone() *SpanSeq {
	if q == nil {
		return nil
	}
	c := &SpanSeq{
		Index: make([]int32, len(q.Index)),
		Comp:  make([]uint8, len(q.Comp)),
		Kind:  make([]uint8, len(q.Kind)),
		Start: make([]int64, len(q.Start)),
		End:   make([]int64, len(q.End)),
	}
	copy(c.Index, q.Index)
	copy(c.Comp, q.Comp)
	copy(c.Kind, q.Kind)
	copy(c.Start, q.Start)
	copy(c.End, q.End)
	if q.Label != nil {
		c.Label = make([]string, len(q.Label))
		copy(c.Label, q.Label)
	}
	return c
}

// Profile aggregates the execution of one operator (one program run).
type Profile struct {
	// Name identifies the profiled program.
	Name string

	// TotalTime is the operator makespan in nanoseconds (T_total).
	TotalTime float64

	// Busy is the execution (active) time of each component in
	// nanoseconds (T_component), counting only instruction execution.
	Busy [hw.NumComponents]float64

	// PathBytes is the number of bytes moved over each transfer path.
	PathBytes map[hw.Path]int64

	// PrecOps is the number of operations executed per precision-compute
	// unit.
	PrecOps map[hw.UnitPrec]int64

	// PathBusy is the execution time spent on each transfer path, and
	// PrecBusy the execution time per precision-compute unit. They
	// refine Busy per component item and support the paper's Insight 2:
	// a component's efficiency is the execution-time-weighted average of
	// its per-item efficiencies (Eq. 9).
	PathBusy map[hw.Path]float64
	PrecBusy map[hw.UnitPrec]float64

	// InstrCount is the number of instructions executed per component.
	InstrCount [hw.NumComponents]int

	// Approx marks a profile whose TotalTime is a learned-surrogate
	// estimate rather than a simulated makespan (internal/surrogate).
	// All other aggregates are still exact — they are pure functions of
	// the program and the chip's deterministic cost model. Approximate
	// profiles are never written to any cache tier.
	Approx bool

	// Timeline is the full execution timeline in compact form, ordered
	// by start time. nil when the simulation did not keep spans. Use
	// Spans / SpanAt / NumSpans to consume it as materialized Span
	// values, or read the tick arrays directly for exact arithmetic.
	Timeline *SpanSeq
}

// NumSpans returns the number of recorded spans (0 when the timeline
// was not kept).
func (p *Profile) NumSpans() int { return p.Timeline.Len() }

// HasSpans reports whether the run kept its timeline. A kept timeline
// can still be empty (zero-instruction program).
func (p *Profile) HasSpans() bool { return p.Timeline != nil }

// SpanAt materializes span i of the timeline.
func (p *Profile) SpanAt(i int) Span { return p.Timeline.At(i) }

// Spans iterates the timeline in start order, materializing each span.
func (p *Profile) Spans() iter.Seq[Span] {
	return func(yield func(Span) bool) {
		for i := 0; i < p.Timeline.Len(); i++ {
			if !yield(p.Timeline.At(i)) {
				return
			}
		}
	}
}

// AppendSpan adds a span to the timeline, allocating it if needed.
func (p *Profile) AppendSpan(s Span) {
	if p.Timeline == nil {
		p.Timeline = &SpanSeq{}
	}
	p.Timeline.Append(s)
}

// New returns an empty profile with allocated maps.
func New(name string) *Profile {
	return &Profile{
		Name:      name,
		PathBytes: map[hw.Path]int64{},
		PrecOps:   map[hw.UnitPrec]int64{},
		PathBusy:  map[hw.Path]float64{},
		PrecBusy:  map[hw.UnitPrec]float64{},
	}
}

// TimeRatio returns the component's active-time ratio R = T_comp/T_total.
func (p *Profile) TimeRatio(c hw.Component) float64 {
	if p.TotalTime <= 0 {
		return 0
	}
	return p.Busy[c] / p.TotalTime
}

// BytesOf returns the total bytes moved by the given MTE across its paths.
func (p *Profile) BytesOf(chip *hw.Chip, engine hw.Component) int64 {
	var total int64
	for path, b := range p.PathBytes {
		if e, ok := chip.EngineOf(path); ok && e == engine {
			total += b
		}
	}
	return total
}

// OpsOf returns the total operations executed by the unit across all
// precisions.
func (p *Profile) OpsOf(u hw.Unit) int64 {
	var total int64
	for up, n := range p.PrecOps {
		if up.Unit == u {
			total += n
		}
	}
	return total
}

// ActiveComponents returns the components that executed at least one
// instruction, in canonical order.
func (p *Profile) ActiveComponents() []hw.Component {
	var out []hw.Component
	for _, c := range hw.Components() {
		if p.InstrCount[c] > 0 {
			out = append(out, c)
		}
	}
	return out
}

// Summary renders a short human-readable digest of the profile.
func (p *Profile) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "profile %s: total %.3f us\n", p.Name, p.TotalTime/1000)
	for _, c := range hw.Components() {
		if p.InstrCount[c] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-7s busy %10.3f us  ratio %6.2f%%  instrs %d\n",
			c, p.Busy[c]/1000, 100*p.TimeRatio(c), p.InstrCount[c])
	}
	paths := make([]hw.Path, 0, len(p.PathBytes))
	for path := range p.PathBytes {
		paths = append(paths, path)
	}
	sort.Slice(paths, func(i, j int) bool { return paths[i].String() < paths[j].String() })
	for _, path := range paths {
		fmt.Fprintf(&b, "  %-9s %12d bytes\n", path, p.PathBytes[path])
	}
	ups := make([]hw.UnitPrec, 0, len(p.PrecOps))
	for up := range p.PrecOps {
		ups = append(ups, up)
	}
	sort.Slice(ups, func(i, j int) bool { return ups[i].String() < ups[j].String() })
	for _, up := range ups {
		fmt.Fprintf(&b, "  %-12s %12d ops\n", up, p.PrecOps[up])
	}
	return b.String()
}

// Gaps returns the number and total length of idle intervals on the
// component between its first and last executed instruction. The paper
// uses the count of waiting intervals to quantify parallelism improvements
// (e.g. ping-pong buffering reduced MTE-GM waiting intervals from 14 to 3).
// Requires spans to have been kept.
func (p *Profile) Gaps(c hw.Component) (count int, idle float64) {
	// Exact tick arithmetic on the compact timeline: a gap exists iff
	// start > last in ticks, which on the 2^-20 ns lattice coincides
	// with the historical float test start > last+1e-9 (the smallest
	// positive lattice gap is ~9.5e-7 ns).
	q := p.Timeline
	if q == nil {
		return 0, 0
	}
	cc := uint8(c)
	var last int64
	var idleTicks int64
	first := true
	for i, comp := range q.Comp {
		if comp != cc {
			continue
		}
		if !first && q.Start[i] > last {
			count++
			idleTicks += q.Start[i] - last
		}
		if q.End[i] > last {
			last = q.End[i]
		}
		first = false
	}
	return count, FromTicks(idleTicks)
}

// WriteCSV emits the span timeline as CSV with a header row.
func (p *Profile) WriteCSV(w io.Writer) error {
	if _, err := fmt.Fprintln(w, "index,component,kind,start_ns,end_ns,duration_ns,label"); err != nil {
		return err
	}
	for s := range p.Spans() {
		if _, err := fmt.Fprintf(w, "%d,%s,%s,%.3f,%.3f,%.3f,%s\n",
			s.Index, s.Comp, s.Kind, s.Start, s.End, s.Duration(), s.Label); err != nil {
			return err
		}
	}
	return nil
}

// Clone returns a deep copy of the profile: mutating the copy (or the
// original) never affects the other. Simulation caches rely on this to
// hand out private results.
func (p *Profile) Clone() *Profile {
	q := *p
	q.PathBytes = make(map[hw.Path]int64, len(p.PathBytes))
	for k, v := range p.PathBytes {
		q.PathBytes[k] = v
	}
	q.PrecOps = make(map[hw.UnitPrec]int64, len(p.PrecOps))
	for k, v := range p.PrecOps {
		q.PrecOps[k] = v
	}
	q.PathBusy = make(map[hw.Path]float64, len(p.PathBusy))
	for k, v := range p.PathBusy {
		q.PathBusy[k] = v
	}
	q.PrecBusy = make(map[hw.UnitPrec]float64, len(p.PrecBusy))
	for k, v := range p.PrecBusy {
		q.PrecBusy[k] = v
	}
	q.Timeline = p.Timeline.Clone()
	return &q
}

// Validate checks internal consistency: spans within [0, TotalTime], busy
// times non-negative and not exceeding total, spans sorted by start, and
// no overlapping spans within one component.
func (p *Profile) Validate() error {
	const eps = 1e-6
	for c, busy := range p.Busy {
		if busy < 0 {
			return fmt.Errorf("profile %s: negative busy time for %s", p.Name, hw.Component(c))
		}
		if busy > p.TotalTime+eps {
			return fmt.Errorf("profile %s: %s busy %.3f exceeds total %.3f",
				p.Name, hw.Component(c), busy, p.TotalTime)
		}
	}
	var lastEnd [hw.NumComponents]float64
	var lastStart float64
	for i := 0; i < p.NumSpans(); i++ {
		s := p.SpanAt(i)
		if s.Start < lastStart-eps {
			return fmt.Errorf("profile %s: span %d out of order", p.Name, i)
		}
		lastStart = s.Start
		if s.End < s.Start {
			return fmt.Errorf("profile %s: span %d negative duration", p.Name, i)
		}
		if s.End > p.TotalTime+eps {
			return fmt.Errorf("profile %s: span %d ends %.3f after total %.3f", p.Name, i, s.End, p.TotalTime)
		}
		if s.Start < lastEnd[s.Comp]-eps {
			return fmt.Errorf("profile %s: span %d overlaps previous on %s", p.Name, i, s.Comp)
		}
		lastEnd[s.Comp] = s.End
	}
	return nil
}
