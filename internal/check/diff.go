package check

import (
	"fmt"
	"sort"
	"strings"

	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// Tolerance is the absolute+relative float tolerance of the diff:
// two times agree when |got-want| <= Tolerance * max(1, |want|). The
// two schedulers perform the identical arithmetic in the same order, so
// in practice they agree bit-for-bit; the tolerance only absorbs
// platform-level float differences.
const Tolerance = 1e-6

// Mismatch is one disagreement between the simulator and the reference.
type Mismatch struct {
	// Field names the diverging quantity: "total_time", "busy",
	// "instr_count", "path_bytes", "path_busy", "prec_ops", "prec_busy",
	// "span_count", "span_comp", "span_start" or "span_end".
	Field string
	// Key qualifies the field: a component, path or precision-unit name,
	// or the instruction disassembly for span fields.
	Key string
	// Index is the program index for span-level mismatches, -1 otherwise.
	Index int
	// Got is the simulator's value, Want the reference's.
	Got, Want float64
}

// String renders the mismatch on one line.
func (m Mismatch) String() string {
	if m.Index >= 0 {
		return fmt.Sprintf("%s[#%d %s]: got %.9g, want %.9g", m.Field, m.Index, m.Key, m.Got, m.Want)
	}
	return fmt.Sprintf("%s[%s]: got %.9g, want %.9g", m.Field, m.Key, m.Got, m.Want)
}

// Report is the outcome of diffing one simulated profile against the
// reference scheduler.
type Report struct {
	// Name is the program name, Chip the chip preset name.
	Name string
	Chip string
	// Mismatches lists every disagreement, aggregate mismatches first,
	// span mismatches in program order.
	Mismatches []Mismatch
	// FirstDiverge is the earliest program index whose execution
	// interval diverges, or -1 when all spans agree. It pinpoints where
	// the two schedules fork: every aggregate disagreement is downstream
	// of this instruction.
	FirstDiverge int
}

// OK reports whether the simulator and the reference agree.
func (r *Report) OK() bool { return len(r.Mismatches) == 0 }

// String renders the report; the empty string means agreement.
func (r *Report) String() string {
	if r.OK() {
		return ""
	}
	var b strings.Builder
	fmt.Fprintf(&b, "check: %s on %s: %d mismatches", r.Name, r.Chip, len(r.Mismatches))
	if r.FirstDiverge >= 0 {
		fmt.Fprintf(&b, " (first diverging instruction: #%d)", r.FirstDiverge)
	}
	b.WriteString("\n")
	const maxShown = 20
	for i, m := range r.Mismatches {
		if i == maxShown {
			fmt.Fprintf(&b, "  ... %d more\n", len(r.Mismatches)-maxShown)
			break
		}
		fmt.Fprintf(&b, "  %s\n", m.String())
	}
	return b.String()
}

// close reports float agreement within Tolerance.
func closeEnough(got, want float64) bool {
	diff := got - want
	if diff < 0 {
		diff = -diff
	}
	scale := want
	if scale < 0 {
		scale = -scale
	}
	if scale < 1 {
		scale = 1
	}
	return diff <= Tolerance*scale
}

// Diff compares a simulated profile against the reference result. The
// aggregates are always compared; execution intervals are compared when
// the profile carries one span per instruction (simulate with
// KeepSpans). chipName is carried into the report for display.
func Diff(chipName string, prof *profile.Profile, ref *Result) *Report {
	rep := &Report{Name: ref.Name, Chip: chipName, FirstDiverge: -1}
	add := func(field, key string, index int, got, want float64) {
		rep.Mismatches = append(rep.Mismatches, Mismatch{Field: field, Key: key, Index: index, Got: got, Want: want})
	}
	if !closeEnough(prof.TotalTime, ref.TotalTime) {
		add("total_time", "", -1, prof.TotalTime, ref.TotalTime)
	}
	for _, c := range hw.Components() {
		if !closeEnough(prof.Busy[c], ref.Busy[c]) {
			add("busy", c.String(), -1, prof.Busy[c], ref.Busy[c])
		}
		if prof.InstrCount[c] != ref.InstrCount[c] {
			add("instr_count", c.String(), -1, float64(prof.InstrCount[c]), float64(ref.InstrCount[c]))
		}
	}
	diffInt64 := func(field string, got, want map[hw.Path]int64) {
		for _, p := range allKeysPath(got, want) {
			if got[p] != want[p] {
				add(field, p.String(), -1, float64(got[p]), float64(want[p]))
			}
		}
	}
	diffFloatPath := func(field string, got, want map[hw.Path]float64) {
		for _, p := range allKeysPathF(got, want) {
			if !closeEnough(got[p], want[p]) {
				add(field, p.String(), -1, got[p], want[p])
			}
		}
	}
	diffInt64(("path_bytes"), prof.PathBytes, ref.PathBytes)
	diffFloatPath("path_busy", prof.PathBusy, ref.PathBusy)
	for _, up := range allKeysUP(prof.PrecOps, ref.PrecOps) {
		if prof.PrecOps[up] != ref.PrecOps[up] {
			add("prec_ops", up.String(), -1, float64(prof.PrecOps[up]), float64(ref.PrecOps[up]))
		}
	}
	for _, up := range allKeysUPF(prof.PrecBusy, ref.PrecBusy) {
		if !closeEnough(prof.PrecBusy[up], ref.PrecBusy[up]) {
			add("prec_busy", up.String(), -1, prof.PrecBusy[up], ref.PrecBusy[up])
		}
	}

	// Span-level comparison: pinpoint the first diverging instruction.
	n := len(ref.Starts)
	if prof.NumSpans() == 0 || n == 0 {
		return rep
	}
	if prof.NumSpans() != n {
		add("span_count", "", -1, float64(prof.NumSpans()), float64(n))
		return rep
	}
	starts := make([]float64, n)
	ends := make([]float64, n)
	comps := make([]hw.Component, n)
	seen := make([]bool, n)
	for s := range prof.Spans() {
		if s.Index < 0 || s.Index >= n || seen[s.Index] {
			add("span_count", fmt.Sprintf("bad or duplicate index %d", s.Index), -1, 0, 0)
			return rep
		}
		seen[s.Index] = true
		starts[s.Index], ends[s.Index], comps[s.Index] = s.Start, s.End, s.Comp
	}
	for i := 0; i < n; i++ {
		label := ""
		bad := false
		if comps[i] != ref.Comp[i] {
			add("span_comp", label, i, float64(comps[i]), float64(ref.Comp[i]))
			bad = true
		}
		if !closeEnough(starts[i], ref.Starts[i]) {
			add("span_start", label, i, starts[i], ref.Starts[i])
			bad = true
		}
		if !closeEnough(ends[i], ref.Ends[i]) {
			add("span_end", label, i, ends[i], ref.Ends[i])
			bad = true
		}
		if bad && rep.FirstDiverge < 0 {
			rep.FirstDiverge = i
		}
	}
	return rep
}

// Check is the one-call differential test: simulate the program with
// spans kept, run the reference scheduler, and diff the two. The
// returned error covers failures to execute at all (invalid program,
// deadlock in either scheduler); disagreements land in the report.
//
// The production side runs through engine.Simulate, so a program the
// process already simulated comes from the memory cache: only the
// reference scheduler re-runs, and the diff then also guards the
// cache's bit-exactness.
func Check(chip *hw.Chip, prog *isa.Program) (*Report, error) {
	prof, err := engine.Simulate(chip, prog, sim.Options{KeepSpans: true})
	if err != nil {
		return nil, fmt.Errorf("check: sim: %w", err)
	}
	ref, err := Reference(chip, prog)
	if err != nil {
		return nil, fmt.Errorf("check: reference: %w", err)
	}
	return Diff(chip.Name, prof, ref), nil
}

// Map-key union helpers, deterministic order for stable reports.

func allKeysPath(a, b map[hw.Path]int64) []hw.Path {
	set := map[hw.Path]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]hw.Path, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func allKeysPathF(a, b map[hw.Path]float64) []hw.Path {
	set := map[hw.Path]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]hw.Path, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func allKeysUP(a, b map[hw.UnitPrec]int64) []hw.UnitPrec {
	set := map[hw.UnitPrec]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]hw.UnitPrec, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}

func allKeysUPF(a, b map[hw.UnitPrec]float64) []hw.UnitPrec {
	set := map[hw.UnitPrec]bool{}
	for k := range a {
		set[k] = true
	}
	for k := range b {
		set[k] = true
	}
	out := make([]hw.UnitPrec, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].String() < out[j].String() })
	return out
}
