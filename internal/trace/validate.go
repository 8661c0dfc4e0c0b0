package trace

import (
	"encoding/json"
	"fmt"
	"io"
)

// Validate checks a trace JSON stream against the FORMATS.md §6 schema:
// the versioned otherData.schema tag, the Perfetto-required fields on
// every event (ph/pid/tid/ts, plus dur on "X" complete events), named
// tracks (every tid that carries spans has a thread_name metadata
// record) and paired flow arrows (every flow id has exactly one start
// and one finish). scripts/ci.sh runs this on a freshly emitted trace;
// it is the machine check behind the "loads in Perfetto without
// errors" guarantee.
func Validate(r io.Reader) error {
	var doc struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		OtherData   map[string]any   `json:"otherData"`
	}
	dec := json.NewDecoder(r)
	if err := dec.Decode(&doc); err != nil {
		return fmt.Errorf("trace: not valid JSON: %w", err)
	}
	if tag, _ := doc.OtherData["schema"].(string); tag != SchemaTrace {
		return fmt.Errorf("trace: otherData.schema is %q, want %q", tag, SchemaTrace)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("trace: empty traceEvents")
	}

	num := func(ev map[string]any, field string) (float64, bool) {
		v, ok := ev[field].(float64)
		return v, ok
	}
	str := func(ev map[string]any, field string) (string, bool) {
		v, ok := ev[field].(string)
		return v, ok
	}

	named := map[float64]bool{}   // tids with a thread_name record
	spanTID := map[float64]bool{} // tids carrying X events
	flowS := map[float64]int{}    // flow starts per id
	flowF := map[float64]int{}    // flow finishes per id
	for i, ev := range doc.TraceEvents {
		ph, ok := str(ev, "ph")
		if !ok || ph == "" {
			return fmt.Errorf("trace: event %d: missing ph", i)
		}
		if _, ok := num(ev, "pid"); !ok {
			return fmt.Errorf("trace: event %d (ph=%s): missing pid", i, ph)
		}
		tid, ok := num(ev, "tid")
		if !ok {
			return fmt.Errorf("trace: event %d (ph=%s): missing tid", i, ph)
		}
		ts, ok := num(ev, "ts")
		if !ok {
			return fmt.Errorf("trace: event %d (ph=%s): missing ts", i, ph)
		}
		name, _ := str(ev, "name")
		switch ph {
		case "M":
			switch name {
			case "process_name", "thread_name", "thread_sort_index":
			default:
				return fmt.Errorf("trace: event %d: unknown metadata record %q", i, name)
			}
			if _, ok := ev["args"].(map[string]any); !ok {
				return fmt.Errorf("trace: event %d: metadata without args", i)
			}
			if name == "thread_name" {
				named[tid] = true
			}
		case "X":
			dur, ok := num(ev, "dur")
			if !ok {
				return fmt.Errorf("trace: event %d (%q): X event missing dur", i, name)
			}
			if ts < 0 || dur < 0 {
				return fmt.Errorf("trace: event %d (%q): negative ts/dur", i, name)
			}
			if name == "" {
				return fmt.Errorf("trace: event %d: unnamed span", i)
			}
			spanTID[tid] = true
		case "s", "f":
			id, ok := num(ev, "id")
			if !ok {
				return fmt.Errorf("trace: event %d (%q): flow event missing id", i, name)
			}
			if ph == "s" {
				flowS[id]++
			} else {
				if bp, _ := str(ev, "bp"); bp != "e" {
					return fmt.Errorf("trace: event %d (%q): flow finish without bp=e", i, name)
				}
				flowF[id]++
			}
		case "i":
			if name == "" {
				return fmt.Errorf("trace: event %d: unnamed instant", i)
			}
		default:
			return fmt.Errorf("trace: event %d: unsupported phase %q", i, ph)
		}
	}
	for tid := range spanTID {
		if !named[tid] {
			return fmt.Errorf("trace: track tid=%g carries spans but has no thread_name", tid)
		}
	}
	// Each id names one arrow: exactly one start and one finish.
	// Comparing the counts alone would pass an id reused by two arrows.
	for _, ids := range []map[float64]int{flowS, flowF} {
		for id := range ids {
			if flowS[id] != 1 || flowF[id] != 1 {
				return fmt.Errorf("trace: flow id=%g has %d starts and %d finishes", id, flowS[id], flowF[id])
			}
		}
	}
	return nil
}
