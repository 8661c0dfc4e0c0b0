package profile

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
)

func sample() *Profile {
	p := New("sample")
	p.TotalTime = 1000
	p.Busy[hw.CompVector] = 400
	p.Busy[hw.CompMTEGM] = 700
	p.InstrCount[hw.CompVector] = 2
	p.InstrCount[hw.CompMTEGM] = 2
	p.PathBytes[hw.PathGMToUB] = 2048
	p.PathBytes[hw.PathGMToL1] = 1024
	p.PathBytes[hw.PathUBToGM] = 512
	p.PrecOps[hw.UnitPrec{Unit: hw.Vector, Prec: hw.FP16}] = 300
	p.PrecOps[hw.UnitPrec{Unit: hw.Vector, Prec: hw.FP32}] = 100
	p.PrecBusy[hw.UnitPrec{Unit: hw.Vector, Prec: hw.FP16}] = 250
	p.PathBusy[hw.PathGMToUB] = 400
	p.Timeline = NewSpanSeq(
		Span{Comp: hw.CompMTEGM, Kind: isa.KindTransfer, Index: 0, Start: 0, End: 400, Label: "load-a"},
		Span{Comp: hw.CompVector, Kind: isa.KindCompute, Index: 1, Start: 400, End: 600},
		Span{Comp: hw.CompMTEGM, Kind: isa.KindTransfer, Index: 2, Start: 500, End: 800},
		Span{Comp: hw.CompVector, Kind: isa.KindCompute, Index: 3, Start: 800, End: 1000},
	)
	return p
}

func TestTimeRatio(t *testing.T) {
	p := sample()
	if got := p.TimeRatio(hw.CompVector); math.Abs(got-0.4) > 1e-9 {
		t.Errorf("vector ratio = %v, want 0.4", got)
	}
	if got := p.TimeRatio(hw.CompMTEGM); math.Abs(got-0.7) > 1e-9 {
		t.Errorf("mte-gm ratio = %v, want 0.7", got)
	}
	empty := New("empty")
	if empty.TimeRatio(hw.CompVector) != 0 {
		t.Error("zero total must give zero ratio")
	}
}

func TestBytesOfGroupsByEngine(t *testing.T) {
	p := sample()
	chip := hw.TrainingChip()
	if got := p.BytesOf(chip, hw.CompMTEGM); got != 3072 {
		t.Errorf("MTE-GM bytes = %d, want 3072", got)
	}
	if got := p.BytesOf(chip, hw.CompMTEUB); got != 512 {
		t.Errorf("MTE-UB bytes = %d, want 512", got)
	}
	if got := p.BytesOf(chip, hw.CompMTEL1); got != 0 {
		t.Errorf("MTE-L1 bytes = %d, want 0", got)
	}
}

func TestOpsOf(t *testing.T) {
	p := sample()
	if got := p.OpsOf(hw.Vector); got != 400 {
		t.Errorf("vector ops = %d, want 400", got)
	}
	if got := p.OpsOf(hw.Cube); got != 0 {
		t.Errorf("cube ops = %d, want 0", got)
	}
}

func TestActiveComponents(t *testing.T) {
	p := sample()
	got := p.ActiveComponents()
	want := []hw.Component{hw.CompVector, hw.CompMTEGM}
	if len(got) != len(want) {
		t.Fatalf("active = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("active = %v, want %v", got, want)
		}
	}
}

func TestGaps(t *testing.T) {
	p := sample()
	// Vector spans: [400,600), [800,1000): one gap of 200.
	n, idle := p.Gaps(hw.CompVector)
	if n != 1 || math.Abs(idle-200) > 1e-9 {
		t.Errorf("vector gaps = (%d, %v), want (1, 200)", n, idle)
	}
	// MTE-GM spans: [0,400), [500,800): one gap of 100.
	n, idle = p.Gaps(hw.CompMTEGM)
	if n != 1 || math.Abs(idle-100) > 1e-9 {
		t.Errorf("mte-gm gaps = (%d, %v), want (1, 100)", n, idle)
	}
	// Unused component: no gaps.
	if n, _ := p.Gaps(hw.CompCube); n != 0 {
		t.Errorf("cube gaps = %d, want 0", n)
	}
}

func TestSummaryContents(t *testing.T) {
	s := sample().Summary()
	for _, want := range []string{"sample", "Vector", "MTE-GM", "GM->UB", "FP16-Vector"} {
		if !strings.Contains(s, want) {
			t.Errorf("summary missing %q:\n%s", want, s)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := sample().WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 5 {
		t.Fatalf("csv lines = %d, want 5 (header + 4 spans)", len(lines))
	}
	if !strings.HasPrefix(lines[0], "index,component,kind") {
		t.Errorf("bad header: %s", lines[0])
	}
	if !strings.Contains(lines[1], "MTE-GM,transfer") {
		t.Errorf("bad first row: %s", lines[1])
	}
}

func TestValidateDetectsCorruption(t *testing.T) {
	good := sample()
	if err := good.Validate(); err != nil {
		t.Fatalf("valid profile rejected: %v", err)
	}

	negBusy := sample()
	negBusy.Busy[hw.CompCube] = -1
	if negBusy.Validate() == nil {
		t.Error("negative busy accepted")
	}

	busyOver := sample()
	busyOver.Busy[hw.CompVector] = 2000
	if busyOver.Validate() == nil {
		t.Error("busy > total accepted")
	}

	overlap := sample()
	overlap.Timeline = NewSpanSeq(
		Span{Comp: hw.CompVector, Start: 0, End: 100},
		Span{Comp: hw.CompVector, Start: 50, End: 150},
	)
	if overlap.Validate() == nil {
		t.Error("overlapping spans accepted")
	}

	unsorted := sample()
	unsorted.Timeline = NewSpanSeq(
		Span{Comp: hw.CompVector, Start: 100, End: 150},
		Span{Comp: hw.CompMTEGM, Start: 0, End: 50},
	)
	if unsorted.Validate() == nil {
		t.Error("unsorted spans accepted")
	}

	negDur := sample()
	negDur.Timeline = NewSpanSeq(Span{Comp: hw.CompVector, Start: 100, End: 50})
	if negDur.Validate() == nil {
		t.Error("negative-duration span accepted")
	}

	pastEnd := sample()
	pastEnd.Timeline = NewSpanSeq(Span{Comp: hw.CompVector, Start: 0, End: 5000})
	if pastEnd.Validate() == nil {
		t.Error("span past total accepted")
	}
}
