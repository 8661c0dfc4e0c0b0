package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"ascendperf/internal/critpath"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/sim"
)

// TestMetricsSumInvariant is the report's core guarantee: for every
// component, busy + attributed wait + trailing idle equals the
// operator's total time exactly (up to float tolerance), across
// baseline and optimized variants of several kernels on both chip
// presets.
func TestMetricsSumInvariant(t *testing.T) {
	chips := []*hw.Chip{hw.TrainingChip(), hw.InferenceChip()}
	for _, chip := range chips {
		for _, name := range []string{"add_relu", "depthwise", "matmul", "mul", "avgpool"} {
			k := kernels.Registry()[name]
			if k == nil {
				t.Fatalf("kernel %q missing", name)
			}
			for _, optimized := range []bool{false, true} {
				opts := k.Baseline()
				if optimized {
					opts = kernels.FullyOptimized(k)
				}
				prog, err := k.Build(chip, opts)
				if err != nil {
					t.Fatal(err)
				}
				p, err := sim.Run(chip, prog)
				if err != nil {
					t.Fatal(err)
				}
				m, err := ComputeMetrics(chip, prog, p)
				if err != nil {
					t.Fatal(err)
				}
				if m.TotalNS != p.TotalTime {
					t.Fatalf("%s/%s: total %v != profile %v", chip.Name, name, m.TotalNS, p.TotalTime)
				}
				for _, cm := range m.Components {
					// The tick-quantized decomposition is bit-exact, not
					// merely within tolerance.
					sum := cm.BusyNS + cm.WaitTotal() + cm.IdleNS
					if sum != QuantizeNS(m.TotalNS) {
						t.Errorf("%s/%s opt=%v %s: busy %v + wait %v + idle %v = %v != total %v",
							chip.Name, name, optimized, cm.Comp,
							cm.BusyNS, cm.WaitTotal(), cm.IdleNS, sum, QuantizeNS(m.TotalNS))
					}
					if math.Abs(cm.BusyNS-p.Busy[cm.Comp]) > 1e-6*math.Max(1, p.Busy[cm.Comp]) {
						t.Errorf("%s/%s %s: busy %v != profile busy %v",
							chip.Name, name, cm.Comp, cm.BusyNS, p.Busy[cm.Comp])
					}
					if cm.Occupancy < 0 || cm.Occupancy > 1+1e-9 {
						t.Errorf("%s/%s %s: occupancy %v out of [0,1]", chip.Name, name, cm.Comp, cm.Occupancy)
					}
					gaps, _ := p.Gaps(cm.Comp)
					if cm.Gaps != gaps {
						t.Errorf("%s/%s %s: %d gaps, profile.Gaps says %d",
							chip.Name, name, cm.Comp, cm.Gaps, gaps)
					}
					if cm.Comp.IsMTE() && cm.Bytes != p.BytesOf(chip, cm.Comp) {
						t.Errorf("%s/%s %s: bytes %d != %d", chip.Name, name, cm.Comp, cm.Bytes, p.BytesOf(chip, cm.Comp))
					}
				}
			}
		}
	}
}

// TestMetricsWaitAttribution checks the mini pipeline's known stalls:
// the Vector queue waits on a flag, the MTE-UB store waits on the
// barrier.
func TestMetricsWaitAttribution(t *testing.T) {
	chip, prog, _ := miniTrace(t)
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputeMetrics(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	byComp := map[hw.Component]ComponentMetrics{}
	for _, cm := range m.Components {
		byComp[cm.Comp] = cm
	}
	if v := byComp[hw.CompVector]; v.WaitNS[critpath.EdgeFlag] <= 0 {
		t.Errorf("Vector flag wait = %v, want > 0", v.WaitNS[critpath.EdgeFlag])
	}
	if u := byComp[hw.CompMTEUB]; u.WaitNS[critpath.EdgeBarrier] <= 0 {
		t.Errorf("MTE-UB barrier wait = %v, want > 0", u.WaitNS[critpath.EdgeBarrier])
	}
}

// TestMetricsJSON round-trips the JSON report through generic decoding
// and checks the schema tag and per-component field presence.
func TestMetricsJSON(t *testing.T) {
	chip, prog, _ := miniTrace(t)
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputeMetrics(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var out struct {
		Schema     string  `json:"schema"`
		TotalNS    float64 `json:"total_ns"`
		Components []struct {
			Comp   string  `json:"comp"`
			BusyNS float64 `json:"busy_ns"`
			IdleNS float64 `json:"idle_ns"`
			WaitD  float64 `json:"wait_dispatch_ns"`
			WaitF  float64 `json:"wait_flag_ns"`
			WaitB  float64 `json:"wait_barrier_ns"`
			WaitH  float64 `json:"wait_hazard_ns"`
		} `json:"components"`
		Paths []struct {
			Src string `json:"src"`
			Dst string `json:"dst"`
		} `json:"paths"`
	}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatal(err)
	}
	if out.Schema != SchemaMetrics {
		t.Errorf("schema %q, want %q", out.Schema, SchemaMetrics)
	}
	if len(out.Components) != len(m.Components) {
		t.Fatalf("%d components, want %d", len(out.Components), len(m.Components))
	}
	for _, cm := range out.Components {
		sum := cm.BusyNS + cm.WaitD + cm.WaitF + cm.WaitB + cm.WaitH + cm.IdleNS
		if math.Abs(sum-out.TotalNS) > 1e-6*math.Max(1, out.TotalNS) {
			t.Errorf("JSON %s: decomposition sums to %.3f, total %.3f", cm.Comp, sum, out.TotalNS)
		}
	}
	if len(out.Paths) == 0 {
		t.Error("no path metrics in JSON")
	}
	if m.Report() == "" {
		t.Error("empty text report")
	}
}

// TestMetricsExactSum10k is the stress form of the decomposition
// guarantee: on a 10k-instruction program every component's
// busy + wait + idle equals the quantized total bit-for-bit — integer
// tick accumulation leaves no room for per-gap float drift.
func TestMetricsExactSum10k(t *testing.T) {
	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "exact-sum-10k"}
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 10000; i++ {
		switch i % 5 {
		case 0:
			prog.AppendTransfer(hw.PathGMToUB, 0, int64(i%7)*4096, int64(rng.Intn(4096)+1))
		case 1:
			prog.Append(isa.Compute(hw.Vector, hw.FP16, int64(rng.Intn(3000)+1)))
		case 2:
			prog.Append(isa.SetFlag(hw.CompMTEGM, hw.CompVector, (i/5)%3))
		case 3:
			// Matches the set_flag emitted at i-1 (same i/5 block), so
			// sets always precede and balance waits per event key.
			prog.Append(isa.WaitFlag(hw.CompMTEGM, hw.CompVector, (i/5)%3))
		case 4:
			prog.Append(isa.Compute(hw.Scalar, hw.INT32, int64(rng.Intn(500)+1)))
		}
	}
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputeMetrics(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	want := QuantizeNS(m.TotalNS)
	for _, cm := range m.Components {
		sum := cm.BusyNS + cm.WaitTotal() + cm.IdleNS
		if sum != want {
			t.Errorf("%s: busy %v + wait %v + idle %v = %v, want exactly %v (diff %g)",
				cm.Comp, cm.BusyNS, cm.WaitTotal(), cm.IdleNS, sum, want, sum-want)
		}
	}
}

// TestMetricsGapCountZeroStart is the minimized regression for a gap
// miscount found by the check harness work: when a queue's first span
// is zero-duration at t=0 (free sync, zero dispatch latency), the gap
// before the second span is internal and must be counted — the old
// "prevEnd > 0" guard silently skipped it, diverging from
// profile.Gaps.
func TestMetricsGapCountZeroStart(t *testing.T) {
	chip := hw.TrainingChip()
	chip.Name = "zero-latency"
	chip.DispatchLatency = 0
	chip.SyncCost = 0
	prog := &isa.Program{Name: "gap-count-edge"}
	prog.Append(isa.SetFlag(hw.CompVector, hw.CompMTEUB, 0))  // Vector [0,0)
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 1<<16)           // MTE-GM [0,T)
	prog.Append(isa.SetFlag(hw.CompMTEGM, hw.CompVector, 0))  // MTE-GM [T,T)
	prog.Append(isa.WaitFlag(hw.CompMTEGM, hw.CompVector, 0)) // Vector [T,T): gap (0,T)
	prog.Append(isa.WaitFlag(hw.CompVector, hw.CompMTEUB, 0)) // MTE-UB
	p, err := sim.Run(chip, prog)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ComputeMetrics(chip, prog, p)
	if err != nil {
		t.Fatal(err)
	}
	for _, cm := range m.Components {
		wantGaps, _ := p.Gaps(cm.Comp)
		if cm.Gaps != wantGaps {
			t.Errorf("%s: metrics count %d gaps, profile.Gaps says %d", cm.Comp, cm.Gaps, wantGaps)
		}
		if cm.Comp == hw.CompVector && cm.Gaps != 1 {
			t.Errorf("Vector gaps = %d, want 1 (the zero-length first span must not suppress it)", cm.Gaps)
		}
	}
}
