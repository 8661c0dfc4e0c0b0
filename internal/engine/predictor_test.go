package engine

import (
	"testing"
	"time"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// parkedPredictor signals entered and then parks every Predict until
// release closes; it then accepts with an estimate.
type parkedPredictor struct {
	entered chan struct{}
	release chan struct{}
}

func (p *parkedPredictor) Predict(*hw.Chip, *isa.Program, sim.Options) (*profile.Profile, bool) {
	p.entered <- struct{}{}
	<-p.release
	return &profile.Profile{TotalTime: 1, Approx: true}, true
}

func (p *parkedPredictor) RecordExact(*hw.Chip, *isa.Program, *profile.Profile) {}

// TestExactCallerNeverGetsEstimate: while a SimulateApprox of a program
// is parked inside the surrogate, an exact Simulate of the same program
// must come back exact — it may share work with other exact callers,
// never with an estimate-accepting one.
func TestExactCallerNeverGetsEstimate(t *testing.T) {
	defer SetCacheCapacity(DefaultCacheCapacity)
	SetCacheCapacity(DefaultCacheCapacity)
	pred := &parkedPredictor{entered: make(chan struct{}), release: make(chan struct{})}
	SetPredictor(pred)
	defer SetPredictor(nil)

	chip := hw.TrainingChip()
	prog := &isa.Program{Name: "exact-vs-estimate"}
	prog.AppendTransfer(hw.PathGMToUB, 0, 0, 4096)
	approx := make(chan *profile.Profile, 1)
	go func() {
		p, err := SimulateApprox(chip, prog, sim.Options{})
		if err != nil {
			t.Error(err)
		}
		approx <- p
	}()
	<-pred.entered

	exact := make(chan *profile.Profile, 1)
	go func() {
		p, err := Simulate(chip, prog, sim.Options{})
		if err != nil {
			t.Error(err)
		}
		exact <- p
	}()
	var got *profile.Profile
	select {
	case got = <-exact:
		close(pred.release)
	case <-time.After(5 * time.Second):
		// An exact caller waiting on the parked estimate only returns
		// once the predictor does.
		close(pred.release)
		got = <-exact
		t.Error("exact Simulate waited on the parked SimulateApprox")
	}
	if got == nil || got.Approx {
		t.Fatalf("exact Simulate returned %+v, want an exact profile", got)
	}
	if a := <-approx; a == nil || !a.Approx {
		t.Errorf("parked SimulateApprox returned %+v, want the estimate", a)
	}
}
