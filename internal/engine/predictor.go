package engine

import (
	"sync/atomic"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// Predictor is the learned-surrogate hook consulted by SimulateApprox
// between the cache layers and the exact simulator. Predict returns an
// approximate profile (Approx set, exact aggregates, estimated
// TotalTime) and true when its confidence gate accepts the case; on
// false the engine falls back to the exact simulator and hands the
// result to RecordExact so the miss becomes training data.
// Implementations must be safe for concurrent use (internal/surrogate
// provides the production one).
type Predictor interface {
	Predict(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, bool)
	RecordExact(chip *hw.Chip, prog *isa.Program, p *profile.Profile)
}

// predictor is the process-wide surrogate hook, nil when not installed.
var predictor atomic.Pointer[Predictor]

// SetPredictor installs (or with nil removes) the process-wide
// surrogate predictor consulted by SimulateApprox. Daemons wire their
// -surrogate flag here.
func SetPredictor(p Predictor) {
	if p == nil {
		predictor.Store(nil)
		return
	}
	predictor.Store(&p)
}

// SimulateApprox is Simulate with the learned surrogate in the loop,
// between the memory cache and the exact simulator. Exact results (cached
// or fresh) are always preferred over predictions — the surrogate only
// answers genuine simulation misses. Accepted predictions are returned
// with Profile.Approx set and are never inserted into any cache tier,
// so caches serve exact results only; gate rejections simulate
// exactly, populate the caches as usual and feed the (features, exact)
// pair back to the predictor's training log. Without an installed
// predictor it is exactly Simulate.
func SimulateApprox(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, error) {
	var pred Predictor
	if pp := predictor.Load(); pp != nil {
		if opts.KeepSpans {
			// Span timelines need the real scheduler; not a surrogate case.
			atomic.AddUint64(&Live.SurrogateFallback, 1)
		} else {
			pred = *pp
		}
	}
	return simulate(defaultCache.Load(), chip, prog, opts, pred)
}
