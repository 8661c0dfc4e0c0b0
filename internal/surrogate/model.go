package surrogate

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
)

// Schema identifies the model-file format (FORMATS.md §10).
const Schema = "ascendperf/surrogate-model/v1"

// Model is a trained ridge-regression surrogate: standardization
// parameters, weights over the canonical feature vector, the
// confidence-gate envelope learned from training data, and the fitting
// metadata that makes a committed model auditable. Predict is the only
// hot-path method; everything else is load/train/evaluate plumbing.
//
// A Model value is immutable after LoadModel/Fit and safe for
// concurrent use.
type Model struct {
	SchemaName   string   `json:"schema"`
	FeatureNames []string `json:"feature_names"`
	// Transform names the per-feature input transform applied before
	// standardization; "log1p" is the only supported value.
	Transform string `json:"transform"`
	// Mean/Std standardize transformed features; Weights and Intercept
	// predict the centered log-makespan:
	// log(ns) = Intercept + Σ w_j·(log1p(f_j)-Mean_j)/Std_j.
	Mean      []float64 `json:"mean"`
	Std       []float64 `json:"std"`
	Weights   []float64 `json:"weights"`
	Intercept float64   `json:"intercept"`
	// Min/Max bound each feature over the training set; the range gate
	// rejects inputs outside [Min-RangeMargin·span, Max+RangeMargin·span].
	Min         []float64 `json:"min"`
	Max         []float64 `json:"max"`
	RangeMargin float64   `json:"range_margin"`
	// ResidualBound gates |log(prediction / critpath proxy)|.
	ResidualBound float64 `json:"residual_bound"`
	// MAPEBound is the committed accuracy contract ascendcheck
	// -surrogate and ci.sh enforce on accepted predictions.
	MAPEBound float64 `json:"mape_bound"`
	// Fitting metadata.
	Lambda     float64 `json:"lambda"`
	TrainCount int     `json:"train_count"`
	EvalCount  int     `json:"eval_count"`
	TrainMAPE  float64 `json:"train_mape"`
	EvalMAPE   float64 `json:"eval_mape"`
	EvalP99    float64 `json:"eval_p99"`

	// Resolved gate-feature indexes (by name, so feature-order changes
	// surface as load errors instead of silent mis-gating).
	critIdx, serialIdx, maxBusyIdx, dispatchIdx int
	// lo/hi are the range gate's per-feature bounds, resolved once
	// instead of recomputing each feature's margin on every Predict.
	lo, hi []float64
}

// resolve locates the gate features and validates arity.
func (m *Model) resolve() error {
	if m.SchemaName != Schema {
		return fmt.Errorf("surrogate: schema %q, want %q", m.SchemaName, Schema)
	}
	if m.Transform != TransformLog1p {
		return fmt.Errorf("surrogate: unsupported transform %q", m.Transform)
	}
	d := len(m.FeatureNames)
	if d == 0 {
		return fmt.Errorf("surrogate: model has no features")
	}
	for name, s := range map[string][]float64{
		"mean": m.Mean, "std": m.Std, "weights": m.Weights,
		"min": m.Min, "max": m.Max,
	} {
		if len(s) != d {
			return fmt.Errorf("surrogate: %s has %d entries, want %d", name, len(s), d)
		}
	}
	idx := map[string]int{}
	for i, n := range m.FeatureNames {
		idx[n] = i
	}
	for _, g := range []struct {
		name string
		dst  *int
	}{
		{featCritpath, &m.critIdx},
		{featSerial, &m.serialIdx},
		{featMaxBusy, &m.maxBusyIdx},
		{featDispatch, &m.dispatchIdx},
	} {
		i, ok := idx[g.name]
		if !ok {
			return fmt.Errorf("surrogate: model lacks gate feature %q", g.name)
		}
		*g.dst = i
	}
	m.lo, m.hi = make([]float64, d), make([]float64, d)
	for j := range d {
		margin := m.RangeMargin*(m.Max[j]-m.Min[j]) + 1e-9
		m.lo[j], m.hi[j] = m.Min[j]-margin, m.Max[j]+margin
	}
	return nil
}

// TransformLog1p is the only supported feature transform.
const TransformLog1p = "log1p"

// transform maps one raw feature into model space.
func transform(v float64) float64 { return math.Log1p(v) }

// rawPredict is the ungated estimate in nanoseconds.
func (m *Model) rawPredict(f []float64) float64 {
	z, _ := m.logEstimate(f)
	return math.Exp(z)
}

// logEstimate returns the ungated log-makespan estimate for f and
// whether every feature lies inside the range gate, in one pass.
// Zero features (about half of a typical vector) skip the transform:
// log1p(±0) is ±0, so the estimate is bit-identical either way.
func (m *Model) logEstimate(f []float64) (z float64, inRange bool) {
	// Reslicing to len(f) lets the compiler drop per-element bounds checks.
	w, mean, std := m.Weights[:len(f)], m.Mean[:len(f)], m.Std[:len(f)]
	lo, hi := m.lo[:len(f)], m.hi[:len(f)]
	z, inRange = m.Intercept, true
	for j, v := range f {
		if v < lo[j] || v > hi[j] {
			inRange = false
		}
		t := v
		if v != 0 {
			t = transform(v)
		}
		z += w[j] * (t - mean[j]) / std[j]
	}
	return z, inRange
}

// Predict estimates the makespan of a program with feature vector f,
// in nanoseconds. ok reports whether the estimate passed the
// three-part confidence gate:
//
//  1. range: every feature inside its training envelope (±RangeMargin
//     of the observed span) — unfamiliar program shapes fall back;
//  2. physical bracket: the estimate must lie in [max_busy_ns,
//     serial_ns + dispatch_ns], the makespan bounds any valid schedule
//     satisfies — a prediction outside them is certainly wrong;
//  3. residual: the estimate must sit within ResidualBound of the
//     critical-path proxy in log space, the same envelope training
//     data occupied.
//
// Gated (ok == false) estimates must not be served: the caller falls
// back to the exact simulator (and records the pair for retraining).
// Predict allocates nothing and runs in well under a microsecond —
// BenchmarkSurrogatePredict pins that.
func (m *Model) Predict(f []float64) (float64, bool) {
	if len(f) != len(m.Mean) {
		return 0, false
	}
	z, inRange := m.logEstimate(f)
	if !inRange {
		return 0, false
	}
	pred := math.Exp(z)
	if math.IsNaN(pred) || math.IsInf(pred, 0) || pred <= 0 {
		return 0, false
	}
	const eps = 1e-9
	if lo := f[m.maxBusyIdx]; pred < lo-eps {
		return 0, false
	}
	if hi := f[m.serialIdx] + f[m.dispatchIdx]; pred > hi+eps {
		return 0, false
	}
	proxy := f[m.critIdx]
	if proxy <= 0 {
		return 0, false
	}
	if r := math.Log(pred / proxy); r > m.ResidualBound || r < -m.ResidualBound {
		return 0, false
	}
	return pred, true
}

// LoadModel reads and validates a model file written by Save.
func LoadModel(path string) (*Model, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("surrogate: %w", err)
	}
	var m Model
	if err := json.Unmarshal(data, &m); err != nil {
		return nil, fmt.Errorf("surrogate: %s: %w", path, err)
	}
	if err := m.resolve(); err != nil {
		return nil, fmt.Errorf("surrogate: %s: %w", path, err)
	}
	return &m, nil
}

// Save writes the model as indented JSON (stable field order, suitable
// for committing).
func (m *Model) Save(path string) error {
	data, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return fmt.Errorf("surrogate: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
