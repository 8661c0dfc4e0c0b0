package surrogate

import (
	"math"
	"os"
	"path/filepath"
	"testing"

	"ascendperf/internal/check"
	"ascendperf/internal/hw"
	"ascendperf/internal/sim"
)

func corpusChips() map[string]*hw.Chip {
	return map[string]*hw.Chip{
		"training":  hw.TrainingChip(),
		"inference": hw.InferenceChip(),
		"tpu":       hw.TPUStyleChip(),
	}
}

// corpusSamples simulates the whole differential corpus exactly and
// pairs each case with its feature vector.
func corpusSamples(t testing.TB) []Sample {
	t.Helper()
	var out []Sample
	for _, c := range check.Corpus(corpusChips()) {
		p, err := sim.RunOpts(c.Chip, c.Prog, sim.Options{})
		if err != nil {
			t.Fatalf("%s: sim: %v", c.Name, err)
		}
		out = append(out, Sample{
			Name: c.Name, Chip: c.ChipName,
			Features: Extract(c.Chip, c.Prog),
			TotalNS:  p.TotalTime,
		})
	}
	return out
}

// TestFitCorpus trains on the differential corpus and checks the whole
// contract: the fit converges to a usable accuracy, the model
// round-trips through its JSON file bit-exactly, the confidence gate
// accepts a useful share of the corpus, and every accepted prediction
// respects both the physical bracket and the committed MAPE bound.
func TestFitCorpus(t *testing.T) {
	samples := corpusSamples(t)
	m, err := Fit(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("train=%d eval=%d trainMAPE=%.4f evalMAPE=%.4f evalP99=%.4f residualBound=%.4f mapeBound=%.4f",
		m.TrainCount, m.EvalCount, m.TrainMAPE, m.EvalMAPE, m.EvalP99, m.ResidualBound, m.MAPEBound)
	if m.EvalMAPE <= 0 || m.EvalMAPE > 0.5 {
		t.Fatalf("eval MAPE %.4f outside (0, 0.5]", m.EvalMAPE)
	}
	if m.MAPEBound <= 0 || m.ResidualBound <= 0 {
		t.Fatalf("degenerate bounds: mape=%v residual=%v", m.MAPEBound, m.ResidualBound)
	}

	// Round-trip through the model file.
	path := filepath.Join(t.TempDir(), "model.json")
	if err := m.Save(path); err != nil {
		t.Fatal(err)
	}
	m2, err := LoadModel(path)
	if err != nil {
		t.Fatal(err)
	}

	accepted, sumErr := 0, 0.0
	for _, s := range samples {
		est, ok := m.Predict(s.Features)
		est2, ok2 := m2.Predict(s.Features)
		if ok != ok2 || est != est2 {
			t.Fatalf("%s: save/load changed prediction: (%v,%v) vs (%v,%v)", s.Name, est, ok, est2, ok2)
		}
		if !ok {
			continue
		}
		accepted++
		sumErr += math.Abs(est-s.TotalNS) / s.TotalNS
		// The physical bracket by feature name.
		var maxBusy, serial, dispatch float64
		for j, n := range m.FeatureNames {
			switch n {
			case featMaxBusy:
				maxBusy = s.Features[j]
			case featSerial:
				serial = s.Features[j]
			case featDispatch:
				dispatch = s.Features[j]
			}
		}
		if est < maxBusy-1e-6 || est > serial+dispatch+1e-6 {
			t.Fatalf("%s: accepted estimate %v outside bracket [%v, %v]",
				s.Name, est, maxBusy, serial+dispatch)
		}
	}
	cov := float64(accepted) / float64(len(samples))
	t.Logf("gate coverage %.3f (%d/%d), accepted MAPE %.4f",
		cov, accepted, len(samples), sumErr/float64(accepted))
	if cov < 0.5 {
		t.Fatalf("gate coverage %.3f < 0.5", cov)
	}
	if acceptedMAPE := sumErr / float64(accepted); acceptedMAPE > m.MAPEBound {
		t.Fatalf("accepted MAPE %.4f exceeds committed bound %.4f", acceptedMAPE, m.MAPEBound)
	}
}

// TestCommittedModel: the repository's committed model file loads, was
// trained on the current feature set, and still meets its own committed
// bound on today's corpus — the same check ascendcheck -surrogate runs
// in CI, kept here so `go test` alone catches drift.
func TestCommittedModel(t *testing.T) {
	if testing.Short() {
		t.Skip("short")
	}
	m, err := LoadModel("../../MODEL_surrogate.json")
	if os.IsNotExist(err) {
		t.Skip("no committed model")
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(m.FeatureNames) != NumFeatures() {
		t.Fatalf("committed model has %d features, code has %d", len(m.FeatureNames), NumFeatures())
	}
	for i, n := range m.FeatureNames {
		if featureNames[i] != n {
			t.Fatalf("feature %d: committed %q vs code %q", i, n, featureNames[i])
		}
	}
	samples := corpusSamples(t)
	accepted, sumErr := 0, 0.0
	for _, s := range samples {
		if est, ok := m.Predict(s.Features); ok {
			accepted++
			sumErr += math.Abs(est-s.TotalNS) / s.TotalNS
		}
	}
	if accepted == 0 {
		t.Fatal("committed model accepts nothing")
	}
	if mape := sumErr / float64(accepted); mape > m.MAPEBound {
		t.Fatalf("committed model accepted-MAPE %.4f exceeds its bound %.4f", mape, m.MAPEBound)
	}
}

// TestPredictMatchesReferenceFormula: Predict's one-pass hot path
// (resolved range bounds, zero features skipping the transform) must
// reproduce the model's defining formula and gate bit for bit, so the
// committed model's accept decisions and estimates cannot drift.
func TestPredictMatchesReferenceFormula(t *testing.T) {
	m, err := LoadModel("../../MODEL_surrogate.json")
	if os.IsNotExist(err) {
		t.Skip("no committed model")
	}
	if err != nil {
		t.Fatal(err)
	}
	reference := func(f []float64) (float64, bool) {
		for j, v := range f {
			margin := m.RangeMargin*(m.Max[j]-m.Min[j]) + 1e-9
			if v < m.Min[j]-margin || v > m.Max[j]+margin {
				return 0, false
			}
		}
		z := m.Intercept
		for j, v := range f {
			z += m.Weights[j] * (math.Log1p(v) - m.Mean[j]) / m.Std[j]
		}
		return math.Exp(z), true
	}
	inRange := 0
	for _, s := range corpusSamples(t) {
		want, wantIn := reference(s.Features)
		z, gotIn := m.logEstimate(s.Features)
		if gotIn != wantIn {
			t.Fatalf("%s: range gate %v, reference %v", s.Name, gotIn, wantIn)
		}
		if !wantIn {
			continue
		}
		inRange++
		if got := math.Exp(z); math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: estimate %v, reference %v", s.Name, got, want)
		}
		if est, ok := m.Predict(s.Features); ok && est != want {
			t.Fatalf("%s: Predict %v, reference %v", s.Name, est, want)
		}
	}
	if inRange == 0 {
		t.Fatal("no corpus case inside the range gate")
	}
}

// TestFitRejectsBadSamples: arity and target validation.
func TestFitRejectsBadSamples(t *testing.T) {
	if _, err := Fit([]Sample{{Features: []float64{1}, TotalNS: 1}}, 0); err == nil {
		t.Fatal("short feature vector accepted")
	}
	bad := Sample{Features: make([]float64, NumFeatures()), TotalNS: 0}
	if _, err := Fit([]Sample{bad}, 0); err == nil {
		t.Fatal("non-positive makespan accepted")
	}
	if _, err := Fit(nil, 0); err == nil {
		t.Fatal("empty sample set accepted")
	}
}

// TestTrainingLogRoundTrip: RecordExact appends parseable JSONL that
// LoadTrainingLog recovers, and malformed lines are skipped.
func TestTrainingLogRoundTrip(t *testing.T) {
	chips := corpusChips()
	chip := chips["training"]
	cases := check.Corpus(map[string]*hw.Chip{"training": chip})[:3]

	m := trainedModel(t)
	logPath := filepath.Join(t.TempDir(), "train.jsonl")
	p := NewPredictor(m, logPath)
	defer p.Close()
	for _, c := range cases {
		prof, err := sim.RunOpts(chip, c.Prog, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		p.RecordExact(chip, c.Prog, prof)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	// Corrupt the log with a truncated line.
	f, err := os.OpenFile(logPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"features": [1, 2`)
	f.Close()

	got, err := LoadTrainingLog(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cases) {
		t.Fatalf("recovered %d samples, want %d", len(got), len(cases))
	}
	for i, s := range got {
		if s.Name != cases[i].Prog.Name || s.TotalNS <= 0 || len(s.Features) != NumFeatures() {
			t.Fatalf("sample %d malformed: %+v", i, s)
		}
	}
}

// trainedModel fits a model on a small deterministic corpus slice,
// memoized per test binary run.
var (
	memoModel *Model
)

func trainedModel(t testing.TB) *Model {
	t.Helper()
	if memoModel != nil {
		return memoModel
	}
	chip := hw.TrainingChip()
	cases := check.Corpus(map[string]*hw.Chip{"training": chip})
	var samples []Sample
	for _, c := range cases {
		p, err := sim.RunOpts(chip, c.Prog, sim.Options{})
		if err != nil {
			t.Fatal(err)
		}
		samples = append(samples, Sample{
			Name: c.Prog.Name, Chip: "training",
			Features: Extract(chip, c.Prog), TotalNS: p.TotalTime,
		})
	}
	m, err := Fit(samples, 0)
	if err != nil {
		t.Fatal(err)
	}
	memoModel = m
	return m
}
