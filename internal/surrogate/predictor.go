package surrogate

import (
	"encoding/json"
	"os"
	"sync"

	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
)

// memoCap bounds the predictor's per-(chip, program) static-analysis
// memo. Feature extraction is O(program length); the serving hot path
// must answer repeat programs in well under a microsecond, so the memo
// holds the prepared feature vector and aggregate template. The map is
// simply reset when full — serving traffic is heavily skewed, so the
// working set re-warms in a few requests.
const memoCap = 8192

// DefaultLogMaxBytes is the training-log rotation threshold: when an
// append would grow the log past this size, the log is rotated to
// <path>.1 (replacing any previous rotation) and a fresh file started,
// so a long-lived daemon's log is bounded by ~2x this value.
const DefaultLogMaxBytes = 4 << 20

// logSeenCap bounds the per-process dedup set of logged (chip,
// program) fingerprints; like the feature memo it is simply reset when
// full.
const logSeenCap = 1 << 16

// Predictor adapts a trained Model to the engine's Predictor hook:
// memoized feature extraction, the confidence gate, approximate-profile
// assembly on acceptance, and training-log appends on fallback. Safe
// for concurrent use.
type Predictor struct {
	model *Model

	mu      sync.Mutex
	memo    map[string]*Static
	chipFPs map[*hw.Chip]string

	logMu   sync.Mutex
	logPath string
	logFile *os.File
	logErrs int
	logSize int64
	logSeen map[string]bool

	// LogMaxBytes overrides DefaultLogMaxBytes when positive; set it
	// before the first RecordExact.
	LogMaxBytes int64
}

// NewPredictor wraps a trained model. logPath, when non-empty, is the
// JSONL training log gated fallbacks are appended to (one Sample per
// line, FORMATS.md §10); it is created lazily and append-opened so
// multiple runs accumulate.
func NewPredictor(m *Model, logPath string) *Predictor {
	return &Predictor{
		model:   m,
		memo:    make(map[string]*Static),
		chipFPs: make(map[*hw.Chip]string),
		logPath: logPath,
		logSeen: make(map[string]bool),
	}
}

// Model returns the wrapped model.
func (p *Predictor) Model() *Model { return p.model }

// static returns the memoized static analysis for (chip, prog) along
// with the (chip fingerprint, program fingerprint) memo key, which
// doubles as the training-log dedup key. The program fingerprint is
// computed before taking p.mu, so concurrent predictions do not
// serialize on hashing their programs.
func (p *Predictor) static(chip *hw.Chip, prog *isa.Program) (*Static, string) {
	progFP := prog.Fingerprint()
	p.mu.Lock()
	fp, ok := p.chipFPs[chip]
	if !ok {
		var err error
		fp, err = chip.Fingerprint()
		if err != nil {
			fp = chip.Name
		}
		if len(p.chipFPs) >= 64 {
			p.chipFPs = make(map[*hw.Chip]string)
		}
		p.chipFPs[chip] = fp
	}
	key := fp + "|" + progFP
	if st, ok := p.memo[key]; ok {
		p.mu.Unlock()
		return st, key
	}
	p.mu.Unlock()

	st := Analyze(chip, prog)
	p.mu.Lock()
	if len(p.memo) >= memoCap {
		p.memo = make(map[string]*Static)
	}
	p.memo[key] = st
	p.mu.Unlock()
	return st, key
}

// Predict implements engine.Predictor: a gated makespan estimate
// wrapped in a profile whose other aggregates are exact. It declines
// (nil, false) on any non-default simulation options — span-keeping
// needs the real scheduler, and hazard-disabled runs are outside the
// training distribution.
func (p *Predictor) Predict(chip *hw.Chip, prog *isa.Program, opts sim.Options) (*profile.Profile, bool) {
	if opts != (sim.Options{}) {
		return nil, false
	}
	st, _ := p.static(chip, prog)
	est, ok := p.model.Predict(st.Features)
	if !ok {
		return nil, false
	}
	out := st.Agg.Clone()
	out.TotalTime = est
	return out, true
}

// RecordExact implements engine.Predictor: called with the exact
// simulation result of a case the gate rejected, it appends the
// (features, exact makespan) pair to the training log for the next
// ascendfit run. Each (chip, program) fingerprint pair is logged at
// most once per process — a serving loop that repeatedly re-simulates
// the same gate-rejected program used to append a duplicate line per
// repeat — and the log rotates to <path>.1 when an append would grow
// it past LogMaxBytes. Without a configured log it is a no-op beyond
// warming the feature memo.
func (p *Predictor) RecordExact(chip *hw.Chip, prog *isa.Program, prof *profile.Profile) {
	if prof == nil || prof.TotalTime <= 0 {
		return
	}
	st, key := p.static(chip, prog)
	if p.logPath == "" {
		return
	}
	s := Sample{Name: prog.Name, Chip: chip.Name, Features: st.Features, TotalNS: prof.TotalTime}
	line, err := json.Marshal(s)
	if err != nil {
		return
	}
	line = append(line, '\n')
	p.logMu.Lock()
	defer p.logMu.Unlock()
	if p.logSeen[key] {
		return
	}
	if p.logFile == nil {
		f, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			p.logErrs++
			return
		}
		p.logFile = f
		if fi, err := f.Stat(); err == nil {
			p.logSize = fi.Size()
		}
	}
	max := p.LogMaxBytes
	if max <= 0 {
		max = DefaultLogMaxBytes
	}
	if p.logSize > 0 && p.logSize+int64(len(line)) > max {
		p.rotateLocked()
		if p.logFile == nil {
			return
		}
	}
	if len(p.logSeen) >= logSeenCap {
		p.logSeen = make(map[string]bool)
	}
	p.logSeen[key] = true
	if n, err := p.logFile.Write(line); err != nil {
		p.logErrs++
	} else {
		p.logSize += int64(n)
	}
}

// rotateLocked rotates the training log: the current file moves to
// <path>.1 (replacing any previous rotation) and a fresh file is
// opened. Called with logMu held and logFile non-nil; failures leave
// the current file in place and are counted.
func (p *Predictor) rotateLocked() {
	if err := p.logFile.Close(); err != nil {
		p.logErrs++
	}
	p.logFile = nil
	if err := os.Rename(p.logPath, p.logPath+".1"); err != nil {
		p.logErrs++
	}
	f, err := os.OpenFile(p.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		p.logErrs++
		return
	}
	p.logFile = f
	p.logSize = 0
	if fi, err := f.Stat(); err == nil {
		p.logSize = fi.Size()
	}
}

// Close flushes and closes the training log (idempotent).
func (p *Predictor) Close() error {
	p.logMu.Lock()
	defer p.logMu.Unlock()
	if p.logFile == nil {
		return nil
	}
	err := p.logFile.Close()
	p.logFile = nil
	return err
}

// LoadTrainingLog reads a JSONL training log written by RecordExact.
// Malformed lines are skipped (a crash mid-append leaves at most one).
func LoadTrainingLog(path string) ([]Sample, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []Sample
	start := 0
	for i := 0; i <= len(data); i++ {
		if i != len(data) && data[i] != '\n' {
			continue
		}
		line := data[start:i]
		start = i + 1
		if len(line) == 0 {
			continue
		}
		var s Sample
		if json.Unmarshal(line, &s) == nil && len(s.Features) == NumFeatures() && s.TotalNS > 0 {
			out = append(out, s)
		}
	}
	return out, nil
}
