// Command ascendfit trains and evaluates the learned surrogate
// predictor (internal/surrogate): a ridge-regression model over static
// program features that estimates operator makespans without running
// the simulator, served by ascendd behind a confidence gate.
//
// Usage:
//
//	ascendfit [train] -chips all [-log train.jsonl]
//	          [-lambda L] -out model.json
//	ascendfit eval -model model.json [-chips all] [-maxmape M]
//
// The optional leading word selects the mode (default train). Training
// simulates the differential corpus exactly, merges any JSONL
// training log accumulated by ascendd's gated fallbacks (-log), fits
// the model on the deterministic 80% split and reports held-out error.
// Eval replays the corpus through a saved model and fails when the
// accepted-prediction MAPE exceeds -maxmape (0 = the model's own
// committed bound, negative = report only) — the ci.sh smoke gate.
package main

import (
	"flag"
	"fmt"
	"math"
	"os"
	"sort"
	"strings"

	"ascendperf/internal/check"
	"ascendperf/internal/cliutil"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/sim"
	"ascendperf/internal/surrogate"
)

func main() {
	// Mode is an optional leading word so the flag set stays flat (the
	// docs drift check reads `ascendfit -h` as one table).
	mode := "train"
	if len(os.Args) > 1 && !strings.HasPrefix(os.Args[1], "-") {
		mode = os.Args[1]
		os.Args = append(os.Args[:1], os.Args[2:]...)
	}
	var (
		chipsFlag = flag.String("chips", "all", `chip presets: comma-separated (training,inference,tpu), or "all"`)
		corpus    = flag.Bool("corpus", true, "include the differential corpus as training/eval data")
		logPath   = flag.String("log", "", "JSONL training log of gated fallbacks (written by ascendd -surrogatelog) to merge into the training set")
		lambda    = flag.Float64("lambda", 0, "ridge regularization strength (0 = default)")
		outPath   = flag.String("out", "model.json", "model file to write (train mode)")
		modelPath = flag.String("model", "MODEL_surrogate.json", "model file to evaluate (eval mode)")
		maxMAPE   = flag.Float64("maxmape", 0, "eval gate on accepted-prediction MAPE (0 = the model's committed bound, negative = report only)")
		workers   = flag.Int("workers", 0, "parallel simulation workers (0 = GOMAXPROCS)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendfit"))
		return
	}
	var err error
	switch mode {
	case "train":
		err = train(*chipsFlag, *corpus, *logPath, *lambda, *outPath, *workers)
	case "eval":
		err = eval(*chipsFlag, *corpus, *logPath, *modelPath, *maxMAPE, *workers)
	default:
		err = fmt.Errorf("unknown mode %q (want train or eval)", mode)
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ascendfit:", err)
	os.Exit(1)
}

// selectChips mirrors ascendcheck's preset resolution.
func selectChips(chipsFlag string) (map[string]*hw.Chip, error) {
	names := []string{"training", "inference", "tpu"}
	if chipsFlag != "all" {
		names = strings.Split(chipsFlag, ",")
	}
	out := map[string]*hw.Chip{}
	for _, n := range names {
		n = strings.TrimSpace(n)
		if n == "" {
			continue
		}
		chip, err := cliutil.ChipByName(n)
		if err != nil {
			return nil, err
		}
		out[n] = chip
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no chips selected")
	}
	return out, nil
}

// gather builds the sample set: exact corpus simulations (through the
// engine) plus the merged training log.
func gather(chipsFlag string, corpus bool, logPath string, workers int) ([]surrogate.Sample, error) {
	var samples []surrogate.Sample
	if corpus {
		chips, err := selectChips(chipsFlag)
		if err != nil {
			return nil, err
		}
		cases := check.Corpus(chips)
		results, err := engine.ParallelMap(workers, len(cases), func(i int) (surrogate.Sample, error) {
			c := cases[i]
			p, err := engine.Simulate(c.Chip, c.Prog, sim.Options{})
			if err != nil {
				return surrogate.Sample{}, fmt.Errorf("%s: %w", c.Name, err)
			}
			return surrogate.Sample{
				Name: c.Name, Chip: c.ChipName,
				Features: surrogate.Extract(c.Chip, c.Prog),
				TotalNS:  p.TotalTime,
			}, nil
		})
		if err != nil {
			return nil, err
		}
		samples = append(samples, results...)
	}
	if logPath != "" {
		logged, err := surrogate.LoadTrainingLog(logPath)
		if err != nil {
			return nil, fmt.Errorf("training log: %w", err)
		}
		fmt.Printf("ascendfit: merged %d training-log samples from %s\n", len(logged), logPath)
		samples = append(samples, logged...)
	}
	if len(samples) == 0 {
		return nil, fmt.Errorf("no training data (corpus disabled and no -log)")
	}
	// Deterministic order regardless of worker scheduling or log
	// interleaving: the 80/20 split is positional.
	sort.SliceStable(samples, func(i, j int) bool {
		if samples[i].Chip != samples[j].Chip {
			return samples[i].Chip < samples[j].Chip
		}
		return samples[i].Name < samples[j].Name
	})
	return samples, nil
}

func train(chipsFlag string, corpus bool, logPath string, lambda float64, outPath string, workers int) error {
	samples, err := gather(chipsFlag, corpus, logPath, workers)
	if err != nil {
		return err
	}
	m, err := surrogate.Fit(samples, lambda)
	if err != nil {
		return err
	}
	if err := m.Save(outPath); err != nil {
		return err
	}
	fmt.Printf("ascendfit: trained on %d samples (%d held out): train MAPE %.4f, eval MAPE %.4f, eval p99 %.4f\n",
		m.TrainCount, m.EvalCount, m.TrainMAPE, m.EvalMAPE, m.EvalP99)
	fmt.Printf("ascendfit: committed bounds: MAPE %.4f, residual %.4f; wrote %s\n",
		m.MAPEBound, m.ResidualBound, outPath)
	return nil
}

func eval(chipsFlag string, corpus bool, logPath, modelPath string, maxMAPE float64, workers int) error {
	m, err := surrogate.LoadModel(modelPath)
	if err != nil {
		return err
	}
	samples, err := gather(chipsFlag, corpus, logPath, workers)
	if err != nil {
		return err
	}
	var accepted int
	var sumErr float64
	errs := make([]float64, 0, len(samples))
	for _, s := range samples {
		est, ok := m.Predict(s.Features)
		if !ok {
			continue
		}
		accepted++
		e := math.Abs(est-s.TotalNS) / s.TotalNS
		sumErr += e
		errs = append(errs, e)
	}
	if accepted == 0 {
		return fmt.Errorf("%s: confidence gate accepted none of %d samples", modelPath, len(samples))
	}
	mape := sumErr / float64(accepted)
	sort.Float64s(errs)
	p99 := errs[(len(errs)-1)*99/100]
	fmt.Printf("ascendfit: %s over %d samples: coverage %.3f (%d accepted), MAPE %.4f, p99 %.4f (bound %.4f)\n",
		modelPath, len(samples), float64(accepted)/float64(len(samples)), accepted, mape, p99, m.MAPEBound)
	bound := maxMAPE
	if bound == 0 {
		bound = m.MAPEBound
	}
	if bound > 0 && mape > bound {
		return fmt.Errorf("accepted-prediction MAPE %.4f exceeds bound %.4f", mape, bound)
	}
	return nil
}
