// Command ascendopt runs the analysis-optimization loop of the paper's
// Fig. 5 workflow on one operator or a whole model workload, printing the
// iteration history and the resulting bottleneck shift.
//
// Usage:
//
//	ascendopt -op depthwise [-chip training|inference] [-tune] [-passes]
//	ascendopt -model PanGu-alpha [-top 10]
//	ascendopt -workload my-model.json
//	ascendopt -model Bert -workers 4 -cache 0   # bound the worker pool,
//	                                            # disable the sim cache
//	ascendopt -search -beam 4 -episodes eps/    # beam-search the kernel
//	                                            # table with episodic memory
//
// With neither flag it lists operators and models.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"

	"ascendperf/internal/cliutil"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/opt"
	"ascendperf/internal/passes"
	"ascendperf/internal/sim"
	"ascendperf/internal/viz"
)

// isaProgram shortens signatures in this file.
type isaProgram = isa.Program

// runPasses applies the program-level transformations to the operator's
// baseline instruction stream and reports the effect of each stage.
func runPasses(chip *hw.Chip, k kernels.Kernel) error {
	prog, err := k.Build(chip, k.Baseline())
	if err != nil {
		return err
	}
	report := func(p *isaProgram) (float64, error) {
		prof, err := sim.RunOpts(chip, p, sim.Options{KeepSpans: true})
		if err != nil {
			return 0, err
		}
		if err := passes.CheckOrdering(chip, p, prof); err != nil {
			return 0, err
		}
		return prof.TotalTime, nil
	}
	t0, err := report(prog)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10.3f us (%d instrs, %d barriers, %d flags)\n",
		prog.Name, t0/1000, prog.Len(), prog.Stat().Barriers, prog.Stat().Syncs)

	minSync, err := passes.MinimalSync(chip, prog)
	if err != nil {
		return err
	}
	t1, err := report(minSync)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10.3f us (%d instrs, %d barriers, %d flags)\n",
		minSync.Name, t1/1000, minSync.Len(), minSync.Stat().Barriers, minSync.Stat().Syncs)

	hoisted, err := passes.HoistLoads(chip, minSync, 0)
	if err != nil {
		return err
	}
	t2, err := report(hoisted)
	if err != nil {
		return err
	}
	fmt.Printf("%-28s %10.3f us\n", hoisted.Name, t2/1000)
	fmt.Printf("pass pipeline speedup: %.2fx\n", t0/t2)
	return nil
}

func main() {
	var (
		opName    = flag.String("op", "", "operator to optimize")
		modelName = flag.String("model", "", "model workload to optimize")
		chipName  = flag.String("chip", "training", "chip preset: training or inference")
		top       = flag.Int("top", 0, "optimize only the N longest-running operator types (0 = all)")
		tune      = flag.Bool("tune", false, "also sweep the operator's tile size after strategy optimization")
		usePasses = flag.Bool("passes", false, "apply the program-level passes (minimal sync, load hoisting) to the operator's baseline instead of rebuilding it")
		workload  = flag.String("workload", "", "optimize a custom workload file instead of a named model")
		htmlPath  = flag.String("html", "", "with -model/-workload: write a self-contained HTML report")
		pipeline  = flag.Bool("pipeline", false, "run the full pipeline: strategies, tile tuning, program passes")
		workers   = flag.Int("workers", 0, "parallel analysis workers (0 = ASCENDPERF_WORKERS or GOMAXPROCS)")
		cacheCap  = flag.Int("cache", engine.DefaultCacheCapacity, "simulation cache capacity in entries (0 disables)")
		search    = flag.Bool("search", false, "tune by beam search (candidates ranked by the critical-path proxy, the best confirmed by exact simulation) instead of the greedy loop; alone it sweeps every registry operator, with -op just that one")
		beam      = flag.Int("beam", opt.DefaultBeam, "with -search: beam width (exact confirmations per generation)")
		budget    = flag.Int("budget", opt.DefaultBudget, "with -search: cap on exact simulations per kernel (0 = unlimited)")
		episodes  = flag.String("episodes", "", "with -search: episodic-memory directory (default ASCENDPERF_EPISODE_DIR); repeat runs warm-start from stored winners")
		jsonPath  = flag.String("json", "", "with -search: write the search report (FORMATS.md §11) as JSON to this path instead of the table (- = stdout)")
		maxFrac   = flag.Float64("maxexactfrac", 0, "with -search: also run the exhaustive reference and fail unless every best matches and search sims <= frac * exhaustive sims (CI parity gate)")
		minWarm   = flag.Float64("minwarmsaving", 0, "with -search -episodes: run the table twice and fail unless the warm pass saves at least this fraction of exact sims (CI warm-start gate)")
		version   = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendopt"))
		return
	}
	engine.SetWorkers(*workers)
	engine.SetCacheCapacity(*cacheCap)
	if *search {
		if err := runSearch(*opName, *chipName, *beam, *budget, *episodes, *jsonPath, *maxFrac, *minWarm); err != nil {
			fmt.Fprintln(os.Stderr, "ascendopt:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*opName, *modelName, *workload, *chipName, *top, *tune, *usePasses, *pipeline, *htmlPath); err != nil {
		fmt.Fprintln(os.Stderr, "ascendopt:", err)
		os.Exit(1)
	}
}

// searchKernels returns the kernels one -search invocation tunes: the
// whole registry in name order, or just -op.
func searchKernels(opName string) ([]kernels.Kernel, error) {
	reg := kernels.Registry()
	if opName != "" {
		k := reg[opName]
		if k == nil {
			return nil, fmt.Errorf("unknown operator %q", opName)
		}
		return []kernels.Kernel{k}, nil
	}
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	ks := make([]kernels.Kernel, len(names))
	for i, n := range names {
		ks[i] = reg[n]
	}
	return ks, nil
}

// searchPass runs one beam-search sweep over ks and assembles the report.
func searchPass(chip *hw.Chip, ks []kernels.Kernel, cfg opt.SearchConfig) (*opt.SearchReport, error) {
	results := make([]*opt.SearchResult, 0, len(ks))
	for _, k := range ks {
		res, err := opt.New(chip).Search(k, cfg)
		if err != nil {
			return nil, fmt.Errorf("search %s: %w", k.Name(), err)
		}
		results = append(results, res)
	}
	return opt.NewSearchReport(chip.Name, cfg, results), nil
}

// runSearch implements -search: beam-search tuning of one operator or
// the whole registry, with optional episodic memory, JSON report
// output, and the two CI gates (-maxexactfrac parity, -minwarmsaving
// warm-start saving).
func runSearch(opName, chipName string, beam, budget int, episodeDir, jsonPath string, maxFrac, minWarm float64) error {
	chip, err := cliutil.ChipByName(chipName)
	if err != nil {
		return err
	}
	cfg := opt.SearchConfig{Beam: beam, Budget: budget}
	if episodeDir != "" {
		store, err := opt.NewEpisodeStore(episodeDir)
		if err != nil {
			return err
		}
		cfg.Episodes = store
	}
	if minWarm > 0 && cfg.Episodes == nil && opt.DefaultEpisodeStore() == nil {
		return fmt.Errorf("-minwarmsaving needs -episodes (or ASCENDPERF_EPISODE_DIR)")
	}
	ks, err := searchKernels(opName)
	if err != nil {
		return err
	}

	report, err := searchPass(chip, ks, cfg)
	if err != nil {
		return err
	}

	if jsonPath != "" {
		data, err := json.MarshalIndent(report, "", "  ")
		if err != nil {
			return err
		}
		if jsonPath == "-" {
			os.Stdout.Write(append(data, '\n'))
		} else {
			if err := os.WriteFile(jsonPath, append(data, '\n'), 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", jsonPath)
		}
	} else {
		fmt.Printf("%-20s %10s %10s %8s %6s %6s %6s  %s\n",
			"kernel", "baseline", "best", "speedup", "sims", "saved", "warm", "strategies")
		for _, r := range report.Kernels {
			warm := ""
			if r.WarmStart {
				warm = "yes"
			}
			fmt.Printf("%-20s %9.2fus %9.2fus %7.2fx %6d %6d %6s  %v\n",
				r.Kernel, r.BaselineNS/1000, r.BestNS/1000, r.Speedup,
				r.ExactSims, r.EvalsSaved, warm, r.Strategies)
		}
		fmt.Printf("total: %d exact sims, %d evals saved, %d proxy-scored, %d warm starts\n",
			report.TotalExactSims, report.TotalEvalsSaved, report.TotalProxyScored, report.WarmStarts)
	}

	if maxFrac > 0 {
		var exhaustiveSims int
		for i, k := range ks {
			want, err := opt.New(chip).ExhaustiveJoint(k)
			if err != nil {
				return fmt.Errorf("exhaustive %s: %w", k.Name(), err)
			}
			got := report.Kernels[i]
			if got.BestNS != want.BestNS || got.BaselineNS != want.BaselineNS {
				return fmt.Errorf("parity gate: %s search best %.3f ns != exhaustive %.3f ns",
					k.Name(), got.BestNS, want.BestNS)
			}
			if !got.WarmStart {
				gs := fmt.Sprint(got.Strategies)
				ws := fmt.Sprint(want.Strategies)
				if gs != ws || got.TileSize != want.TileSize {
					return fmt.Errorf("parity gate: %s search picked %s tile %d, exhaustive %s tile %d",
						k.Name(), gs, got.TileSize, ws, want.TileSize)
				}
			}
			exhaustiveSims += want.ExactSims
		}
		if float64(report.TotalExactSims) > maxFrac*float64(exhaustiveSims) {
			return fmt.Errorf("parity gate: search issued %d exact sims, over %.0f%% of exhaustive %d",
				report.TotalExactSims, maxFrac*100, exhaustiveSims)
		}
		fmt.Printf("parity gate passed: %d search sims <= %.0f%% of %d exhaustive\n",
			report.TotalExactSims, maxFrac*100, exhaustiveSims)
	}

	if minWarm > 0 {
		warm, err := searchPass(chip, ks, cfg)
		if err != nil {
			return err
		}
		if warm.WarmStarts < len(ks) {
			return fmt.Errorf("warm gate: only %d/%d kernels warm-started", warm.WarmStarts, len(ks))
		}
		saved := float64(report.TotalExactSims - warm.TotalExactSims)
		if saved < minWarm*float64(report.TotalExactSims) {
			return fmt.Errorf("warm gate: warm pass issued %d exact sims vs cold %d: saving under %.0f%%",
				warm.TotalExactSims, report.TotalExactSims, minWarm*100)
		}
		fmt.Printf("warm gate passed: %d -> %d exact sims (%.0f%% saved)\n",
			report.TotalExactSims, warm.TotalExactSims, 100*saved/float64(report.TotalExactSims))
	}
	return nil
}

func run(opName, modelName, workloadPath, chipName string, top int, tune, usePasses, pipeline bool, htmlPath string) error {
	chip, err := cliutil.ChipByName(chipName)
	if err != nil {
		return err
	}

	switch {
	case opName != "":
		k := kernels.Registry()[opName]
		if k == nil {
			return fmt.Errorf("unknown operator %q", opName)
		}
		if usePasses {
			return runPasses(chip, k)
		}
		o := opt.New(chip)
		if pipeline {
			res, err := o.FullPipeline(k)
			if err != nil {
				return err
			}
			fmt.Print(res.Summary())
			return nil
		}
		res, err := o.Optimize(k)
		if err != nil {
			return err
		}
		fmt.Print(res.Summary())
		if tune {
			tk, ok := k.(kernels.Tunable)
			if !ok {
				return fmt.Errorf("operator %q has no tunable tile size", opName)
			}
			tr, err := o.TuneTile(tk, res.FinalOptions)
			if err != nil {
				return err
			}
			fmt.Print(tr.Summary())
		}
		return nil

	case modelName != "" || workloadPath != "":
		var m *model.Model
		if workloadPath != "" {
			f, err := os.Open(workloadPath)
			if err != nil {
				return err
			}
			defer f.Close()
			m, err = model.ReadWorkloadNamed(workloadPath, f)
			if err != nil {
				return err
			}
		} else {
			m, err = cliutil.ModelByName(modelName)
			if err != nil {
				return err
			}
		}
		r := model.NewRunner(chip)
		var res *model.RunResult
		var err error
		if top > 0 {
			res, err = r.OptimizeTop(m, top)
		} else {
			res, err = r.Optimize(m)
		}
		if err != nil {
			return err
		}
		fmt.Print(res.Report())
		if htmlPath != "" {
			rep := &viz.ModelHTMLReport{
				Title:  fmt.Sprintf("%s on %s", m.Name, chip.Name),
				Result: res,
			}
			if err := os.WriteFile(htmlPath, []byte(rep.Render()), 0o644); err != nil {
				return err
			}
			fmt.Println("wrote", htmlPath)
		}
		return nil

	default:
		names := make([]string, 0)
		for n := range kernels.Registry() {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("operators:")
		for _, n := range names {
			fmt.Println("  " + n)
		}
		fmt.Println("models:")
		for _, m := range model.Extended() {
			fmt.Printf("  %s (%s, %s)\n", m.Name, m.Type, m.Params)
		}
		return nil
	}
}
