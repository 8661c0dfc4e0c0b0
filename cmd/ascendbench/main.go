// Command ascendbench regenerates the paper's evaluation tables and
// figures as text reports, with the paper's reported values printed
// alongside the measured ones.
//
// Usage:
//
//	ascendbench                 # everything
//	ascendbench -exp fig7       # one experiment
//	ascendbench -exp list       # list experiment ids
//	ascendbench -svg fig6.svg   # also write the Fig. 6 roofline SVG
//	ascendbench -workers 4      # bound the analysis worker pool
//	ascendbench -cache 0        # disable the simulation cache
//	ascendbench -json BENCH_engine.json
//	                            # benchmark the engine: serial vs
//	                            # parallel vs cached multi-workload
//	                            # analysis, written as JSON (schema in
//	                            # FORMATS.md §5)
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"ascendperf/internal/check"
	"ascendperf/internal/cliutil"
	"ascendperf/internal/engine"
	"ascendperf/internal/experiments"
	"ascendperf/internal/hw"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/opt"
	"ascendperf/internal/sim"
	"ascendperf/internal/surrogate"
)

var runners = []struct {
	id  string
	run func() string
}{
	{"fig2", experiments.Fig2},
	{"fig3", func() string { _, s := experiments.Fig3(); return s }},
	{"fig4", experiments.Fig4},
	{"fig6", func() string { _, s := experiments.Fig6(); return s }},
	{"fig7", func() string { _, s := experiments.Fig7(); return s }},
	{"fig12", experiments.Fig12},
	{"table1", func() string { _, s := experiments.Table1(); return s }},
	{"sec5", func() string { _, s := experiments.CaseStudies(); return s }},
	{"table2", experiments.Table2},
	{"fig13", func() string { _, s := experiments.Fig13(); return s }},
	{"fig14a", func() string { _, s := experiments.Fig14a(); return s }},
	{"fig14b", func() string { _, s := experiments.Fig14b(); return s }},
	{"fig14c", experiments.Fig14c},
	{"fig15", func() string { _, s := experiments.Fig15(); return s }},
	{"ext-ert", experiments.ExtERT},
	{"ext-multicore", experiments.ExtMulticore},
	{"ext-queuedepth", experiments.ExtQueueDepth},
	{"ext-shapesweep", experiments.ExtShapeSweep},
	{"ext-pipeline", func() string { _, s := experiments.ExtPipeline(); return s }},
}

func main() {
	var (
		exp      = flag.String("exp", "all", "experiment id (or 'all', 'list')")
		svgPath  = flag.String("svg", "", "write the Fig. 6 roofline chart as SVG to this path")
		workers  = flag.Int("workers", 0, "parallel analysis workers (0 = ASCENDPERF_WORKERS or GOMAXPROCS)")
		cacheCap = flag.Int("cache", engine.DefaultCacheCapacity, "simulation cache capacity in entries (0 disables)")
		jsonPath = flag.String("json", "", "benchmark the execution engine (worker sweep, parallel and cached passes) and write the timing comparison as JSON to this path")
		surrPath = flag.String("surrogate", "", "with -json: also evaluate this learned surrogate model over the differential corpus and record learned-vs-exact error stats")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the workload to this path (inspect with go tool pprof)")
		mtxProf  = flag.String("mutexprofile", "", "write a mutex-contention profile of the workload to this path")
		minScale = flag.Float64("minscaling", 0, "with -json: fail unless the workers=4 sweep point reaches this speedup over workers=1 (0 disables; the CI parallel-scaling gate)")
		version  = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendbench"))
		return
	}
	engine.SetWorkers(*workers)
	engine.SetCacheCapacity(*cacheCap)
	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ascendbench:", err)
			os.Exit(1)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "ascendbench:", err)
			os.Exit(1)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	if *mtxProf != "" {
		// Sample every fifth contention event; the default of 0 records
		// nothing.
		runtime.SetMutexProfileFraction(5)
		defer func() {
			f, err := os.Create(*mtxProf)
			if err != nil {
				fmt.Fprintln(os.Stderr, "ascendbench:", err)
				return
			}
			defer f.Close()
			if err := pprof.Lookup("mutex").WriteTo(f, 0); err != nil {
				fmt.Fprintln(os.Stderr, "ascendbench:", err)
			}
		}()
	}
	if *jsonPath != "" {
		if err := benchEngine(*jsonPath, *minScale, *surrPath); err != nil {
			fmt.Fprintln(os.Stderr, "ascendbench:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*exp, *svgPath); err != nil {
		fmt.Fprintln(os.Stderr, "ascendbench:", err)
		os.Exit(1)
	}
}

// engineBench is the BENCH_engine.json record: the wall-clock of the
// same multi-workload analysis (all Table 2 models) swept over worker
// counts, run in parallel against a warm simulation cache, plus the
// cache counters of the cached pass and of an iterative optimize
// loop, and the scheduler core's event counters over the whole
// benchmark. FORMATS.md §5 documents the
// schema; the file is a trajectory point for tracking the engine
// speedup across revisions.
//
// Schema v2: Workers records the worker count the parallel pass
// actually resolved at run time (v1 sampled engine.Workers() at record
// setup, before the passes ran, so a worker override applied between
// setup and measurement was misreported); adds the disk_* and sched_*
// counter fields.
//
// Schema v3: adds the worker_sweep array (wall clock per worker count
// over 1, 2, 4 and GOMAXPROCS) and the deterministic flag (every sweep
// pass rendered byte-identical reports). All timed simulation passes
// now run after one untimed warm-up pass, so the memoized program
// builds and validations warm once instead of being charged to
// whichever pass ran first (v2 charged them to the serial pass, which
// inflated parallel_speedup).
//
// Schema v4: adds optimize_deduped (structurally identical optimize
// candidates coalesced onto one simulation by program fingerprint) and,
// when -surrogate names a model, the surrogate_* block: learned-vs-exact
// coverage, MAPE, p99 relative error and mean predict latency over the
// differential corpus.
//
// Schema v5: adds the search_* block — a cold beam search over the full
// operator registry against the exhaustive joint reference: the exact
// simulations each issued, the fraction the search saved, and whether
// every per-kernel best time matched (search_parity).
//
// Schema v6: drops optimize_deduped. The optimizer's private
// fingerprint memo is gone; the engine cache coalesces concurrent
// misses instead, so the candidates it used to absorb now count in
// optimize_cache_hits.
//
// Schema v7: the shared BENCH header (cliutil.BenchHeader) adds cores,
// gomaxprocs, seed (always 0: the workload is fixed) and command.
//
// Schema v8: drops the two disk counters with the disk simulation
// cache they counted.
//
// Schema v9: drops sched_pool_hits and sched_pool_misses. They count
// sync.Pool reuse of scheduler states, which moves with GC timing, so a
// diff of two records reported noise as a change; /v1/stats and
// /metrics still carry them.
type engineBench struct {
	cliutil.BenchHeader
	Workloads       int     `json:"workloads"`
	Operators       int     `json:"operators"`
	Workers         int     `json:"workers"`
	SerialNS        int64   `json:"serial_ns"`
	ParallelNS      int64   `json:"parallel_ns"`
	CachedNS        int64   `json:"cached_ns"`
	ParallelSpeedup float64 `json:"parallel_speedup"`
	CachedSpeedup   float64 `json:"cached_speedup"`

	// Sweep is the worker-count sweep: the same uncached multi-workload
	// analysis at each worker count. Deterministic reports whether every
	// sweep pass rendered a byte-identical result report.
	Sweep         []sweepPoint `json:"worker_sweep"`
	Deterministic bool         `json:"deterministic"`

	CacheHits       uint64  `json:"cache_hits"`
	CacheMisses     uint64  `json:"cache_misses"`
	CacheEvictions  uint64  `json:"cache_evictions"`
	CacheHitRate    float64 `json:"cache_hit_rate"`
	OptimizeHits    uint64  `json:"optimize_cache_hits"`
	OptimizeHitRate float64 `json:"optimize_cache_hit_rate"`

	// Learned-surrogate evaluation over the differential corpus (only
	// with -surrogate; see FORMATS.md §10.3).
	SurrogateModel     string  `json:"surrogate_model,omitempty"`
	SurrogateCoverage  float64 `json:"surrogate_coverage,omitempty"`
	SurrogateMAPE      float64 `json:"surrogate_mape,omitempty"`
	SurrogateP99       float64 `json:"surrogate_p99_rel_err,omitempty"`
	SurrogatePredictNS float64 `json:"surrogate_predict_ns,omitempty"`

	// Beam-search evaluation over the full operator registry (schema
	// v5): the cold search's exact-simulation bill vs the exhaustive
	// joint reference and whether every per-kernel best time matched.
	SearchExactSims      int     `json:"search_exact_sims"`
	SearchExhaustiveSims int     `json:"search_exhaustive_sims"`
	SearchEvalsSaved     int     `json:"search_evals_saved"`
	SearchSavedFrac      float64 `json:"search_evals_saved_frac"`
	SearchParity         bool    `json:"search_parity"`

	// Scheduler core counters accumulated across every simulation of
	// this benchmark (see sim.Counters).
	SchedRuns          uint64 `json:"sched_runs"`
	SchedEvents        uint64 `json:"sched_events"`
	SchedStarts        uint64 `json:"sched_starts"`
	SchedEligChecks    uint64 `json:"sched_elig_checks"`
	SchedWakes         uint64 `json:"sched_wakes"`
	SchedRescanAvoided uint64 `json:"sched_rescan_checks_avoided"`
}

// sweepPoint is one worker count's measurement in the sweep.
type sweepPoint struct {
	Workers int   `json:"workers"`
	NS      int64 `json:"ns"`
	// Speedup is the serial (workers=1) time divided by this point's
	// time.
	Speedup float64 `json:"speedup"`
}

// benchEngine times the analysis of every Table 2 workload — uncached
// at a sweep of worker counts, then in parallel against a warm
// simulation cache — and writes the comparison to path. A positive
// minScaling turns the sweep into a gate: the workers=4 point must
// reach that speedup over workers=1.
func benchEngine(path string, minScaling float64, surrPath string) error {
	chip := hw.TrainingChip()
	models := model.All()
	sched0 := sim.ReadCounters()
	// analyze reports the wall clock, the worker count it actually
	// resolved (so the record describes the measured run, not the
	// configuration at record-setup time), and the rendered reports of
	// every workload, which the sweep compares byte-for-byte across
	// worker counts. Every pass shares one runner, and with it the
	// runner's build memo, so the passes time analysis, not program
	// construction.
	runner := model.NewRunner(chip)
	analyze := func(workers int) (time.Duration, int, string, error) {
		runner.Workers = workers
		resolved := workers
		if resolved <= 0 {
			resolved = engine.Workers()
		}
		start := time.Now()
		results, err := runner.RunAll(models)
		elapsed := time.Since(start)
		if err != nil {
			return 0, 0, "", err
		}
		var b strings.Builder
		for _, res := range results {
			b.WriteString(res.Report())
		}
		return elapsed, resolved, b.String(), nil
	}

	rec := engineBench{
		BenchHeader: cliutil.NewBenchHeader("ascendperf/bench-engine/v9", chip.Name, 0),
		Workloads:   len(models),
	}
	for _, m := range models {
		rec.Operators += len(m.Ops)
	}

	// The sweep passes run uncached, so they time raw simulation
	// throughput at each worker count.
	resolvedDefault := engine.Workers()
	engine.SetCacheCapacity(0)
	sweepErr := func() error {
		// One untimed warm-up pass: program builds, fingerprint memos and
		// scheduler-state pools warm here, so every timed pass measures
		// the same steady state instead of the first pass absorbing the
		// one-time costs.
		if _, _, _, err := analyze(1); err != nil {
			return err
		}

		// Worker counts: 1, 2, 4 and the machine width, deduplicated.
		counts := []int{1, 2, 4, resolvedDefault}
		sort.Ints(counts)
		seen := map[int]bool{}
		var reference string
		rec.Deterministic = true
		for _, w := range counts {
			if w < 1 || seen[w] {
				continue
			}
			seen[w] = true
			elapsed, _, report, err := analyze(w)
			if err != nil {
				return err
			}
			if reference == "" {
				reference = report
			} else if report != reference {
				rec.Deterministic = false
			}
			rec.Sweep = append(rec.Sweep, sweepPoint{Workers: w, NS: elapsed.Nanoseconds()})
		}
		return nil
	}()
	if sweepErr != nil {
		return sweepErr
	}
	if !rec.Deterministic {
		return fmt.Errorf("worker sweep produced diverging reports across worker counts")
	}
	serialNS := rec.Sweep[0].NS
	for i := range rec.Sweep {
		if rec.Sweep[i].NS > 0 {
			rec.Sweep[i].Speedup = float64(serialNS) / float64(rec.Sweep[i].NS)
		}
	}
	if minScaling > 0 {
		for _, pt := range rec.Sweep {
			if pt.Workers == 4 && pt.Speedup < minScaling {
				return fmt.Errorf("parallel scaling gate: workers=4 speedup %.2fx below the %.2fx floor", pt.Speedup, minScaling)
			}
		}
	}
	serial := time.Duration(serialNS)
	// The headline parallel pass is the sweep point at the resolved
	// default worker count (always present in the sweep).
	parallel := serial
	rec.Workers = 1
	for _, pt := range rec.Sweep {
		if pt.Workers == resolvedDefault {
			parallel = time.Duration(pt.NS)
			rec.Workers = pt.Workers
		}
	}

	// The cached pass runs against a freshly warmed cache: one warming
	// pass (all misses), then the measured pass (all hits).
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	if _, _, _, err := analyze(0); err != nil {
		return err
	}
	cached, _, _, err := analyze(0)
	if err != nil {
		return err
	}
	stats := engine.DefaultCache().Stats()

	// The iterative analyze→optimize cycle (Fig. 5) on the first
	// workload, against a fresh cache: the optimize pass re-simulates
	// every baseline the analyze pass already ran, so its hit count
	// measures how much the cycle reuses simulations.
	engine.SetCacheCapacity(engine.DefaultCacheCapacity)
	r := model.NewRunner(chip)
	if _, err := r.Run(models[0]); err != nil {
		return err
	}
	if _, err := r.Optimize(models[0]); err != nil {
		return err
	}
	optStats := engine.DefaultCache().Stats()

	rec.SerialNS = serial.Nanoseconds()
	rec.ParallelNS = parallel.Nanoseconds()
	rec.CachedNS = cached.Nanoseconds()
	if parallel > 0 {
		rec.ParallelSpeedup = float64(serial) / float64(parallel)
	}
	if cached > 0 {
		rec.CachedSpeedup = float64(serial) / float64(cached)
	}
	rec.CacheHits = stats.Hits
	rec.CacheMisses = stats.Misses
	rec.CacheEvictions = stats.Evictions
	rec.CacheHitRate = stats.HitRate()
	rec.OptimizeHits = optStats.Hits
	rec.OptimizeHitRate = optStats.HitRate()
	sched := sim.ReadCounters()
	rec.SchedRuns = sched.Runs - sched0.Runs
	rec.SchedEvents = sched.Events - sched0.Events
	rec.SchedStarts = sched.Starts - sched0.Starts
	rec.SchedEligChecks = sched.EligChecks - sched0.EligChecks
	rec.SchedWakes = sched.Wakes - sched0.Wakes
	rec.SchedRescanAvoided = sched.RescanChecksAvoided - sched0.RescanChecksAvoided

	if surrPath != "" {
		if err := benchSurrogate(&rec, chip, surrPath); err != nil {
			return err
		}
	}
	if err := benchSearch(&rec, chip); err != nil {
		return err
	}

	out, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("engine benchmark: %d workloads (%d operators) on %s, %d workers\n",
		rec.Workloads, rec.Operators, rec.Chip, rec.Workers)
	for _, pt := range rec.Sweep {
		fmt.Printf("  workers=%-3d %12s  (%.2fx)\n", pt.Workers, time.Duration(pt.NS), pt.Speedup)
	}
	fmt.Printf("  cached   %12s  (%.2fx, hit rate %.1f%%)\n", cached, rec.CachedSpeedup, 100*rec.CacheHitRate)
	fmt.Printf("  optimize loop cache hit rate %.1f%% (%d hits)\n",
		100*rec.OptimizeHitRate, rec.OptimizeHits)
	if rec.SurrogateModel != "" {
		fmt.Printf("  surrogate %s: coverage %.1f%%, MAPE %.4f, p99 %.4f, %.0f ns/predict\n",
			rec.SurrogateModel, 100*rec.SurrogateCoverage, rec.SurrogateMAPE, rec.SurrogateP99, rec.SurrogatePredictNS)
	}
	fmt.Printf("  search %d exact sims vs exhaustive %d (%.1f%% saved, parity %v)\n",
		rec.SearchExactSims, rec.SearchExhaustiveSims, 100*rec.SearchSavedFrac, rec.SearchParity)
	fmt.Println("  sweep reports byte-identical across worker counts")
	fmt.Println("wrote", path)
	return nil
}

// benchSurrogate fills the surrogate_* block: learned-vs-exact error
// over the full differential corpus (all three chips, exact makespans
// through the cached engine) and the mean predict-call latency over the
// accepted cases.
func benchSurrogate(rec *engineBench, _ *hw.Chip, surrPath string) error {
	m, err := surrogate.LoadModel(surrPath)
	if err != nil {
		return err
	}
	chips := map[string]*hw.Chip{
		"training":  hw.TrainingChip(),
		"inference": hw.InferenceChip(),
		"tpu":       hw.TPUStyleChip(),
	}
	cases := check.Corpus(chips)
	features := make([][]float64, len(cases))
	var accepted int
	var sumErr float64
	var errs []float64
	for i, c := range cases {
		exact, err := engine.Simulate(c.Chip, c.Prog, sim.Options{})
		if err != nil {
			return fmt.Errorf("surrogate bench %s: %w", c.Name, err)
		}
		features[i] = surrogate.Extract(c.Chip, c.Prog)
		est, ok := m.Predict(features[i])
		if !ok {
			continue
		}
		accepted++
		e := absFloat(est-exact.TotalTime) / exact.TotalTime
		sumErr += e
		errs = append(errs, e)
	}
	rec.SurrogateModel = surrPath
	rec.SurrogateCoverage = float64(accepted) / float64(len(cases))
	if accepted > 0 {
		rec.SurrogateMAPE = sumErr / float64(accepted)
		sort.Float64s(errs)
		rec.SurrogateP99 = errs[(len(errs)-1)*99/100]
	}
	// Predict latency: every corpus feature vector, round-robin, enough
	// iterations to dwarf timer granularity.
	const iters = 50000
	start := time.Now()
	for i := 0; i < iters; i++ {
		m.Predict(features[i%len(features)])
	}
	rec.SurrogatePredictNS = float64(time.Since(start).Nanoseconds()) / iters
	return nil
}

// benchSearch fills the search_* block: a cold beam search over every
// registry operator at default beam and budget, against the exhaustive
// joint reference, comparing both the exact-simulation bill and every
// per-kernel best time.
func benchSearch(rec *engineBench, chip *hw.Chip) error {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	rec.SearchParity = true
	for _, n := range names {
		k := reg[n]
		got, err := opt.New(chip).Search(k, opt.SearchConfig{})
		if err != nil {
			return fmt.Errorf("search bench %s: %w", n, err)
		}
		want, err := opt.New(chip).ExhaustiveJoint(k)
		if err != nil {
			return fmt.Errorf("search bench %s: %w", n, err)
		}
		if got.BestNS != want.BestNS {
			rec.SearchParity = false
		}
		rec.SearchExactSims += got.ExactSims
		rec.SearchExhaustiveSims += want.ExactSims
		rec.SearchEvalsSaved += got.EvalsSaved
	}
	if rec.SearchExhaustiveSims > 0 {
		rec.SearchSavedFrac = 1 - float64(rec.SearchExactSims)/float64(rec.SearchExhaustiveSims)
	}
	return nil
}

func absFloat(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}

func run(exp, svgPath string) error {
	if svgPath != "" {
		svg, _ := experiments.Fig6()
		if err := os.WriteFile(svgPath, []byte(svg), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", svgPath)
	}
	switch exp {
	case "list":
		for _, r := range runners {
			fmt.Println(r.id)
		}
		return nil
	case "all":
		fmt.Print(experiments.All())
		fmt.Println()
		fmt.Print(experiments.AllExtensions())
		return nil
	default:
		for _, r := range runners {
			if r.id == exp {
				fmt.Print(r.run())
				return nil
			}
		}
		return fmt.Errorf("unknown experiment %q (use -exp list)", exp)
	}
}
