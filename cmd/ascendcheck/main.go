// Command ascendcheck is the simulator's correctness harness. It diffs
// the production scheduler (internal/sim) against a deliberately-naive
// reference scheduler (internal/check) over the full kernel and
// workload corpus, and runs the metamorphic property suite over
// generated programs. Any disagreement is a bug in one of the two
// schedulers; the exit status makes the harness a CI gate.
//
// Usage:
//
//	ascendcheck -kernels all -chips all [-seed N] [-props N]
//	            [-proglen N] [-workers N] [-json report.json] [-v]
//
// -kernels selects operators by name (comma-separated, or "all");
// workload programs are included whenever their operator is selected.
// -props sets how many generated programs each metamorphic property
// checks per chip (0 skips the property suite). -json writes the
// machine-readable report described in FORMATS.md §7.
package main

import (
	"encoding/json"
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

// SchemaReport identifies the JSON report format (FORMATS.md §7).
const SchemaReport = "ascendperf/check-report/v1"

// jsonMismatch is one mismatch in the JSON report.
type jsonMismatch struct {
	Field string  `json:"field"`
	Key   string  `json:"key,omitempty"`
	Index int     `json:"index"`
	Got   float64 `json:"got"`
	Want  float64 `json:"want"`
}

// jsonCase is one differential case in the JSON report.
type jsonCase struct {
	Name         string         `json:"name"`
	Chip         string         `json:"chip"`
	Instructions int            `json:"instructions"`
	OK           bool           `json:"ok"`
	Error        string         `json:"error,omitempty"`
	FirstDiverge int            `json:"first_diverge"`
	Mismatches   []jsonMismatch `json:"mismatches,omitempty"`
}

// jsonProperty is one metamorphic property result in the JSON report.
type jsonProperty struct {
	Chip         string `json:"chip"`
	Name         string `json:"name"`
	Programs     int    `json:"programs"`
	Violations   int    `json:"violations"`
	FirstFailure string `json:"first_failure,omitempty"`
}

// jsonReport is the full ascendcheck report (FORMATS.md §7).
type jsonReport struct {
	Schema     string         `json:"schema"`
	Seed       int64          `json:"seed"`
	Cases      []jsonCase     `json:"cases"`
	Properties []jsonProperty `json:"properties,omitempty"`
	Summary    jsonSummary    `json:"summary"`
}

// jsonSummary aggregates the verdict.
type jsonSummary struct {
	Cases              int  `json:"cases"`
	Diffs              int  `json:"diffs"`
	Errors             int  `json:"errors"`
	PropertyViolations int  `json:"property_violations"`
	OK                 bool `json:"ok"`
}

func main() {
	var (
		kernelsFlag = flag.String("kernels", "all", `operators to diff: comma-separated names, or "all"`)
		chipsFlag   = flag.String("chips", "all", `chip presets: comma-separated (training,inference,tpu), or "all"`)
		seed        = flag.Int64("seed", 1, "base seed for generated metamorphic programs")
		props       = flag.Int("props", 200, "generated programs per metamorphic property per chip (0 skips)")
		progLen     = flag.Int("proglen", 30, "instructions per generated metamorphic program")
		workers     = flag.Int("workers", 0, "parallel differential workers (0 = GOMAXPROCS)")
		jsonPath    = flag.String("json", "", "write the FORMATS.md §7 JSON report to this file")
		verbose     = flag.Bool("v", false, "print every case, not just failures")
		surrogateP  = flag.String("surrogate", "", "surrogate model file: replay the corpus through the learned predictor instead of the differential harness, gating accepted-prediction MAPE and gated-case bit-identity")
		maxMAPE     = flag.Float64("maxmape", 0, "with -surrogate: accepted-prediction MAPE gate (0 = the model's committed bound)")
		version     = flag.Bool("version", false, "print build information and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendcheck"))
		return
	}
	if *surrogateP != "" {
		if err := runSurrogate(*chipsFlag, *surrogateP, *maxMAPE, *workers, *verbose); err != nil {
			fmt.Fprintln(os.Stderr, "ascendcheck:", err)
			os.Exit(1)
		}
		return
	}
	if err := run(*kernelsFlag, *chipsFlag, *seed, *props, *progLen, *workers, *jsonPath, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "ascendcheck:", err)
		os.Exit(1)
	}
}

// runSurrogate is the learned-predictor accuracy harness: install the
// model behind engine.SimulateApprox exactly as ascendd serves it,
// replay every corpus case, and enforce the two-sided contract — every
// gate-rejected case must be served bit-identical to the exact
// simulator (same ticks, same aggregates), and accepted predictions
// must meet the committed MAPE bound.
func runSurrogate(chipsFlag, modelPath string, maxMAPE float64, workers int, verbose bool) error {
	chips, err := selectChips(chipsFlag)
	if err != nil {
		return err
	}
	m, err := surrogate.LoadModel(modelPath)
	if err != nil {
		return err
	}
	engine.SetPredictor(surrogate.NewPredictor(m, ""))
	defer engine.SetPredictor(nil)

	cases := check.Corpus(chips)
	type verdict struct {
		accepted bool
		relErr   float64
	}
	results, err := engine.ParallelMap(workers, len(cases), func(i int) (verdict, error) {
		c := cases[i]
		exact, err := sim.RunOpts(c.Chip, c.Prog, sim.Options{})
		if err != nil {
			return verdict{}, fmt.Errorf("%s: exact sim: %w", c.Name, err)
		}
		served, err := engine.SimulateApprox(c.Chip, c.Prog, sim.Options{})
		if err != nil {
			return verdict{}, fmt.Errorf("%s: serve path: %w", c.Name, err)
		}
		if served.Approx {
			return verdict{accepted: true,
				relErr: math.Abs(served.TotalTime-exact.TotalTime) / exact.TotalTime}, nil
		}
		// Gate rejected: the served result must be the exact simulation,
		// to the tick.
		if served.TotalTime != exact.TotalTime {
			return verdict{}, fmt.Errorf("%s: gated case served TotalTime %v, exact %v",
				c.Name, served.TotalTime, exact.TotalTime)
		}
		for comp, busy := range exact.Busy {
			if served.Busy[comp] != busy {
				return verdict{}, fmt.Errorf("%s: gated case served Busy[%d] %v, exact %v",
					c.Name, comp, served.Busy[comp], busy)
			}
		}
		return verdict{}, nil
	})
	if err != nil {
		return err
	}
	accepted, sumErr, worst := 0, 0.0, 0.0
	for i, v := range results {
		if !v.accepted {
			if verbose {
				fmt.Printf("gated %-40s served exact\n", cases[i].Name)
			}
			continue
		}
		accepted++
		sumErr += v.relErr
		if v.relErr > worst {
			worst = v.relErr
		}
		if verbose {
			fmt.Printf("ok    %-40s relerr %.4f\n", cases[i].Name, v.relErr)
		}
	}
	if accepted == 0 {
		return fmt.Errorf("surrogate gate accepted none of %d cases", len(cases))
	}
	mape := sumErr / float64(accepted)
	bound := maxMAPE
	if bound == 0 {
		bound = m.MAPEBound
	}
	fmt.Printf("ascendcheck: surrogate over %d cases: %d predicted (coverage %.3f), %d served exact; MAPE %.4f, worst %.4f (bound %.4f)\n",
		len(cases), accepted, float64(accepted)/float64(len(cases)), len(cases)-accepted, mape, worst, bound)
	if mape > bound {
		return fmt.Errorf("accepted-prediction MAPE %.4f exceeds bound %.4f", mape, bound)
	}
	return nil
}

// selectChips resolves the -chips flag into named presets.
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

func run(kernelsFlag, chipsFlag string, seed int64, props, progLen, workers int, jsonPath string, verbose bool) error {
	chips, err := selectChips(chipsFlag)
	if err != nil {
		return err
	}
	cases := check.Corpus(chips)
	if kernelsFlag != "all" {
		want := map[string]bool{}
		for _, n := range strings.Split(kernelsFlag, ",") {
			want[strings.TrimSpace(n)] = true
		}
		var kept []check.Case
		for _, c := range cases {
			if want[c.Kernel] {
				kept = append(kept, c)
			}
		}
		if len(kept) == 0 {
			return fmt.Errorf("no corpus cases match -kernels %q", kernelsFlag)
		}
		cases = kept
	}

	report := jsonReport{Schema: SchemaReport, Seed: seed}
	results, err := engine.ParallelMap(workers, len(cases), func(i int) (*check.Report, error) {
		rep, err := check.Check(cases[i].Chip, cases[i].Prog)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", cases[i].Name, err)
		}
		return rep, nil
	})
	if err != nil {
		// An execution error (not a diff) on any case fails the harness,
		// but still counts in the report below when -json is set.
		report.Summary.Errors++
		fmt.Fprintln(os.Stderr, "ascendcheck:", err)
	}
	for i, c := range cases {
		jc := jsonCase{Name: c.Name, Chip: c.ChipName, Instructions: len(c.Prog.Instrs), FirstDiverge: -1}
		rep := results[i]
		switch {
		case rep == nil:
			jc.OK = false
			jc.Error = "execution failed"
		default:
			jc.OK = rep.OK()
			jc.FirstDiverge = rep.FirstDiverge
			for _, m := range rep.Mismatches {
				jc.Mismatches = append(jc.Mismatches, jsonMismatch{
					Field: m.Field, Key: m.Key, Index: m.Index, Got: m.Got, Want: m.Want,
				})
			}
			if !jc.OK {
				report.Summary.Diffs++
				fmt.Print(rep.String())
			}
		}
		if verbose && jc.OK {
			fmt.Printf("ok   %-40s %4d instrs\n", jc.Name, jc.Instructions)
		}
		report.Cases = append(report.Cases, jc)
	}
	report.Summary.Cases = len(cases)

	if props > 0 {
		chipNames := make([]string, 0, len(chips))
		for n := range chips {
			chipNames = append(chipNames, n)
		}
		sort.Strings(chipNames)
		for _, cn := range chipNames {
			programs, violations, first := check.RunProperties(chips[cn], seed, props, progLen)
			for _, prop := range check.Properties() {
				jp := jsonProperty{
					Chip: cn, Name: prop.Name, Programs: programs,
					Violations: violations[prop.Name], FirstFailure: first[prop.Name],
				}
				report.Properties = append(report.Properties, jp)
				report.Summary.PropertyViolations += jp.Violations
				if jp.Violations > 0 {
					fmt.Printf("property %s on %s: %d/%d programs violate; first: %s\n",
						jp.Name, cn, jp.Violations, jp.Programs, jp.FirstFailure)
				} else if verbose {
					fmt.Printf("ok   property %-24s on %-10s %4d programs\n", jp.Name, cn, jp.Programs)
				}
			}
		}
	}

	report.Summary.OK = report.Summary.Diffs == 0 &&
		report.Summary.Errors == 0 && report.Summary.PropertyViolations == 0
	if jsonPath != "" {
		f, err := os.Create(jsonPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(&report); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Println("wrote", jsonPath)
	}
	fmt.Printf("ascendcheck: %d cases, %d diffs, %d errors, %d property violations\n",
		report.Summary.Cases, report.Summary.Diffs, report.Summary.Errors, report.Summary.PropertyViolations)
	if !report.Summary.OK {
		return fmt.Errorf("harness found disagreements")
	}
	return nil
}
