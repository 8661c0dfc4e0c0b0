// Command ascendprof profiles one operator on the simulated AICore and
// prints its component-based roofline analysis: the msprof-equivalent of
// the toolkit.
//
// Usage:
//
//	ascendprof -op add_relu [-chip training|inference|tpu] [-optimized]
//	           [-timeline] [-naive] [-critpath] [-trace out.json]
//	           [-metrics] [-metricsjson m.json] [-csv out.csv] [-disasm]
//	           [-save profile.json] [-html report.html] [-svg roofline.svg]
//	           [-cache N]
//	ascendprof -analyze profile.json [-diff other.json] [-chip ...]
//	ascendprof -asm program.txt [-chip ...]
//	ascendprof -checktrace trace.json
//
// With no -op it lists the available operators. -trace emits a
// Perfetto/chrome://tracing timeline (FORMATS.md §6) with one track per
// component queue, flow arrows for flag dependencies and the critical
// path highlighted; -metrics prints the per-component
// busy/wait/idle decomposition; -svg writes the component-based
// roofline chart (Fig. 6/7 style) as a standalone SVG document;
// -checktrace validates an emitted trace against the schema.
// Simulations run through the internal/engine memoization cache; span
// retention (KeepSpans) is part of the cache key, so traced runs never
// force span storage onto untraced ones.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strconv"
	"strings"

	"ascendperf/internal/cliutil"
	"ascendperf/internal/core"
	"ascendperf/internal/critpath"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/multicore"
	"ascendperf/internal/profile"
	"ascendperf/internal/sim"
	"ascendperf/internal/sweep"
	"ascendperf/internal/trace"
	"ascendperf/internal/viz"
)

// runOpts bundles the single-run flag set of the main profiling path.
type runOpts struct {
	op, asm, chip                          string
	optimized, timeline, naive             bool
	disasm, critPath, metrics              bool
	tracePath, csvPath, savePath, htmlPath string
	metricsJSON, svgPath                   string
}

func main() {
	var (
		o          runOpts
		dumpChip   = flag.String("dumpchip", "", "write the selected chip specification as JSON and exit")
		sweepStr   = flag.String("sweep", "", "comma-separated work scales: print a shape sweep instead of a single profile (e.g. 0.25,1,4)")
		loadPath   = flag.String("analyze", "", "analyze a previously saved profile JSON instead of simulating")
		diffPath   = flag.String("diff", "", "with -analyze: compare against a second saved profile")
		checkTrace = flag.String("checktrace", "", "validate a trace JSON file against the FORMATS.md §6 schema and exit")
		cacheSize  = flag.Int("cache", engine.DefaultCacheCapacity, "simulation cache capacity in entries (0 disables)")
		version    = flag.Bool("version", false, "print build information and exit")
	)
	flag.StringVar(&o.op, "op", "", "operator name (empty lists all)")
	flag.StringVar(&o.chip, "chip", "training", "chip preset (training, inference, tpu) or a chip-spec JSON file")
	flag.BoolVar(&o.optimized, "optimized", false, "build the fully optimized variant instead of the shipped baseline")
	flag.BoolVar(&o.timeline, "timeline", false, "print the ASCII pipeline timeline")
	flag.BoolVar(&o.naive, "naive", false, "also print the naive per-pair roofline for comparison")
	flag.StringVar(&o.tracePath, "trace", "", "write a Perfetto/Chrome trace-event JSON timeline")
	flag.StringVar(&o.csvPath, "csv", "", "write the span timeline as CSV")
	flag.BoolVar(&o.disasm, "disasm", false, "print the generated instruction stream")
	flag.BoolVar(&o.critPath, "critpath", false, "print the critical-path decomposition")
	flag.BoolVar(&o.metrics, "metrics", false, "print the per-component metrics report (busy/wait/idle attribution)")
	flag.StringVar(&o.metricsJSON, "metricsjson", "", "write the per-component metrics report as JSON")
	flag.StringVar(&o.savePath, "save", "", "write the raw profile as JSON for offline analysis")
	flag.StringVar(&o.htmlPath, "html", "", "write a self-contained HTML report")
	flag.StringVar(&o.svgPath, "svg", "", "write the component-based roofline chart as an SVG document")
	flag.StringVar(&o.asm, "asm", "", "profile a hand-written program file (Disassemble format) instead of a library operator")
	flag.Parse()
	if *version {
		fmt.Println(cliutil.BuildInfo("ascendprof"))
		return
	}
	engine.SetCacheCapacity(*cacheSize)
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "ascendprof:", err)
		os.Exit(1)
	}
	switch {
	case *checkTrace != "":
		if err := validateTraceFile(*checkTrace); err != nil {
			fail(err)
		}
	case *dumpChip != "":
		if err := writeChipSpec(o.chip, *dumpChip); err != nil {
			fail(err)
		}
	case *loadPath != "":
		if err := analyzeSaved(*loadPath, *diffPath, o.chip); err != nil {
			fail(err)
		}
	case *sweepStr != "":
		if err := runSweep(o.op, o.chip, o.optimized, *sweepStr); err != nil {
			fail(err)
		}
	default:
		if err := run(o); err != nil {
			fail(err)
		}
	}
}

// validateTraceFile checks an emitted trace against the schema.
func validateTraceFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := trace.Validate(f); err != nil {
		return err
	}
	fmt.Printf("%s: valid %s\n", path, trace.SchemaTrace)
	return nil
}

// runSweep prints a shape sweep of the operator.
func runSweep(opName, chipName string, optimized bool, scalesStr string) error {
	chip, err := chipByName(chipName)
	if err != nil {
		return err
	}
	k := kernels.Registry()[opName]
	if k == nil {
		return fmt.Errorf("unknown operator %q", opName)
	}
	pk, ok := k.(multicore.Partitionable)
	if !ok {
		return fmt.Errorf("operator %q has no sweepable work units", opName)
	}
	var scales []float64
	for _, part := range strings.Split(scalesStr, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			return fmt.Errorf("bad scale %q", part)
		}
		scales = append(scales, v)
	}
	opts := k.Baseline()
	if optimized {
		opts = kernels.FullyOptimized(k)
	}
	res, err := sweep.Run(chip, pk, opts, scales)
	if err != nil {
		return err
	}
	fmt.Print(res.Format())
	return nil
}

// writeChipSpec dumps a chip preset as an editable JSON spec.
func writeChipSpec(chipName, outPath string) error {
	chip, err := chipByName(chipName)
	if err != nil {
		return err
	}
	f, err := os.Create(outPath)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := chip.WriteJSON(f); err != nil {
		return err
	}
	fmt.Println("wrote", outPath)
	return nil
}

// analyzeSaved re-analyzes a stored profile offline, the decoupled
// workflow of collecting on one machine and analyzing on another. With a
// diff path it compares two saved profiles across an optimization
// iteration.
func analyzeSaved(path, diffPath, chipName string) error {
	chip, err := chipByName(chipName)
	if err != nil {
		return err
	}
	load := func(path string) (*profile.Profile, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return profile.ReadJSON(f)
	}
	p, err := load(path)
	if err != nil {
		return err
	}
	a := core.Analyze(p, chip, core.DefaultThresholds())
	if diffPath == "" {
		fmt.Print(p.Summary())
		fmt.Print(a.Report())
		return nil
	}
	q, err := load(diffPath)
	if err != nil {
		return err
	}
	b := core.Analyze(q, chip, core.DefaultThresholds())
	fmt.Print(core.Diff(a, b).Report())
	return nil
}

// chipByName resolves a preset name or loads a chip-specification file.
func chipByName(name string) (*hw.Chip, error) {
	return cliutil.ChipByName(name)
}

// needSpans reports whether any requested output requires the full
// per-instruction span timeline. Plain roofline analysis does not, so
// it simulates with KeepSpans off — cheaper, and cache-compatible with
// every other span-less run of the same (chip, program).
func (o runOpts) needSpans() bool {
	return o.timeline || o.critPath || o.metrics ||
		o.tracePath != "" || o.csvPath != "" || o.savePath != "" ||
		o.htmlPath != "" || o.metricsJSON != ""
}

// writeFile creates path, streams write into it and reports the path on
// success.
func writeFile(path string, write func(w io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := write(f); err != nil {
		return err
	}
	fmt.Println("wrote", path)
	return nil
}

func run(o runOpts) error {
	reg := kernels.Registry()
	if o.op == "" && o.asm == "" {
		names := make([]string, 0, len(reg))
		for n := range reg {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Println("available operators:")
		for _, n := range names {
			fmt.Println("  " + n)
		}
		return nil
	}
	chip, err := chipByName(o.chip)
	if err != nil {
		return err
	}
	var prog *isa.Program
	if o.asm != "" {
		f, err := os.Open(o.asm)
		if err != nil {
			return err
		}
		defer f.Close()
		prog, err = isa.Parse(o.asm, f)
		if err != nil {
			return err
		}
		if err := prog.Validate(chip); err != nil {
			return err
		}
	} else {
		k := reg[o.op]
		if k == nil {
			return fmt.Errorf("unknown operator %q (run without -op to list)", o.op)
		}
		opts := k.Baseline()
		if o.optimized {
			opts = kernels.FullyOptimized(k)
		}
		prog, err = k.Build(chip, opts)
		if err != nil {
			return err
		}
	}
	if o.disasm {
		fmt.Print(prog.Disassemble())
	}
	p, err := engine.Simulate(chip, prog, sim.Options{KeepSpans: o.needSpans()})
	if err != nil {
		return err
	}
	fmt.Print(p.Summary())
	a := core.Analyze(p, chip, core.DefaultThresholds())
	fmt.Print(a.Report())
	if o.naive {
		fmt.Print(core.NaiveAnalyze(p, chip).Report())
	}
	if o.timeline {
		fmt.Print(viz.Timeline(p, 120))
	}
	// The critical path feeds the -critpath report, the trace overlay
	// and the HTML report; compute it once.
	var cp *critpath.Analysis
	if o.critPath || o.tracePath != "" || o.htmlPath != "" {
		cp, err = critpath.Compute(chip, prog, p)
		if err != nil {
			return err
		}
	}
	if o.critPath {
		fmt.Print(cp.Report())
	}
	if o.metrics || o.metricsJSON != "" {
		m, err := trace.ComputeMetrics(chip, prog, p)
		if err != nil {
			return err
		}
		if o.metrics {
			fmt.Print(m.Report())
		}
		if o.metricsJSON != "" {
			if err := writeFile(o.metricsJSON, m.WriteJSON); err != nil {
				return err
			}
		}
	}
	if o.tracePath != "" {
		err := writeFile(o.tracePath, func(w io.Writer) error {
			return trace.Write(w, chip, prog, p, trace.Options{CritPath: cp})
		})
		if err != nil {
			return err
		}
	}
	if o.csvPath != "" {
		if err := writeFile(o.csvPath, p.WriteCSV); err != nil {
			return err
		}
	}
	if o.savePath != "" {
		if err := writeFile(o.savePath, p.WriteJSON); err != nil {
			return err
		}
	}
	if o.htmlPath != "" {
		rep := &viz.HTMLReport{
			Title:    fmt.Sprintf("%s on %s", prog.Name, chip.Name),
			Analysis: a, Profile: p, CritPath: cp,
		}
		if err := os.WriteFile(o.htmlPath, []byte(rep.Render()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", o.htmlPath)
	}
	if o.svgPath != "" {
		if err := os.WriteFile(o.svgPath, []byte(viz.BuildChart(a).SVG()), 0o644); err != nil {
			return err
		}
		fmt.Println("wrote", o.svgPath)
	}
	return nil
}
