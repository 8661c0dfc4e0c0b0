// Command perfbench is the repository benchmark: it starts a fresh
// ascendd deployment per run, drives one seeded closed-loop workload at
// it over loopback HTTP, checks every answer against an oracle computed
// from direct public-function calls, and prints the end-to-end metrics.
// With -trace 1 it also replays a sample of the workload in-process
// with a span around every layer call and prints the per-layer metrics.
//
// Run it from the repository root through perfbench/run.sh, which builds
// the daemon, the router and this command from the checkout first:
//
//	bash perfbench/run.sh --workload hot_zipf --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics of the mode.
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"ascendperf/internal/engine"
	"ascendperf/internal/serve"
	"ascendperf/internal/surrogate"
)

// workload is one named traffic mix.
type workload struct {
	name string
	// warmup is the number of untimed requests sent before measuring;
	// their time counts in setup_s.
	warmup int
	// setups is how many deployments a run sets up; setup_s is their
	// median. Workloads without a warm-up set up in milliseconds, so
	// they take more samples.
	setups int
	// source returns a seed's two request generators. full carries the
	// in-memory inputs the oracle and the traced replay use; wire, which
	// the load loop calls, gives the same endpoint, body and key cheaply,
	// from anything prepared when source returns, so the measured loop
	// spends next to nothing on generating requests.
	source func(seed int64) (full, wire func(i int) request)
	// sample is the number of requests the traced replay runs.
	sample int
	// rssAt is the number of measured requests after which max_rss_mb
	// reads the daemon's peak RSS: a fixed amount of work, about a third
	// of what a run answers, so that a faster daemon, which answers more
	// requests in the window, is not charged for the memory they take.
	rssAt int
}

var workloads = []workload{
	{name: "hot_zipf", warmup: hotWarmup, setups: 5, source: func(seed int64) (full, wire func(int) request) {
		h := newHotSource(seed)
		return h.request, h.request
	}, sample: 120, rssAt: 12000},
	{name: "novel_programs", setups: 25, source: func(seed int64) (full, wire func(int) request) {
		return func(i int) request { return novelRequest(seed, i) }, newNovelSource(seed).request
	}, sample: 60, rssAt: 1500},
	{name: "tune_cold", setups: 25, source: func(seed int64) (full, wire func(int) request) {
		gen := func(i int) request { return tuneRequest(seed, i) }
		return gen, gen
	}, sample: 24, rssAt: 700},
}

// clients is the number of closed-loop client connections: the two
// callers a 2-core box serves at once.
const clients = 2

// config is the resolved command line.
type config struct {
	workload      workload
	seed          int64
	seconds       int
	trace         bool
	setups        int
	binDir        string
	outDir        string
	tmpDir        string
	surrogatePath string
}

// live tracks the daemon to stop when a signal arrives.
var live struct {
	sync.Mutex
	p *proc
}

func setLive(p *proc) {
	live.Lock()
	live.p = p
	live.Unlock()
}

func main() {
	cfg, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		live.Lock()
		if live.p != nil {
			live.p.stop()
		}
		os.RemoveAll(cfg.tmpDir)
		os.Exit(1)
	}()
	err = run(cfg)
	os.RemoveAll(cfg.tmpDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED:", err)
		os.Exit(1)
	}
}

func parseFlags(args []string) (*config, error) {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "hot_zipf", "workload: hot_zipf, novel_programs or tune_cold")
	seed := fset.Int64("seed", 1, "workload seed (default 1; held-out confirmation seed 7919)")
	seconds := fset.Int("seconds", 10, "measured seconds")
	trace := fset.Int("trace", 0, "1 adds the traced per-layer replay and prints per-layer metrics")
	binDir := fset.String("bin", ".bench_build/bin", "directory holding the built ascendd")
	outDir := fset.String("out", ".bench_build/out", "directory for the span trace file")
	if err := fset.Parse(args); err != nil {
		return nil, err
	}
	cfg := &config{seed: *seed, seconds: *seconds, trace: *trace == 1,
		binDir: *binDir, outDir: *outDir, surrogatePath: "MODEL_surrogate.json"}
	for _, w := range workloads {
		if w.name == *name {
			cfg.workload = w
		}
	}
	switch {
	case cfg.workload.name == "":
		return nil, fmt.Errorf("unknown workload %q", *name)
	case *trace != 0 && *trace != 1:
		return nil, fmt.Errorf("-trace must be 0 or 1")
	case cfg.seconds < 1:
		return nil, fmt.Errorf("-seconds must be positive")
	case len(cleanEnv()) != len(os.Environ()):
		// This process read them at start, so the oracle and the replay
		// would run with a disk cache, an episode store or other workers.
		return nil, fmt.Errorf("unset the ASCENDPERF_* environment variables first (run.sh does)")
	}
	cfg.setups = cfg.workload.setups
	if cfg.trace {
		cfg.setups = 1
	}
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "run-")
	if err != nil {
		return nil, err
	}
	cfg.tmpDir = tmp
	return cfg, nil
}

// result is the final JSON line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(cfg *config) error {
	w := cfg.workload
	gen, wire := w.source(cfg.seed)
	if err := installPredictor(cfg.surrogatePath); err != nil {
		return err
	}
	fmt.Printf("perfbench: workload=%s seed=%d seconds=%d trace=%v clients=%d (closed loop)\n",
		w.name, cfg.seed, cfg.seconds, cfg.trace, clients)
	printProvenance()
	fmt.Printf("requests: first 64 of the seed's list digest %s\n", requestListDigest(wire, 64))
	// Collect the generators' garbage now, so that the collector does not
	// run beside the timed set-ups.
	runtime.GC()

	// Set-up: spawn, readiness and warm-up, several times; the last
	// daemon is the one measured.
	var setupS []float64
	var d *proc
	var warm *phase
	for s := 0; s < cfg.setups; s++ {
		t0 := time.Now()
		var err error
		if d, err = startDaemon(cfg); err != nil {
			return fmt.Errorf("deployment not ready: %w", err)
		}
		setLive(d)
		if w.warmup > 0 {
			warm = runLoop(d.url, clients, 0, w.warmup, time.Time{}, wire, 0, nil)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		if err := d.checkAlive(); err != nil {
			d.stop()
			return err
		}
		if s < cfg.setups-1 {
			d.stop()
		}
	}
	defer d.stop()
	fmt.Printf("process %s: pid=%d GOMAXPROCS=%s url=%s\n", d.name, d.cmd.Process.Pid, d.gomaxprocs(), d.url)

	var before, after serve.StatsResponse
	if err := getJSON(d.url+"/v1/stats", &before); err != nil {
		return fmt.Errorf("scrape stats: %w", err)
	}
	cpu0, err := d.sample()
	if err != nil {
		return err
	}
	var atMark *procSample
	meas := runLoop(d.url, clients, w.warmup, 0, time.Now().Add(time.Duration(cfg.seconds)*time.Second), wire, w.rssAt, func() {
		if s, err := d.sample(); err == nil {
			atMark = &s
		}
	})
	if err := d.checkAlive(); err != nil {
		return err
	}
	if err := getJSON(d.url+"/v1/stats", &after); err != nil {
		return fmt.Errorf("scrape stats: %w", err)
	}
	procs, err := d.sample()
	if err != nil {
		return err
	}
	d.stop()
	setLive(nil)
	hwmKiB := procs.hwmKiB
	if atMark != nil {
		hwmKiB = atMark.hwmKiB
		fmt.Printf("peak RSS: %.1f MiB after %d measured requests (%.1f MiB at the end of the window)\n",
			float64(hwmKiB)/1024, w.rssAt, float64(procs.hwmKiB)/1024)
	} else {
		fmt.Printf("peak RSS: %.1f MiB at the end of the window (fewer than %d measured requests answered)\n", float64(hwmKiB)/1024, w.rssAt)
	}
	if len(meas.outcomes) == 0 {
		return fmt.Errorf("no request completed in %ds", cfg.seconds)
	}

	chk, err := checkAnswers(gen, warm, meas)
	if err != nil {
		return err
	}
	slices, err := slicesOf(meas, chk.measOK, time.Duration(cfg.seconds)*time.Second)
	if err != nil {
		return err
	}
	e2e, err := endToEnd(slices, setupS, hwmKiB)
	if err != nil {
		return err
	}
	printE2E(w, meas, chk, setupS, slices, e2e)

	res := result{Correct: chk.failed == 0 && chk.warmFailed == 0, Attempted: len(meas.outcomes), Failed: chk.failed, Metrics: e2e}
	if cfg.trace {
		layers, err := perLayer(cfg, gen, meas, chk, before, after, cpu0, procs)
		if err != nil {
			return err
		}
		res.Metrics = layers
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// installPredictor loads the surrogate the daemon serves with into this
// process too: beam search scores candidates with it, so the oracle's
// search answers match the daemon's only with the same model installed.
func installPredictor(path string) error {
	m, err := surrogate.LoadModel(path)
	if err != nil {
		return err
	}
	engine.SetPredictor(surrogate.NewPredictor(m, ""))
	return nil
}

// requestListDigest hashes the first n request bodies of the seed's
// list, so two runs can show they sent the same requests.
func requestListDigest(gen func(int) request, n int) string {
	h := sha256.New()
	for i := 0; i < n; i++ {
		r := gen(i)
		fmt.Fprintf(h, "%s\x00%s\x00", r.Endpoint, r.Body)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// printProvenance prints what every number depends on.
func printProvenance() {
	fmt.Printf("provenance: nproc=%d perfbench GOMAXPROCS=%d go=%s commit=%s source=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gitCommit(), sourceDigest("."))
	gomaxprocs := os.Getenv("GOMAXPROCS")
	if gomaxprocs == "" {
		gomaxprocs = "unset"
	}
	fmt.Printf("environment: GOMAXPROCS=%s, no ASCENDPERF_* variables (no disk cache, no episode store, default workers)\n", gomaxprocs)
}

// gitCommit reads the checked-out commit from .git in the working
// directory (the benchmark reads nothing outside its checkout), or
// reports that there is none.
func gitCommit() string {
	head, err := os.ReadFile(".git/HEAD")
	if err != nil {
		return "none (not a git checkout)"
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(".git/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if sha, name, ok := strings.Cut(line, " "); ok && name == ref {
			return sha
		}
	}
	return "unknown (" + ref + ")"
}

// sourceDigest hashes the repository's Go sources, go.mod files and the
// surrogate model: the commit's identity when no git metadata exists.
func sourceDigest(root string) string {
	var files []string
	filepath.WalkDir(root, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if e.IsDir() && path != root && strings.HasPrefix(e.Name(), ".") {
			return filepath.SkipDir
		}
		if n := e.Name(); !e.IsDir() && (strings.HasSuffix(n, ".go") || n == "go.mod" || n == "MODEL_surrogate.json") {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(f), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("%x (%d files)", h.Sum(nil)[:8], len(files))
}

// answers is the oracle's verdict on a run.
type answers struct {
	failed     int    // measured requests that failed: non-200, transport error or wrong answer
	warmFailed int    // warm-up requests that failed
	wrong      int    // measured 200 responses the oracle rejected
	nonOK      int    // measured non-200 and transport errors
	correctN   int    // measured requests answered correctly
	measOK     []bool // per measured outcome: answered correctly
	relErrs    []float64
	approxN    int
	tuned      []float64
	graphs     []float64
	traceBytes []float64
	digest     string // exact answers of the first measured requests
	firstFail  string
}

// oracleWorkers bounds the oracle's parallelism (it runs after the
// deployment stopped, so it may use every core).
var oracleWorkers = runtime.NumCPU()

// keyCheck is the oracle's work on one distinct request: the verdict on
// every distinct body received for it.
type keyCheck struct {
	verdicts map[[32]byte]verdict
	sum      [32]byte
}

// checkAnswers verifies every warm-up and measured answer. Expected
// answers are computed once per distinct request; requests are
// regenerated from their index, so no request is held in memory.
func checkAnswers(gen func(int) request, warm, meas *phase) (*answers, error) {
	var all []outcome
	bodies := meas.bodies
	if warm != nil {
		all = append(all, warm.outcomes...)
		for k, b := range warm.bodies {
			bodies[k] = b
		}
	}
	all = append(all, meas.outcomes...)

	// Distinct requests in first-seen order, with their distinct bodies.
	var keys [][32]byte
	first := map[[32]byte]int{}
	digests := map[[32]byte][][32]byte{}
	seen := map[answerKey]bool{}
	for _, o := range all {
		if _, ok := first[o.key]; !ok {
			first[o.key] = o.index
			keys = append(keys, o.key)
		}
		ak := answerKey{o.key, o.digest}
		if o.status == http.StatusOK && !seen[ak] {
			seen[ak] = true
			digests[o.key] = append(digests[o.key], o.digest)
		}
	}
	checks, err := engine.ParallelMap(oracleWorkers, len(keys), func(i int) (keyCheck, error) {
		r := gen(first[keys[i]])
		e, err := expect(&r)
		if err != nil {
			return keyCheck{}, fmt.Errorf("oracle for %s request %d: %w", r.Endpoint, first[keys[i]], err)
		}
		kc := keyCheck{verdicts: map[[32]byte]verdict{}, sum: e.sum()}
		for _, dg := range digests[keys[i]] {
			kc.verdicts[dg] = judge(&r, e, bodies[answerKey{keys[i], dg}], dg)
		}
		return kc, nil
	})
	if err != nil {
		return nil, err
	}
	checkOf := make(map[[32]byte]keyCheck, len(keys))
	for i, k := range keys {
		checkOf[k] = checks[i]
	}

	a := &answers{}
	nWarm := len(all) - len(meas.outcomes)
	h := sha256.New()
	for j, o := range all {
		v := verdict{detail: fmt.Sprintf("status %d", o.status)}
		if o.status == http.StatusOK {
			v = checkOf[o.key].verdicts[o.digest]
		}
		if j < nWarm {
			if !v.ok {
				a.warmFailed++
			}
			continue
		}
		a.measOK = append(a.measOK, v.ok)
		if j-nWarm < answerDigestN {
			sum := checkOf[o.key].sum
			fmt.Fprintf(h, "%d\x00%x\x00", o.index, sum)
		}
		switch {
		case o.status != http.StatusOK:
			a.nonOK++
		case !v.ok:
			a.wrong++
		}
		if !v.ok {
			a.failed++
			if a.firstFail == "" {
				a.firstFail = fmt.Sprintf("request %d (%s): %s", o.index, o.endpoint, v.detail)
			}
			continue
		}
		a.correctN++
		switch o.endpoint {
		case "simulate":
			a.relErrs = append(a.relErrs, v.relErr)
			if v.approx {
				a.approxN++
			}
		case "optimize":
			a.tuned = append(a.tuned, v.speedup)
		case "graph":
			a.graphs = append(a.graphs, v.speedup)
		case "trace":
			a.traceBytes = append(a.traceBytes, float64(o.size))
		}
	}
	a.digest = fmt.Sprintf("%x (exact answers of the first %d measured requests)", h.Sum(nil)[:12], min(answerDigestN, len(meas.outcomes)))
	return a, nil
}

// answerDigestN is how many measured requests the answers digest
// covers: few enough that every run completes them.
const answerDigestN = 200

// sliceWidth is the length of the equal slices a measured window is cut
// into. Throughput and latency percentiles are computed per slice and
// reported as the median over slices, so a slice disturbed by a
// garbage-collection cycle or a burst of cold answers does not move the
// run's figure.
const sliceWidth = 2 * time.Second

// slice is one slice of the measured window.
type slice struct {
	throughput, p50, p90 float64
	n                    int
}

// slicesOf cuts the measured phase into slices of about sliceWidth by
// completion time; stragglers completing after the nominal window join
// the last slice, which ends with the phase.
func slicesOf(meas *phase, ok []bool, window time.Duration) ([]slice, error) {
	n := max(1, int(window/sliceWidth))
	width := window / time.Duration(n)
	lat := make([][]float64, n)
	correct := make([]int, n)
	for i, o := range meas.outcomes {
		k := min(int(o.done/width), n-1)
		lat[k] = append(lat[k], float64(o.latency)/1e6)
		if ok[i] {
			correct[k]++
		}
	}
	out := make([]slice, n)
	for k := range out {
		dur := width
		if k == n-1 {
			dur = meas.wall - width*time.Duration(n-1)
		}
		sort.Float64s(lat[k])
		p50, _ := percentile(lat[k], 0.50)
		p90, enough := percentile(lat[k], 0.90)
		if !enough {
			return nil, fmt.Errorf("slice %d of the window has %d requests: p90 needs at least 10 samples beyond it", k, len(lat[k]))
		}
		out[k] = slice{throughput: float64(correct[k]) / dur.Seconds(), p50: p50, p90: p90, n: len(lat[k])}
	}
	return out, nil
}

// endToEndUnits names every end-to-end metric with its unit, as
// BENCHMARK.json lists them.
var endToEndUnits = map[string]string{
	"setup_s":        "s",
	"throughput_rps": "req/s",
	"latency_p50_ms": "ms",
	"latency_p90_ms": "ms",
	"max_rss_mb":     "MiB",
}

// endToEnd computes the BENCHMARK.json end-to-end metrics of a run.
func endToEnd(slices []slice, setupS []float64, hwmKiB int64) (map[string]metric, error) {
	pick := func(f func(slice) float64) float64 {
		xs := make([]float64, len(slices))
		for i, s := range slices {
			xs[i] = f(s)
		}
		return median(xs)
	}
	vals := map[string]float64{
		"setup_s":        median(setupS),
		"throughput_rps": pick(func(s slice) float64 { return s.throughput }),
		"latency_p50_ms": pick(func(s slice) float64 { return s.p50 }),
		"latency_p90_ms": pick(func(s slice) float64 { return s.p90 }),
		"max_rss_mb":     float64(hwmKiB) / 1024,
	}
	m := map[string]metric{}
	for name, v := range vals {
		if err := mustPositive(name, v); err != nil {
			return nil, err
		}
		m[name] = metric{v, endToEndUnits[name]}
	}
	return m, nil
}

// printE2E prints every end-to-end metric by name and unit, including
// the answer-quality ones of the workloads that have them.
func printE2E(w workload, meas *phase, a *answers, setupS []float64, slices []slice, m map[string]metric) {
	n := len(meas.outcomes)
	fmt.Printf("setup_s samples: %v\n", fmtFloats(setupS))
	for k, s := range slices {
		fmt.Printf("window slice %d: %d requests, %.3f req/s, p50 %.4f ms, p90 %.4f ms\n", k, s.n, s.throughput, s.p50, s.p90)
	}
	fmt.Printf("measured: %d requests in %.3fs wall, %d correct, %d non-200 or transport errors, %d wrong answers\n",
		n, meas.wall.Seconds(), a.correctN, a.nonOK, a.wrong)
	if a.warmFailed > 0 {
		fmt.Printf("warm-up: %d answers failed the oracle\n", a.warmFailed)
	}
	if a.firstFail != "" {
		fmt.Printf("first failure: %s\n", a.firstFail)
	}
	fmt.Printf("answers digest: %s\n", a.digest)
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Println("end-to-end metrics:")
	for _, k := range names {
		fmt.Printf("  %-24s %14.6f %s\n", k, m[k].Value, m[k].Unit)
	}
	fmt.Printf("  %-24s %14.6f fraction (%d requests; throughput and latency are medians over %d window slices)\n",
		"error_rate", ratio(float64(a.failed), float64(n)), n, len(slices))
	if w.name != "tune_cold" {
		fmt.Printf("  %-24s %14.6f fraction (%d simulate answers, %d approx)\n", "answer_rel_error", mean(a.relErrs), len(a.relErrs), a.approxN)
	}
	if w.name == "tune_cold" || len(a.tuned) > 0 {
		fmt.Printf("  %-24s %14.6f x (%d optimize answers)\n", "tuned_speedup_geomean", geomean(a.tuned), len(a.tuned))
		fmt.Printf("  %-24s %14.6f x (%d graph answers)\n", "graph_speedup_geomean", geomean(a.graphs), len(a.graphs))
	}
}

func mean(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return ratio(s, float64(len(xs)))
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}
