package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"sort"

	"ascendperf/internal/check"
	"ascendperf/internal/engine"
	"ascendperf/internal/hw"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/model"
	"ascendperf/internal/serve"
)

// Workload generation. Every request is a pure function of (workload,
// seed, index), so a run draws as many requests as its time allows and
// the request list of a seed is byte-identical on every run, whatever
// the pace. The program under test only ever sees the encoded bodies;
// the in-memory inputs kept beside them feed the answer oracle.

// chipNames are the chip presets every workload spreads over.
var chipNames = []string{"training", "inference", "tpu"}

// chipByName builds a chip preset (a fresh value, as the daemon does).
func chipByName(name string) *hw.Chip {
	switch name {
	case "inference":
		return hw.InferenceChip()
	case "tpu":
		return hw.TPUStyleChip()
	default:
		return hw.TrainingChip()
	}
}

// request is one generated analysis request: the wire form the daemon
// receives plus the generator's in-memory input the oracle recomputes
// the answer from.
type request struct {
	Endpoint string // POSTed to /v1/<Endpoint>
	Body     []byte

	Chip      string
	Op        string       // registry operator (roofline/simulate/trace/optimize)
	Optimized bool         // fully optimized variant of Op
	Prog      *isa.Program // inline program, never re-parsed by the oracle
	Model     string       // built-in workload (model/graph)
	Workload  []byte       // inline workload document (model/graph)
	TopN      int          // model
	Cores     int          // graph
	Search    bool         // optimize: beam search instead of the advisor loop
	Beam      int          // optimize search beam (0 = default)
	Budget    int          // optimize search exact-sim budget (0 = unlimited)

	sum [32]byte // keySum, when the generator precomputed it
}

// key identifies a request for answer memoization and response
// consistency checks.
func (r *request) key() string { return r.Endpoint + "\x00" + string(r.Body) }

// keySum is the SHA-256 identity of a request's key: precomputed by
// generators that prepare their bodies, else hashed here.
func (r *request) keySum() [32]byte {
	if r.sum != ([32]byte{}) {
		return r.sum
	}
	return sha256.Sum256([]byte(r.key()))
}

// mustJSON encodes a request body; the inputs are the benchmark's own
// structs, so a failure is a bug.
func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("perfbench: encode request: %v", err))
	}
	return b
}

// streamRNG returns the PRNG of one request index: request i of a seed
// never depends on how many requests came before it.
func streamRNG(seed int64, stream, i int) *rand.Rand {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(stream)<<48 ^ uint64(i)
	x ^= x >> 31
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 29
	return rand.New(rand.NewSource(int64(x)))
}

// registryOps returns the registry operator names in sorted order.
func registryOps() []string {
	reg := kernels.Registry()
	names := make([]string, 0, len(reg))
	for n := range reg {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// opRequest builds a roofline/simulate/trace request on a registry
// operator.
func opRequest(endpoint, chip, op string, optimized bool) request {
	return request{
		Endpoint: endpoint, Chip: chip, Op: op, Optimized: optimized,
		Body: mustJSON(serve.SimulateRequest{Chip: chip, Op: op, Optimized: optimized}),
	}
}

// optimizeRequest builds an /v1/optimize request: the advisor loop, or
// beam search with the given beam and budget.
func optimizeRequest(chip, op string, search bool, beam, budget int) request {
	return request{
		Endpoint: "optimize", Chip: chip, Op: op, Search: search, Beam: beam, Budget: budget,
		Body: mustJSON(serve.OptimizeRequest{Chip: chip, Op: op, Search: search, Beam: beam, Budget: budget}),
	}
}

// hotCatalogue is the fixed request catalogue behind hot_zipf: every registry operator on every chip preset through
// roofline, simulate and trace at baseline and optimized, the advisor
// loop, greedy (beam 1) and default beam search, plus whole-model runs
// (top_n 0 and 3) and graph schedules (2, 4 and 8 cores) over the
// built-in workloads. 31 ops x 3 chips x 9 + 13 x 5 = 902 entries,
// larger than the daemon's 512-entry response cache.
func hotCatalogue() []request {
	var cat []request
	for _, chip := range chipNames {
		for _, op := range registryOps() {
			for _, ep := range []string{"roofline", "simulate", "trace"} {
				cat = append(cat, opRequest(ep, chip, op, false), opRequest(ep, chip, op, true))
			}
			cat = append(cat,
				optimizeRequest(chip, op, false, 0, 0),
				optimizeRequest(chip, op, true, 1, 0),
				optimizeRequest(chip, op, true, 0, 0))
		}
	}
	for i, m := range model.Extended() {
		chip := chipNames[i%len(chipNames)]
		for _, topN := range []int{0, 3} {
			cat = append(cat, request{
				Endpoint: "model", Chip: chip, Model: m.Name, TopN: topN,
				Body: mustJSON(serve.ModelRequest{Chip: chip, Model: m.Name, TopN: topN}),
			})
		}
		for _, cores := range []int{2, 4, 8} {
			cat = append(cat, request{
				Endpoint: "graph", Chip: chip, Model: m.Name, Cores: cores,
				Body: mustJSON(serve.GraphRequest{Chip: chip, Model: m.Name, Cores: cores}),
			})
		}
	}
	return cat
}

// zipfSkew is the popularity skew of hot_zipf.
const zipfSkew = 1.1

// hotCycle is the length of one stratified Zipf cycle, and hotCycles
// the number of cycles one run may draw from (the sequence wraps past
// them).
const (
	hotCycle  = 1 << 14
	hotCycles = 8
)

// hotSource draws hot_zipf's requests from a Zipf popularity profile
// over the catalogue. Which entry holds which popularity rank is fixed (a
// permutation under a constant seed). The first hotWarmup requests are
// the warm-up: the most popular entries, each once. After them, every
// cycle of 16384 requests holds each entry in its Zipf proportion,
// rounded by largest remainders (the rarest entry's share is 1.7
// requests, so every entry appears). The seed shuffles the order within
// the warm-up and within each cycle. Every seed thus does the same
// warm-up work and sends the same mix, and the run-to-run spread stays
// near that of repeating one seed; the seed decides when each entry is
// asked for, and so which answers the response cache holds at each
// moment.
type hotSource struct {
	cat   []request
	order []int // order[i] is the catalogue index of request i
}

// hotRankSeed fixes the catalogue's popularity order.
const hotRankSeed = 20250330

// zipfCounts splits n draws over k ranks in Zipf proportion with skew
// s, by largest remainders.
func zipfCounts(k, n int, s float64) []int {
	w := make([]float64, k)
	var total float64
	for i := range w {
		w[i] = math.Pow(float64(i+1), -s)
		total += w[i]
	}
	counts := make([]int, k)
	rem := make([]int, k)
	left := n
	for i := range w {
		exact := w[i] / total * float64(n)
		counts[i] = int(exact)
		left -= counts[i]
		w[i] = exact - float64(counts[i])
		rem[i] = i
	}
	sort.SliceStable(rem, func(a, b int) bool { return w[rem[a]] > w[rem[b]] })
	for _, i := range rem[:left] {
		counts[i]++
	}
	return counts
}

func newHotSource(seed int64) *hotSource {
	cat := hotCatalogue()
	perm := rand.New(rand.NewSource(hotRankSeed)).Perm(len(cat))
	var cycle []int
	for rank, c := range zipfCounts(len(cat), hotCycle, zipfSkew) {
		for j := 0; j < c; j++ {
			cycle = append(cycle, perm[rank])
		}
	}
	rng := rand.New(rand.NewSource(seed))
	order := append(make([]int, 0, hotWarmup+hotCycle*hotCycles), perm[:hotWarmup]...)
	rng.Shuffle(hotWarmup, func(a, b int) { order[a], order[b] = order[b], order[a] })
	for c := 0; c < hotCycles; c++ {
		rng.Shuffle(len(cycle), func(a, b int) { cycle[a], cycle[b] = cycle[b], cycle[a] })
		order = append(order, cycle...)
	}
	return &hotSource{cat: cat, order: order}
}

// request returns request i; past the last cycle the sequence wraps to
// the first cycle, not to the warm-up.
func (h *hotSource) request(i int) request {
	if i >= len(h.order) {
		i = hotWarmup + (i-hotWarmup)%(len(h.order)-hotWarmup)
	}
	return h.cat[h.order[i]]
}

// hotWarmup is hot_zipf's untimed warm-up: the 384 most popular entries,
// each answered once, which leaves them in the 512-entry response cache.
// The measured window starts after them and still meets the cold first
// answers of rarer entries, as a shared daemon keeps doing.
const hotWarmup = 384

// Novel programs: every request carries a distinct inline program of
// 200-4000 instructions. Request i carries base program i mod novelPool
// of the seed under a label of its own on the first instruction. The
// label changes neither what the program computes nor its cost, but it
// makes every request's text and program fingerprint unique, so neither
// the response cache nor the engine's program cache can answer it. Half
// the base programs are random (check.GenProgram: every legal path, unit
// and flag pattern), half are registry kernels rebuilt at a seeded size
// and variant, the shape of program the learned surrogate is trained on
// (resized by 0.5-2x, the range its confidence gate accepts). Over the
// pool, endpoints come in exact 45/45/10 shares of roofline, simulate
// and trace, and random-program sizes are stratified over the range, so
// every seed sends nearly the same mix.
const (
	novelMinInstrs = 200
	novelMaxInstrs = 4000
	novelPool      = 1024
)

// partitionable is a kernel whose work can be resized (elementwise
// elements, matmul steps, convolution and pooling tiles).
type partitionable interface {
	kernels.Kernel
	PartitionUnits() int64
	WithUnits(n int64) kernels.Kernel
}

// novelRequest builds request i of the novel_programs workload, with
// its in-memory program.
func novelRequest(seed int64, i int) request {
	j := i % novelPool
	rng := streamRNG(seed, 1, j)
	chipName := chipNames[j%len(chipNames)]
	chip := chipByName(chipName)
	epSlot := rand.New(rand.NewSource(seed ^ 0xe9d)).Perm(novelPool)[j]
	sizeSlot := rand.New(rand.NewSource(seed ^ 0x512e)).Perm(novelPool)[j]
	endpoint := "trace"
	switch {
	case epSlot < novelPool*45/100:
		endpoint = "roofline"
	case epSlot < novelPool*90/100:
		endpoint = "simulate"
	}
	var prog *isa.Program
	if rng.Intn(2) == 0 {
		prog = kernelProgram(chip, rng)
	}
	if prog == nil {
		span := novelMaxInstrs - novelMinInstrs
		prog = check.GenProgram(chip, rng, novelMinInstrs+(sizeSlot*span+rng.Intn(span))/novelPool)
	}
	// The daemon names every parsed inline program "request".
	prog.Name = "request"
	prog.Instrs[0].Label = novelLabel(seed, i)
	return request{
		Endpoint: endpoint, Chip: chipName, Prog: prog,
		Body: mustJSON(serve.SimulateRequest{Chip: chipName, Program: prog.Disassemble()}),
	}
}

// novelLabel is the label that makes novel request i unique.
func novelLabel(seed int64, i int) string { return fmt.Sprintf("novel-%d-%d", seed, i) }

// novelSource is the load loop's novel_programs generator: the pool's
// encoded bodies, built before the daemon starts, each split around the
// label, so a request costs one copy and one small hash.
type novelSource struct {
	seed    int64
	entries []novelEntry
}

// novelEntry is one base program's request body, split around its
// label, with a digest of everything but the label.
type novelEntry struct {
	endpoint, chip string
	head, tail     []byte
	sum            [32]byte
}

func newNovelSource(seed int64) *novelSource {
	entries, err := engine.ParallelMap(runtime.NumCPU(), novelPool, func(j int) (novelEntry, error) {
		r := novelRequest(seed, j)
		label := novelLabel(seed, j)
		at := bytes.Index(r.Body, []byte("; "+label))
		if at < 0 {
			return novelEntry{}, fmt.Errorf("novel request %d: label %q not in its body", j, label)
		}
		at += len("; ")
		e := novelEntry{endpoint: r.Endpoint, chip: r.Chip, head: r.Body[:at], tail: r.Body[at+len(label):]}
		h := sha256.New()
		fmt.Fprintf(h, "%s\x00%d\x00", e.endpoint, len(e.head))
		h.Write(e.head)
		h.Write(e.tail)
		h.Sum(e.sum[:0])
		return e, nil
	})
	if err != nil {
		panic(fmt.Sprintf("perfbench: %v", err))
	}
	return &novelSource{seed: seed, entries: entries}
}

// request returns request i with the same endpoint and body as
// novelRequest, without its program.
func (s *novelSource) request(i int) request {
	e := &s.entries[i%novelPool]
	label := novelLabel(s.seed, i)
	body := make([]byte, 0, len(e.head)+len(label)+len(e.tail))
	body = append(append(append(body, e.head...), label...), e.tail...)
	r := request{Endpoint: e.endpoint, Chip: e.chip, Body: body}
	h := sha256.New()
	h.Write(e.sum[:])
	io.WriteString(h, label)
	h.Sum(r.sum[:0])
	return r
}

// kernelProgram rebuilds a random resizable registry kernel at a seeded
// size until its program has 200-4000 instructions; nil when a few
// draws miss the range.
func kernelProgram(chip *hw.Chip, rng *rand.Rand) *isa.Program {
	ops := registryOps()
	reg := kernels.Registry()
	for try := 0; try < 8; try++ {
		k, ok := reg[ops[rng.Intn(len(ops))]].(partitionable)
		if !ok {
			continue
		}
		units := int64(float64(k.PartitionUnits()) * (0.5 + 1.5*rng.Float64()))
		if units < 1 {
			units = 1
		}
		kk := k.WithUnits(units)
		opts := kk.Baseline()
		if rng.Intn(2) == 0 {
			opts = kernels.FullyOptimized(kk)
		}
		prog, err := kk.Build(chip, opts)
		if err != nil || prog.Len() < novelMinInstrs || prog.Len() >= novelMaxInstrs {
			continue
		}
		return prog
	}
	return nil
}

// Tuning requests: a fixed rotation of beam-search optimize, top-3
// whole-model optimization and graph scheduling, every one distinct.
// Optimize walks a seeded permutation of (op, chip, greedy|search);
// after all 186 pairs it repeats them under a finite exact-sim budget.
// Model and graph requests carry seeded synthetic workloads of four
// operator types each; every run of seven workloads draws its 28 types
// from one seeded permutation of the registry, so each operator is
// optimized and scheduled about equally often whatever the seed, and
// the work per request varies far less between seeds than free draws
// would.

// tuneBudgets are the exact-sim budgets of successive optimize passes
// over the (op, chip, mode) space.
var tuneBudgets = []int{0, 64, 32, 16, 8}

// tuneOpsPerWorkload is the number of operator types per synthetic
// workload.
const tuneOpsPerWorkload = 4

// tuneRequest builds request i of the tune_cold workload.
func tuneRequest(seed int64, i int) request {
	j := i / 3
	chip := chipNames[j%len(chipNames)]
	switch i % 3 {
	case 0:
		return tuneOptimize(seed, j)
	case 1:
		doc := syntheticWorkload(seed, 1, j)
		return request{
			Endpoint: "model", Chip: chip, Workload: doc, TopN: 3,
			Body: mustJSON(serve.ModelRequest{Chip: chip, Workload: doc, TopN: 3}),
		}
	default:
		doc := syntheticWorkload(seed, 2, j)
		cores := []int{2, 4, 8}[j/len(chipNames)%3]
		return request{
			Endpoint: "graph", Chip: chip, Workload: doc, Cores: cores,
			Body: mustJSON(serve.GraphRequest{Chip: chip, Workload: doc, Cores: cores}),
		}
	}
}

// tuneOptimize returns the j-th optimize request of a seed.
func tuneOptimize(seed int64, j int) request {
	ops := registryOps()
	n := len(ops) * len(chipNames) * 2
	perm := rand.New(rand.NewSource(seed ^ 0x5eed)).Perm(n)
	c := perm[j%n]
	op := ops[c%len(ops)]
	chip := chipNames[c/len(ops)%len(chipNames)]
	beam := 0
	if c/(len(ops)*len(chipNames)) == 0 {
		beam = 1 // greedy
	}
	return optimizeRequest(chip, op, true, beam, tuneBudgets[j/n%len(tuneBudgets)])
}

// workloadRow is one row of a FORMATS.md §3 workload document.
type workloadRow struct {
	Op        string  `json:"op"`
	Count     int     `json:"count"`
	Scale     float64 `json:"scale,omitempty"`
	TileElems int64   `json:"tile_elems,omitempty"`
}

// syntheticWorkload draws workload j of a stream: four operator types
// from the stream's current registry permutation, with seeded counts,
// scales and (elementwise) tile sizes. Scales stay at or below 1.25 so
// the daemon's bounded build and simulation caches stay within a few
// GiB under this traffic.
func syntheticWorkload(seed int64, stream, j int) []byte {
	ops := registryOps()
	perCycle := len(ops) / tuneOpsPerWorkload
	perm := streamRNG(seed, 16+stream, j/perCycle).Perm(len(ops))
	picked := perm[j%perCycle*tuneOpsPerWorkload:][:tuneOpsPerWorkload]
	rng := streamRNG(seed, 32+stream, j)
	reg := kernels.Registry()
	var rows []workloadRow
	for _, idx := range picked {
		row := workloadRow{Op: ops[idx], Count: 1 + rng.Intn(40)}
		switch k := reg[row.Op].(type) {
		case *kernels.Elementwise:
			row.Scale = roundScale(0.5 + 0.75*rng.Float64())
			if rng.Intn(2) == 0 {
				row.TileElems = k.TileElems / 2 << rng.Intn(3)
			}
		case *kernels.CubeMatMul, *kernels.CubeConv, *kernels.AvgPool:
			row.Scale = roundScale(0.5 + 0.75*rng.Float64())
		}
		rows = append(rows, row)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(map[string]any{
		"name": fmt.Sprintf("synthetic-%d-%d-%d", seed, stream, j), "type": "Synthetic",
		"overhead_frac": roundScale(0.1 + 0.3*rng.Float64()), "ops": rows,
	}); err != nil {
		panic(fmt.Sprintf("perfbench: encode workload: %v", err))
	}
	return bytes.TrimSpace(buf.Bytes())
}

// roundScale keeps generated factors to two decimals, so documents stay
// short and readable.
func roundScale(x float64) float64 { return float64(int(x*100+0.5)) / 100 }
