// Beam search over the joint tuning space. The paper's loop (opt.go)
// is greedy and the exhaustive reference enumerates every strategy
// subset × tile size; this file implements the middle ground the
// AscendOptimizer line of work argues for (PAPERS.md): a deterministic
// beam search where each generation of candidates is *scored* cheaply
// by the static critical-path proxy and only the top-of-beam survivors
// are *confirmed* through the exact parallel engine. The episode store
// (episodic.go) persists each winner so repeat runs warm-start with two
// or three verification simulations.
package opt

import (
	"fmt"
	"sort"
	"sync/atomic"

	"ascendperf/internal/critpath"
	"ascendperf/internal/engine"
	"ascendperf/internal/isa"
	"ascendperf/internal/kernels"
	"ascendperf/internal/passes"
	"ascendperf/internal/sim"
)

// Default search parameters (ascendopt -beam / -budget defaults).
const (
	// DefaultBeam is the beam width: exact confirmations per generation.
	DefaultBeam = 4
	// DefaultBudget (0) means no cap on exact simulations per search.
	DefaultBudget = 0
)

// Pass names recorded in search results and episodes.
const (
	passMinimalSync = "minimal_sync"
	passHoistLoads  = "hoist_loads"
)

// SearchConfig parameterizes one beam search.
type SearchConfig struct {
	// Beam is the number of children confirmed through the exact
	// engine per generation; 0 means DefaultBeam.
	Beam int
	// Budget caps the unique exact simulations one search may issue;
	// 0 means unlimited. A search that hits the budget returns its
	// best-so-far with BudgetExhausted set.
	Budget int
	// Episodes is the episodic-memory store; nil uses the process
	// default (SetEpisodeDir), which may itself be nil (disabled).
	Episodes *EpisodeStore
}

func (c SearchConfig) beam() int {
	if c.Beam <= 0 {
		return DefaultBeam
	}
	return c.Beam
}

func (c SearchConfig) store() *EpisodeStore {
	if c.Episodes != nil {
		return c.Episodes
	}
	return DefaultEpisodeStore()
}

// SearchResult is the outcome of tuning one kernel — by beam search,
// by episodic warm start, or by the exhaustive reference. Field order
// and types are part of the §11 report schema; every field is a pure
// function of (chip, kernel, config), never of cache warmth or worker
// count, so marshalled results are byte-identical across runs.
type SearchResult struct {
	// Kernel is the operator name.
	Kernel string `json:"kernel"`
	// BaselineNS is the exact baseline makespan; RawBestNS the best
	// after the strategy × tile search; BestNS the final best after
	// program-pass refinement.
	BaselineNS float64 `json:"baseline_ns"`
	RawBestNS  float64 `json:"raw_best_ns"`
	BestNS     float64 `json:"best_ns"`
	// Speedup is BaselineNS / BestNS.
	Speedup float64 `json:"speedup"`
	// Strategies is the winning strategy set in canonical enum order.
	Strategies []string `json:"strategies"`
	// TileSize is the winning tile in elements (0 when untunable).
	TileSize int64 `json:"tile_size,omitempty"`
	// Passes is the winning program-pass refinement in application
	// order; empty when no pass improved the program.
	Passes []string `json:"passes,omitempty"`
	// Generations counts beam generations run (0 on warm start and for
	// the exhaustive reference).
	Generations int `json:"generations"`
	// ExactSims counts unique exact simulations requested, dedup'd by
	// program fingerprint within this search.
	ExactSims int `json:"exact_sims"`
	// ProxyScored counts children ranked by the critical-path proxy;
	// EvalsSaved counts scored children never confirmed exactly (on
	// warm start: the recorded cold cost minus the warm verification
	// cost).
	ProxyScored int `json:"proxy_scored"`
	EvalsSaved  int `json:"evals_saved"`
	// WarmStart reports the episode store answered this search.
	WarmStart bool `json:"warm_start"`
	// BudgetExhausted reports the search stopped on its exact-sim cap.
	BudgetExhausted bool `json:"budget_exhausted,omitempty"`
}

// state is one point of the joint space: a subset of the kernel's
// supported strategies (bit i = supported[i]) and a tile index.
type state struct {
	mask uint32
	tile int
}

// searcher carries the per-search context shared by the beam search
// and the exhaustive reference.
type searcher struct {
	o        *Optimizer
	k        kernels.Kernel
	tun      kernels.Tunable
	sup      []kernels.Strategy
	tiles    []int64          // tile candidates; tiles[0] is the current size
	variants []kernels.Kernel // retiled kernels, indexed like tiles

	counted   map[string]bool // exact-sim fingerprints already counted
	exactSims int

	proxyScored, evalsSaved int
}

func newSearcher(o *Optimizer, k kernels.Kernel) *searcher {
	s := &searcher{o: o, k: k, sup: k.Supported(), counted: map[string]bool{}}
	if tun, ok := k.(kernels.Tunable); ok {
		s.tun = tun
		s.tiles = append(s.tiles, tun.TileSize())
		s.variants = append(s.variants, k)
		for size := int64(1 << 10); size <= 128<<10; size *= 2 {
			if size != tun.TileSize() {
				s.tiles = append(s.tiles, size)
				s.variants = append(s.variants, tun.WithTileSize(size))
			}
		}
	} else {
		s.tiles = []int64{0}
		s.variants = []kernels.Kernel{k}
	}
	return s
}

// optsFor expands a strategy mask over the kernel baseline.
func (s *searcher) optsFor(mask uint32) kernels.Options {
	o := s.k.Baseline()
	for i, st := range s.sup {
		if mask&(1<<uint(i)) != 0 {
			o = kernels.Apply(o, st)
		}
	}
	return o
}

// build returns the state's program via the optimizer build memo; an
// error means the configuration is infeasible at that tile size.
func (s *searcher) build(st state) (*isa.Program, error) {
	return s.o.Builds.Build(s.o.Chip, s.variants[st.tile], s.optsFor(st.mask))
}

// exactKey is the budget key of one exact simulation of prog: its
// fingerprint, per options flavour, so the span-keeping pass
// simulations do not collide with plain ones.
func exactKey(prog *isa.Program, spans bool) string {
	if spans {
		return "spans|" + prog.Fingerprint()
	}
	return prog.Fingerprint()
}

// countExact charges one exact simulation of prog against the budget,
// once per unique exactKey.
func (s *searcher) countExact(prog *isa.Program, spans bool) {
	key := exactKey(prog, spans)
	if !s.counted[key] {
		s.counted[key] = true
		s.exactSims++
	}
}

// overBudget reports whether charging one more exact simulation of
// prog would exceed the budget (an already-counted exactKey is free).
func (s *searcher) overBudget(budget int, prog *isa.Program, spans bool) bool {
	if budget <= 0 {
		return false
	}
	return !s.counted[exactKey(prog, spans)] && s.exactSims >= budget
}

// confirm exact-simulates the states (already counted against the
// budget) on the engine worker pool. Infeasible or failing states come
// back as -1; the reduction is positional, so results are independent
// of worker count.
func (s *searcher) confirm(states []state) ([]float64, error) {
	return engine.ParallelMap(s.o.Workers, len(states), func(i int) (float64, error) {
		prof, err := s.o.run(s.variants[states[i].tile], s.optsFor(states[i].mask))
		if err != nil {
			return -1, nil
		}
		return prof.TotalTime, nil
	})
}

// less is the canonical state order used for every tie-break: lower
// mask, then lower tile index.
func (a state) less(b state) bool {
	if a.mask != b.mask {
		return a.mask < b.mask
	}
	return a.tile < b.tile
}

// canonicalize maps the winner to the canonically-lowest (mask, tile)
// state that builds the very same program — a no-op strategy bit, or a
// tile whose merged copies reproduce a larger plain tile, can make many
// states share one program, and the exhaustive reference's argmin
// tie-break always lands on the lowest of them. Candidates cost no exact
// simulations, so this keeps reports in parity without touching the
// budget. Each candidate is tested with BuildMemo.Matches, which
// compares a memoized build or streams the build against the winner's
// program, stopping at the first differing instruction; nothing is
// stored.
func (s *searcher) canonicalize(st state) state {
	prog, err := s.build(st)
	if err != nil {
		return st
	}
	full := uint32(1)<<uint(len(s.sup)) - 1
	for mask := uint32(0); ; mask++ {
		opts := s.optsFor(mask)
		for t := range s.tiles {
			cand := state{mask: mask, tile: t}
			if cand == st {
				return st
			}
			if s.o.Builds.Matches(s.o.Chip, s.variants[t], opts, prog) {
				return cand
			}
		}
		if mask == full {
			break
		}
	}
	return st
}

// strategyNames renders a mask in canonical enum order.
func (s *searcher) strategyNames(mask uint32) []string {
	names := []string{}
	for _, st := range kernels.AllStrategies() {
		for i, sup := range s.sup {
			if sup == st && mask&(1<<uint(i)) != 0 {
				names = append(names, st.String())
			}
		}
	}
	return names
}

func strategyByName(name string) (kernels.Strategy, bool) {
	for _, s := range kernels.AllStrategies() {
		if s.String() == name {
			return s, true
		}
	}
	return 0, false
}

// refinePasses runs the program-level pass refinement FullPipeline
// applies, on the search winner: minimal-sync rewriting, then load
// hoisting on top, each verified by CheckOrdering and kept only on
// strict improvement. Simulations here keep spans (CheckOrdering needs
// the timeline), are charged to the search's exact-sim count, and are
// identical between the beam search and the exhaustive reference, so
// parity between the two is preserved.
func (s *searcher) refinePasses(prog *isa.Program, raw float64, budget int) (passes_ []string, best float64, err error) {
	best = raw
	passes_ = []string{}
	minSync, err := passes.MinimalSync(s.o.Chip, prog)
	if err != nil {
		return nil, 0, err
	}
	hoisted, err := passes.HoistLoads(s.o.Chip, minSync, 0)
	if err != nil {
		return nil, 0, err
	}
	candidates := []struct {
		prog  *isa.Program
		names []string
	}{
		{minSync, []string{passMinimalSync}},
		{hoisted, []string{passMinimalSync, passHoistLoads}},
	}
	for _, c := range candidates {
		if s.overBudget(budget, c.prog, true) {
			break
		}
		s.countExact(c.prog, true)
		prof, err := engine.Simulate(s.o.Chip, c.prog, sim.Options{KeepSpans: true})
		if err != nil {
			return nil, 0, err
		}
		if err := passes.CheckOrdering(s.o.Chip, c.prog, prof); err != nil {
			return nil, 0, fmt.Errorf("opt: pass broke %s: %w", s.k.Name(), err)
		}
		if prof.TotalTime < best {
			best = prof.TotalTime
			passes_ = append([]string{}, c.names...)
		}
	}
	return passes_, best, nil
}

// episodeKey fingerprints everything that determines a search outcome.
func (s *searcher) episodeKey(cfg SearchConfig) (string, bool) {
	chipFP, err := s.o.Chip.Fingerprint()
	if err != nil {
		chipFP = s.o.Chip.Name
	}
	base, err := s.build(state{})
	if err != nil {
		return "", false
	}
	key := fmt.Sprintf("%s|alg=v1|chip=%s|kernel=%s|base=%s|sup=%v|tiles=%v|beam=%d|budget=%d",
		episodeSchema, chipFP, s.k.Name(), base.Fingerprint(), s.sup, s.tiles, cfg.beam(), cfg.Budget)
	return key, true
}

// Search tunes one kernel by beam search over the joint strategy ×
// tile space, candidates ranked by the critical-path proxy, followed by
// the program-pass refinement. The search is deterministic: candidate
// generation, scoring, tie-breaks and budget accounting are canonical
// functions of (chip, kernel, config), independent of worker count,
// cache warmth and any installed engine.Predictor, so two runs produce
// byte-identical results. Completed
// searches add to the search_* counters of engine.Live and persist
// their winner to the episode store (when one is configured) so a
// repeat run warm-starts.
func (o *Optimizer) Search(k kernels.Kernel, cfg SearchConfig) (*SearchResult, error) {
	s := newSearcher(o, k)
	live := &engine.Live
	defer atomic.AddUint64(&live.SearchSearches, 1)

	store := cfg.store()
	var epKey string
	if store != nil {
		var ok bool
		if epKey, ok = s.episodeKey(cfg); ok {
			if ep := store.Load(epKey); ep != nil {
				if res, ok := s.warmStart(ep); ok {
					atomic.AddUint64(&live.SearchWarmHits, 1)
					atomic.AddUint64(&live.SearchExactSims, uint64(res.ExactSims))
					atomic.AddUint64(&live.SearchEvalsSaved, uint64(res.EvalsSaved))
					return res, nil
				}
			}
			atomic.AddUint64(&live.SearchWarmMisses, 1)
		}
	}

	res, err := s.beamSearch(cfg)
	if err != nil {
		return nil, err
	}
	atomic.AddUint64(&live.SearchExactSims, uint64(res.ExactSims))
	atomic.AddUint64(&live.SearchProxyScored, uint64(res.ProxyScored))
	atomic.AddUint64(&live.SearchEvalsSaved, uint64(res.EvalsSaved))
	if store != nil && epKey != "" && !res.BudgetExhausted {
		store.Store(epKey, &Episode{
			Kernel:      res.Kernel,
			Strategies:  res.Strategies,
			TileSize:    res.TileSize,
			Passes:      res.Passes,
			BaselineNS:  res.BaselineNS,
			RawBestNS:   res.RawBestNS,
			BestNS:      res.BestNS,
			ExactSims:   res.ExactSims,
			Generations: res.Generations,
		})
		atomic.AddUint64(&live.SearchEpisodeWrites, 1)
	}
	return res, nil
}

// warmStart re-verifies a stored episode through the exact engine:
// baseline, recorded winner, and (when passes were recorded) the
// passed program must reproduce the stored makespans bit-exactly.
func (s *searcher) warmStart(ep *Episode) (*SearchResult, bool) {
	// Reconstruct the winner state from the recorded names.
	var mask uint32
	for _, name := range ep.Strategies {
		st, ok := strategyByName(name)
		if !ok {
			return nil, false
		}
		found := false
		for i, sup := range s.sup {
			if sup == st {
				mask |= 1 << uint(i)
				found = true
			}
		}
		if !found {
			return nil, false
		}
	}
	tile := 0
	if s.tun != nil {
		tile = -1
		for i, t := range s.tiles {
			if t == ep.TileSize {
				tile = i
			}
		}
		if tile < 0 {
			return nil, false
		}
	} else if ep.TileSize != 0 {
		return nil, false
	}

	baseProg, err := s.build(state{})
	if err != nil {
		return nil, false
	}
	s.countExact(baseProg, false)
	baseProf, err := engine.Simulate(s.o.Chip, baseProg, sim.Options{})
	if err != nil || baseProf.TotalTime != ep.BaselineNS {
		return nil, false
	}
	winner := state{mask: mask, tile: tile}
	prog, err := s.build(winner)
	if err != nil {
		return nil, false
	}
	s.countExact(prog, false)
	prof, err := engine.Simulate(s.o.Chip, prog, sim.Options{})
	if err != nil || prof.TotalTime != ep.RawBestNS {
		return nil, false
	}
	best := prof.TotalTime
	if len(ep.Passes) > 0 {
		passed := prog
		for _, p := range ep.Passes {
			switch p {
			case passMinimalSync:
				passed, err = passes.MinimalSync(s.o.Chip, passed)
			case passHoistLoads:
				passed, err = passes.HoistLoads(s.o.Chip, passed, 0)
			default:
				return nil, false
			}
			if err != nil {
				return nil, false
			}
		}
		s.countExact(passed, true)
		pprof, err := engine.Simulate(s.o.Chip, passed, sim.Options{KeepSpans: true})
		if err != nil || pprof.TotalTime != ep.BestNS {
			return nil, false
		}
		best = pprof.TotalTime
	} else if best != ep.BestNS {
		return nil, false
	}

	saved := ep.ExactSims - s.exactSims
	if saved < 0 {
		saved = 0
	}
	return &SearchResult{
		Kernel:     ep.Kernel,
		BaselineNS: ep.BaselineNS,
		RawBestNS:  ep.RawBestNS,
		BestNS:     ep.BestNS,
		Speedup:    ep.BaselineNS / ep.BestNS,
		Strategies: append([]string{}, ep.Strategies...),
		TileSize:   ep.TileSize,
		Passes:     append([]string{}, ep.Passes...),
		ExactSims:  s.exactSims,
		EvalsSaved: saved,
		WarmStart:  true,
	}, true
}

// beamSearch is the cold path: seeded with the baseline and the
// fully-optimized configuration, each generation toggles one strategy
// or switches the tile on every beam state, cheap-scores the children,
// exact-confirms the top beam of them, and stops after two
// generations without a strict improvement (or on budget).
func (s *searcher) beamSearch(cfg SearchConfig) (*SearchResult, error) {
	beam := cfg.beam()
	budget := cfg.Budget
	res := &SearchResult{Kernel: s.k.Name()}
	evaluated := map[state]float64{} // exact times of confirmed states
	seen := map[state]bool{}         // states ever generated

	// Seeds: the baseline and (when distinct) the everything-on mask at
	// the current tile. Both anchor the search from opposite ends of
	// the strategy lattice, so good subsets are reachable by additions
	// from below or removals from above.
	full := state{mask: uint32(1)<<uint(len(s.sup)) - 1}
	seeds := []state{{}}
	if full != (state{}) {
		seeds = append(seeds, full)
	}
	var admitted []state
	for _, st := range seeds {
		prog, err := s.build(st)
		if err != nil {
			if st == (state{}) {
				return nil, fmt.Errorf("opt: search %s baseline: %w", s.k.Name(), err)
			}
			continue
		}
		seen[st] = true
		if s.overBudget(budget, prog, false) {
			res.BudgetExhausted = true
			continue
		}
		s.countExact(prog, false)
		admitted = append(admitted, st)
	}
	times, err := s.confirm(admitted)
	if err != nil {
		return nil, err
	}
	for i, st := range admitted {
		if times[i] >= 0 {
			evaluated[st] = times[i]
		}
	}
	if _, ok := evaluated[state{}]; !ok {
		return nil, fmt.Errorf("opt: search %s: baseline simulation failed", s.k.Name())
	}
	res.BaselineNS = evaluated[state{}]

	bestState, bestTime := s.argmin(evaluated)
	frontier := s.topStates(evaluated, beam)

	stall := 0
	for gen := 1; stall < 2 && !res.BudgetExhausted; gen++ {
		// Generate: every one-strategy toggle and one-tile switch of
		// every frontier state, deduplicated globally, infeasible
		// builds dropped. Iteration order is canonical but irrelevant —
		// children are re-sorted by score below.
		type child struct {
			st    state
			prog  *isa.Program
			score float64
		}
		var children []child
		for _, fs := range frontier {
			var moves []state
			for i := range s.sup {
				moves = append(moves, state{mask: fs.mask ^ (1 << uint(i)), tile: fs.tile})
			}
			for t := range s.tiles {
				if t != fs.tile {
					moves = append(moves, state{mask: fs.mask, tile: t})
				}
			}
			for _, m := range moves {
				if seen[m] {
					continue
				}
				seen[m] = true
				prog, err := s.build(m)
				if err != nil {
					continue
				}
				children = append(children, child{st: m, prog: prog})
			}
		}
		if len(children) == 0 {
			break
		}
		res.Generations = gen
		// Score by the static critical-path proxy: a function of
		// (chip, program) alone, so the ranking never depends on cache
		// warmth or on an installed engine.Predictor.
		for i := range children {
			children[i].score = critpath.Proxy(s.o.Chip, children[i].prog)
		}
		s.proxyScored += len(children)
		sort.Slice(children, func(i, j int) bool {
			if children[i].score != children[j].score {
				return children[i].score < children[j].score
			}
			return children[i].st.less(children[j].st)
		})

		// Confirm: the top beam children, budget permitting. Already-
		// counted fingerprints (a child that builds a program some
		// confirmed state already built) are free.
		var confirmStates []state
		for _, c := range children {
			if len(confirmStates) >= beam {
				break
			}
			if s.overBudget(budget, c.prog, false) {
				res.BudgetExhausted = true
				break
			}
			s.countExact(c.prog, false)
			confirmStates = append(confirmStates, c.st)
		}
		s.evalsSaved += len(children) - len(confirmStates)
		if len(confirmStates) == 0 {
			break
		}
		ctimes, err := s.confirm(confirmStates)
		if err != nil {
			return nil, err
		}
		improved := false
		for i, st := range confirmStates {
			if ctimes[i] < 0 {
				continue
			}
			evaluated[st] = ctimes[i]
			if ctimes[i] < bestTime {
				improved = true
			}
		}
		bestState, bestTime = s.argmin(evaluated)
		frontier = s.topStates(evaluated, beam)
		if improved {
			stall = 0
		} else {
			stall++
		}
	}

	// Refine by coordinate descent: the beam's cheap scorer can misrank
	// the tile axis (its effect is amortization, which the critical-path
	// proxy only partially sees) or prune a near-winner whose mask swaps
	// one strategy for another, so sweep every tile exactly at the
	// winning mask, every single-strategy toggle at the winning tile,
	// and every two-strategy swap (the distance-2 neighborhood single
	// toggles cannot reach), until no axis moves. The confirmations land
	// in the same evaluated map, so the canonical argmin tie-break
	// matches the exhaustive reference's.
	for round := 0; round < 4 && !res.BudgetExhausted; round++ {
		prev := bestState
		for _, axis := range [][]state{s.tileAxis(bestState), s.toggleAxis(bestState), s.swapAxis(bestState)} {
			var cand []state
			for _, st := range axis {
				if _, ok := evaluated[st]; ok {
					continue
				}
				prog, err := s.build(st)
				if err != nil {
					continue
				}
				if s.overBudget(budget, prog, false) {
					res.BudgetExhausted = true
					break
				}
				s.countExact(prog, false)
				cand = append(cand, st)
			}
			ctimes, err := s.confirm(cand)
			if err != nil {
				return nil, err
			}
			for i, st := range cand {
				if ctimes[i] >= 0 {
					evaluated[st] = ctimes[i]
				}
			}
			bestState, bestTime = s.argmin(evaluated)
		}
		if bestState == prev {
			break
		}
	}

	bestState = s.canonicalize(bestState)
	res.RawBestNS = bestTime
	prog, err := s.build(bestState)
	if err != nil {
		return nil, err
	}
	res.Passes, res.BestNS, err = s.refinePasses(prog, bestTime, budget)
	if err != nil {
		return nil, err
	}
	res.Strategies = s.strategyNames(bestState.mask)
	if s.tun != nil {
		res.TileSize = s.tiles[bestState.tile]
	}
	res.Speedup = res.BaselineNS / res.BestNS
	res.ExactSims = s.exactSims
	res.ProxyScored = s.proxyScored
	res.EvalsSaved = s.evalsSaved
	return res, nil
}

// tileAxis returns every other tile at st's mask, in tile order.
func (s *searcher) tileAxis(st state) []state {
	var out []state
	for t := range s.tiles {
		if t != st.tile {
			out = append(out, state{mask: st.mask, tile: t})
		}
	}
	return out
}

// toggleAxis returns every single-strategy toggle at st's tile, in
// strategy order.
func (s *searcher) toggleAxis(st state) []state {
	var out []state
	for i := range s.sup {
		out = append(out, state{mask: st.mask ^ (1 << uint(i)), tile: st.tile})
	}
	return out
}

// swapAxis returns every strict two-strategy swap of st's mask at
// st's tile, in (i, j) order: one selected strategy out, one
// unselected strategy in. These are the distance-2 states single
// toggles cannot reach through an improving intermediate when the
// two strategies are alternatives for the same resource, and the
// strict form (exactly one of the two bits set) keeps the sweep at
// k·(n−k) states instead of the full C(n,2) neighborhood.
func (s *searcher) swapAxis(st state) []state {
	var out []state
	for i := 0; i < len(s.sup); i++ {
		for j := i + 1; j < len(s.sup); j++ {
			bi := st.mask & (1 << uint(i))
			bj := st.mask & (1 << uint(j))
			if (bi == 0) == (bj == 0) {
				continue
			}
			out = append(out, state{mask: st.mask ^ (1 << uint(i)) ^ (1 << uint(j)), tile: st.tile})
		}
	}
	return out
}

// argmin returns the canonical minimum of the evaluated map: lowest
// time, ties to the lowest (mask, tile).
func (s *searcher) argmin(evaluated map[state]float64) (state, float64) {
	first := true
	var bs state
	var bt float64
	for st, t := range evaluated {
		if first || t < bt || (t == bt && st.less(bs)) {
			bs, bt, first = st, t, false
		}
	}
	return bs, bt
}

// topStates returns the n best evaluated states in canonical order.
func (s *searcher) topStates(evaluated map[state]float64, n int) []state {
	states := make([]state, 0, len(evaluated))
	for st := range evaluated {
		states = append(states, st)
	}
	sort.Slice(states, func(i, j int) bool {
		ti, tj := evaluated[states[i]], evaluated[states[j]]
		if ti != tj {
			return ti < tj
		}
		return states[i].less(states[j])
	})
	if len(states) > n {
		states = states[:n]
	}
	return states
}

// ExhaustiveJoint is the reference the search is gated against: it
// exact-simulates every feasible strategy subset × tile size (unique
// programs counted once, like the search), picks the canonical
// argmin, and applies the same pass refinement. ExactSims is the
// evaluation bill the beam search is trying to undercut.
func (o *Optimizer) ExhaustiveJoint(k kernels.Kernel) (*SearchResult, error) {
	s := newSearcher(o, k)
	res := &SearchResult{Kernel: k.Name()}
	if len(s.sup) > 20 {
		return nil, fmt.Errorf("opt: exhaustive %s: %d strategies is too many to enumerate", k.Name(), len(s.sup))
	}
	var states []state
	for mask := uint32(0); mask < uint32(1)<<uint(len(s.sup)); mask++ {
		for t := range s.tiles {
			st := state{mask: mask, tile: t}
			prog, err := s.build(st)
			if err != nil {
				continue
			}
			s.countExact(prog, false)
			states = append(states, st)
		}
	}
	times, err := s.confirm(states)
	if err != nil {
		return nil, err
	}
	evaluated := map[state]float64{}
	for i, st := range states {
		if times[i] >= 0 {
			evaluated[st] = times[i]
		}
	}
	base, ok := evaluated[state{}]
	if !ok {
		return nil, fmt.Errorf("opt: exhaustive %s: baseline simulation failed", k.Name())
	}
	res.BaselineNS = base
	bestState, bestTime := s.argmin(evaluated)
	bestState = s.canonicalize(bestState)
	res.RawBestNS = bestTime
	prog, err := s.build(bestState)
	if err != nil {
		return nil, err
	}
	res.Passes, res.BestNS, err = s.refinePasses(prog, bestTime, 0)
	if err != nil {
		return nil, err
	}
	res.Strategies = s.strategyNames(bestState.mask)
	if s.tun != nil {
		res.TileSize = s.tiles[bestState.tile]
	}
	res.Speedup = res.BaselineNS / res.BestNS
	res.ExactSims = s.exactSims
	return res, nil
}

// SearchReport is the §11 search report: one entry per kernel in name
// order plus aggregate counters. It is what ascendopt -search -json
// emits and what the CI parity gate consumes.
type SearchReport struct {
	Schema  string          `json:"schema"`
	Chip    string          `json:"chip"`
	Beam    int             `json:"beam"`
	Budget  int             `json:"budget"`
	Kernels []*SearchResult `json:"kernels"`
	// Totals over Kernels.
	TotalExactSims   int `json:"total_exact_sims"`
	TotalEvalsSaved  int `json:"total_evals_saved"`
	TotalProxyScored int `json:"total_proxy_scored"`
	WarmStarts       int `json:"warm_starts"`
}

// SearchReportSchema versions the ascendopt -search -json payload.
const SearchReportSchema = "ascendperf/search-report/v2"

// NewSearchReport assembles a report from per-kernel results, sorting
// by kernel name and filling the aggregates.
func NewSearchReport(chip string, cfg SearchConfig, results []*SearchResult) *SearchReport {
	r := &SearchReport{
		Schema: SearchReportSchema,
		Chip:   chip,
		Beam:   cfg.beam(),
		Budget: cfg.Budget,
	}
	r.Kernels = append(r.Kernels, results...)
	sort.Slice(r.Kernels, func(i, j int) bool { return r.Kernels[i].Kernel < r.Kernels[j].Kernel })
	for _, k := range r.Kernels {
		r.TotalExactSims += k.ExactSims
		r.TotalEvalsSaved += k.EvalsSaved
		r.TotalProxyScored += k.ProxyScored
		if k.WarmStart {
			r.WarmStarts++
		}
	}
	return r
}
