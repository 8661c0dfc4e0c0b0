package sim

import (
	"math"
	"sync/atomic"
)

// The scheduler's clock is an integer tick counter, not a float64. All
// event arithmetic — dispatch times, start/end times, the event horizon
// scan — runs on int64 ticks, which makes every time comparison exact
// (no 1e-12 epsilons) and every profile aggregate a sum of exactly
// representable values.
//
// TickScale is the quantization: 1<<20 ticks per nanosecond, the same
// lattice internal/trace already uses for its bit-exact busy/wait/idle
// decomposition. Lattice values are dyadic rationals (k / 2^20), so the
// float64 nanosecond times handed out in profiles are exact images of
// the integer schedule: FromTicks never rounds (|makespan| would have
// to exceed 2^53 ticks ≈ 8.6 seconds of simulated time before float64
// lost a bit), and summing them in any order is exact float arithmetic.
//
// Instruction durations are quantized once, at schedule construction:
// ToTicks rounds the modelled duration to the nearest tick, a
// perturbation of at most 2^-21 ns ≈ 4.8e-7 ns per instruction — far
// below the 1e-6 comparison tolerance of the differential harness, and
// zero for every cost expressible as bytes over a power-of-two
// bandwidth or an integer latency. The reference scheduler in
// internal/check quantizes to the same lattice (independently, from
// this documented contract), so the two schedulers agree bit-for-bit.
const TickScale = 1 << 20

// maxTick is the integer event-horizon sentinel (no pending event).
const maxTick = math.MaxInt64

// ToTicks quantizes a duration in nanoseconds to the integer tick
// lattice (nearest tick).
func ToTicks(ns float64) int64 { return int64(math.Round(ns * TickScale)) }

// FromTicks converts a tick count back to nanoseconds, exactly.
func FromTicks(t int64) float64 { return float64(t) / TickScale }

// Counters is a snapshot of the scheduler core's process-wide activity
// counters. They exist for observability of the event-driven core:
// engine.Stats() folds them into its snapshot and ascendbench -json
// records them, so a regression that silently reintroduces per-event
// full rescans is visible as a counter shift, not just a slowdown.
type Counters struct {
	// Runs counts completed simulations.
	Runs uint64
	// Events counts scheduler rounds: distinct (tick, wake) points the
	// event loop processed.
	Events uint64
	// Starts counts instruction starts (= instructions simulated).
	Starts uint64
	// EligChecks counts queue-head eligibility evaluations. The
	// event-driven core only re-checks a head when something it waits
	// on completed (or its dispatch tick arrived), so this is the
	// true work the wake lists could not avoid.
	EligChecks uint64
	// Wakes counts components re-queued for a check by a wake list
	// (flag completions, conflict retirements, barrier completion).
	Wakes uint64
	// RescanChecksAvoided estimates the eligibility evaluations a
	// per-event full-component rescan with fixed-point restart (the
	// pre-event-driven core) would have performed but this core did
	// not: rescan cost is one check per idle non-empty component per
	// event plus one extra fixed-point round per start.
	RescanChecksAvoided uint64
	// PoolHits and PoolMisses count per-run scheduler-state reuse:
	// a hit re-uses a pooled allocation, a miss pays a fresh one.
	PoolHits, PoolMisses uint64
}

// The process totals are striped: each pooled scheduler state is bound
// round-robin to one counterCell, and flushCounters adds into its own
// cell. In steady state every ParallelMap worker reuses one pooled
// state, so concurrent runs flush to distinct cache lines instead of
// contending on one set of shared atomics; ReadCounters sums the cells.
const counterStripes = 16

// counterCell is one stripe of the scheduler totals. The pad keeps
// neighboring cells on distinct cache lines (the eight Uint64 fields
// fill one 64-byte line; the pad pushes the next cell a full line away
// so adjacent-line prefetching cannot couple two stripes).
type counterCell struct {
	runs, events, starts, eligChecks, wakes, rescanAvoided atomic.Uint64
	poolHits, poolMisses                                   atomic.Uint64
	_                                                      [64]byte
}

var (
	counterCells [counterStripes]counterCell
	stripeSeq    atomic.Uint32
)

// nextStripe binds a freshly minted scheduler state to a stripe.
func nextStripe() uint32 {
	return (stripeSeq.Add(1) - 1) % counterStripes
}

// ReadCounters returns a snapshot of the scheduler counters summed over
// the stripes. Each stripe loads atomically; under concurrent runs the
// sum is a close approximation, and exact whenever the simulator is
// quiescent (the benchmark record points).
func ReadCounters() Counters {
	var t Counters
	for i := range counterCells {
		c := &counterCells[i]
		t.Runs += c.runs.Load()
		t.Events += c.events.Load()
		t.Starts += c.starts.Load()
		t.EligChecks += c.eligChecks.Load()
		t.Wakes += c.wakes.Load()
		t.RescanChecksAvoided += c.rescanAvoided.Load()
		t.PoolHits += c.poolHits.Load()
		t.PoolMisses += c.poolMisses.Load()
	}
	return t
}

// flush accumulates one run's local counters into the state's stripe.
func (s *schedState) flushCounters() {
	c := &counterCells[s.stripe]
	c.runs.Add(1)
	c.events.Add(s.cRounds)
	c.starts.Add(uint64(len(s.startSeq)))
	c.eligChecks.Add(s.cEligChecks)
	c.wakes.Add(s.cWakes)
	// The old core evaluated, per event, every non-empty component
	// (idle heads via eligible(), busy ones via the executing check)
	// and restarted the whole scan once per successful start.
	oldChecks := (s.cRounds + uint64(len(s.startSeq))) * uint64(s.activeComps)
	if have := s.cEligChecks; oldChecks > have {
		c.rescanAvoided.Add(oldChecks - have)
	}
}
