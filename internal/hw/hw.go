// Package hw models the Ascend AICore hardware: heterogeneous compute
// units (Cube, Vector, Scalar), the on-chip memory hierarchy (GM, L1, UB,
// L0A/B/C), the data-transfer paths connecting the levels, and the three
// memory transfer engines (MTEs) that schedule those paths.
//
// The central abstraction is the Component: a hardware engine with a
// physical instruction queue. Instructions within one component execute
// serially; instructions on different components execute in parallel.
// Physically the components are the three compute units and the three MTEs.
// This matches the abstraction introduced by "Squeezing Operator Performance
// Potential for the Ascend Architecture" (ASPLOS 2025), Section 3.1.
//
// All rates in this package use nanosecond-normalized units:
//
//   - compute peaks are in operations per nanosecond (1 op/ns == 1 GOPS)
//   - bandwidths are in bytes per nanosecond (1 B/ns == 1 GB/s)
//   - times are in nanoseconds
//
// so a 8 TFLOPS Cube is 8000 op/ns and a 32 GB/s GM link is 32 B/ns.
package hw

import "fmt"

// Unit identifies one of the three AICore compute units. It is a byte so
// that instructions, which carry several of these enums, stay small.
type Unit uint8

const (
	// Cube is the matrix unit: dense multiply-accumulate on tiles held in
	// the L0A/L0B buffers, writing to L0C. Supports INT8 and FP16.
	Cube Unit = iota
	// Vector is the SIMD unit operating on the Unified Buffer. Supports
	// INT32, FP16 and FP32.
	Vector
	// Scalar is the control-and-logic core, similar to a small CPU core.
	// Supports INT32, FP16, FP32 and FP64.
	Scalar

	// NumUnits is the number of compute units.
	NumUnits = 3
)

// String returns the conventional unit name.
func (u Unit) String() string {
	switch u {
	case Cube:
		return "Cube"
	case Vector:
		return "Vector"
	case Scalar:
		return "Scalar"
	default:
		return fmt.Sprintf("Unit(%d)", int(u))
	}
}

// Precision identifies a numeric precision supported by a compute unit.
type Precision uint8

const (
	INT8 Precision = iota
	FP16
	FP32
	FP64
	INT32

	// NumPrecisions is the number of distinct precisions.
	NumPrecisions = 5
)

// String returns the conventional precision name.
func (p Precision) String() string {
	switch p {
	case INT8:
		return "INT8"
	case FP16:
		return "FP16"
	case FP32:
		return "FP32"
	case FP64:
		return "FP64"
	case INT32:
		return "INT32"
	default:
		return fmt.Sprintf("Precision(%d)", int(p))
	}
}

// Bytes returns the storage size of one element of the precision.
func (p Precision) Bytes() int64 {
	switch p {
	case INT8:
		return 1
	case FP16:
		return 2
	case FP32, INT32:
		return 4
	case FP64:
		return 8
	default:
		return 0
	}
}

// Level identifies a level of the on-chip memory hierarchy (plus GM).
type Level uint8

const (
	// GM is global memory (HBM/DDR), the lowest level.
	GM Level = iota
	// L1 is the L1 buffer staging data for the Cube unit.
	L1
	// UB is the Unified Buffer shared by Vector and Scalar computation.
	UB
	// L0A holds the left-hand matrix tile fed to the Cube unit.
	L0A
	// L0B holds the right-hand matrix tile fed to the Cube unit.
	L0B
	// L0C receives the Cube unit's accumulator output.
	L0C

	// NumLevels is the number of memory levels.
	NumLevels = 6
)

// String returns the conventional buffer name.
func (l Level) String() string {
	switch l {
	case GM:
		return "GM"
	case L1:
		return "L1"
	case UB:
		return "UB"
	case L0A:
		return "L0A"
	case L0B:
		return "L0B"
	case L0C:
		return "L0C"
	default:
		return fmt.Sprintf("Level(%d)", int(l))
	}
}

// Component is a hardware engine with a physical instruction queue:
// one of the three compute units or one of the three MTEs. Instructions
// within a component execute serially; across components, in parallel.
type Component uint8

const (
	CompCube Component = iota
	CompVector
	CompScalar
	CompMTEGM // transfers originating from GM
	CompMTEL1 // transfers originating from L1
	CompMTEUB // transfers originating from UB

	// NumComponents is the number of components (instruction queues).
	NumComponents = 6
)

// String returns the conventional component name.
func (c Component) String() string {
	switch c {
	case CompCube:
		return "Cube"
	case CompVector:
		return "Vector"
	case CompScalar:
		return "Scalar"
	case CompMTEGM:
		return "MTE-GM"
	case CompMTEL1:
		return "MTE-L1"
	case CompMTEUB:
		return "MTE-UB"
	default:
		return fmt.Sprintf("Component(%d)", int(c))
	}
}

// IsMTE reports whether the component is a memory transfer engine.
func (c Component) IsMTE() bool {
	return c == CompMTEGM || c == CompMTEL1 || c == CompMTEUB
}

// IsCompute reports whether the component is a compute unit.
func (c Component) IsCompute() bool {
	return c == CompCube || c == CompVector || c == CompScalar
}

// Unit returns the compute unit of a compute component. It panics if the
// component is an MTE; callers should check IsCompute first.
func (c Component) Unit() Unit {
	switch c {
	case CompCube:
		return Cube
	case CompVector:
		return Vector
	case CompScalar:
		return Scalar
	}
	panic("hw: " + c.String() + " is not a compute component")
}

// ComponentOf returns the component that owns the given compute unit.
func ComponentOf(u Unit) Component {
	switch u {
	case Cube:
		return CompCube
	case Vector:
		return CompVector
	case Scalar:
		return CompScalar
	}
	panic("hw: unknown unit")
}

// Components lists all components in canonical order.
func Components() []Component {
	return []Component{CompCube, CompVector, CompScalar, CompMTEGM, CompMTEL1, CompMTEUB}
}

// Path is a directed data-transfer link between two memory levels.
type Path struct {
	Src, Dst Level
}

// String formats the path as "Src->Dst".
func (p Path) String() string { return p.Src.String() + "->" + p.Dst.String() }

// Canonical transfer paths. MTE-scheduled paths are grouped by engine;
// the Direct* paths feed compute units and are pruned from roofline
// analysis (Section 4.3: they are inevitable and leave no optimization
// room).
var (
	// MTE-GM paths: transfers originating from global memory.
	PathGMToL1  = Path{GM, L1}
	PathGMToUB  = Path{GM, UB}
	PathGMToL0A = Path{GM, L0A}
	PathGMToL0B = Path{GM, L0B}

	// MTE-L1 paths: transfers originating from the L1 buffer.
	PathL1ToL0A = Path{L1, L0A}
	PathL1ToL0B = Path{L1, L0B}

	// MTE-UB paths: transfers originating from the Unified Buffer.
	PathUBToGM = Path{UB, GM}
	PathUBToL1 = Path{UB, L1}
)

// PathSpec describes one transfer path: its sustained peak bandwidth and
// the engine that schedules it. Paths scheduled by the same engine execute
// serially with respect to each other.
type PathSpec struct {
	// Bandwidth is the peak sustained bandwidth in bytes per nanosecond.
	Bandwidth float64
	// Engine is the MTE that schedules the path.
	Engine Component
}

// PrecSpec describes the peak arithmetic rate of one precision on one unit.
type PrecSpec struct {
	// Peak is the peak rate in operations per nanosecond.
	Peak float64
}

// UnitPrec is a (compute unit, precision) pair — one of the nine
// "precision-compute units" of the AICore.
type UnitPrec struct {
	Unit Unit
	Prec Precision
}

// String formats the pair as "Prec-Unit", e.g. "FP16-Cube".
func (up UnitPrec) String() string { return up.Prec.String() + "-" + up.Unit.String() }

// Chip is a complete AICore hardware specification. A Chip value is
// immutable after construction; simulators and analyzers share it.
type Chip struct {
	// Name identifies the preset, e.g. "ascend-training".
	Name string

	// ClockGHz is the core clock. It is informational; all rates in the
	// spec are already normalized to op/ns and B/ns.
	ClockGHz float64

	// Compute maps each supported (unit, precision) pair to its peak rate.
	// Unsupported pairs are absent.
	Compute map[UnitPrec]PrecSpec

	// Paths maps each legal transfer path to its specification.
	// Transfers over paths not present here are illegal.
	Paths map[Path]PathSpec

	// BufferSize is the capacity in bytes of each on-chip buffer.
	// GM is effectively unbounded and holds a large sentinel value.
	BufferSize map[Level]int64

	// DispatchLatency is the per-instruction front-end cost, in ns, of
	// fetching and dispatching one instruction into its queue. The AICore
	// dispatches in program order, so instructions late in the stream see
	// the accumulated dispatch delay of everything before them.
	DispatchLatency float64

	// TransferSetup is the fixed per-instruction cost, in ns, of
	// establishing one MTE transfer, independent of its size. Small
	// transfers are dominated by this cost, which is what makes
	// transfer granularity matter.
	TransferSetup float64

	// ComputeIssue is the fixed per-instruction cost, in ns, of issuing
	// one compute instruction on Cube or Vector. Instructions with a
	// higher repeat count amortize this cost over more work.
	ComputeIssue float64

	// ScalarIssue is the fixed per-instruction cost, in ns, of one scalar
	// instruction (control flow, address computation).
	ScalarIssue float64

	// SyncCost is the cost, in ns, of executing a set-flag, wait-flag or
	// pipe-barrier instruction (excluding any time spent blocked).
	SyncCost float64

	// QueueDepth optionally bounds each component's instruction queue:
	// the in-order front end stalls when the target queue already holds
	// QueueDepth dispatched-but-incomplete instructions, delaying every
	// later instruction (head-of-line blocking at dispatch). Zero means
	// unbounded queues; the presets ship unbounded.
	QueueDepth int

	// UBBanks optionally models Unified Buffer banking (the detailed
	// hardware analysis the paper defers to future work): the UB is
	// interleaved across UBBanks banks of UBBankWidth bytes, and an
	// instruction cannot start while another component accesses the same
	// bank — even when the byte ranges are disjoint. Zero disables
	// banking; the presets ship with it off.
	UBBanks int

	// UBBankWidth is the interleave granularity in bytes; zero defaults
	// to 1 KiB when UBBanks is set.
	UBBankWidth int64
}

// BankOf returns the UB bank of a byte offset, or -1 when banking is off.
func (c *Chip) BankOf(off int64) int {
	if c.UBBanks <= 0 {
		return -1
	}
	w := c.UBBankWidth
	if w <= 0 {
		w = 1 << 10
	}
	return int((off / w) % int64(c.UBBanks))
}

// BankRange returns the set of UB banks a region touches as a bitmask
// (supporting up to 64 banks), or 0 when banking is off or the region is
// not in UB.
func (c *Chip) BankRange(level Level, off, size int64) uint64 {
	if c.UBBanks <= 0 || level != UB || size <= 0 {
		return 0
	}
	w := c.UBBankWidth
	if w <= 0 {
		w = 1 << 10
	}
	banks := c.UBBanks
	if banks > 64 {
		banks = 64
	}
	var mask uint64
	first := off / w
	last := (off + size - 1) / w
	if last-first >= int64(banks) {
		return (uint64(1) << banks) - 1
	}
	for b := first; b <= last; b++ {
		mask |= 1 << (b % int64(banks))
	}
	return mask
}

// PeakOf returns the peak rate for the (unit, precision) pair and whether
// the pair is supported by the chip.
func (c *Chip) PeakOf(u Unit, p Precision) (float64, bool) {
	s, ok := c.Compute[UnitPrec{u, p}]
	return s.Peak, ok
}

// PathSpecOf returns the specification of a path and whether it is legal.
func (c *Chip) PathSpecOf(p Path) (PathSpec, bool) {
	s, ok := c.Paths[p]
	return s, ok
}

// EngineOf returns the MTE that schedules the path. The second result is
// false for illegal paths.
func (c *Chip) EngineOf(p Path) (Component, bool) {
	s, ok := c.Paths[p]
	return s.Engine, ok
}

// PathsOf returns the transfer paths scheduled by the given MTE, in a
// deterministic order.
func (c *Chip) PathsOf(engine Component) []Path {
	var out []Path
	for _, p := range allPathsOrdered {
		if s, ok := c.Paths[p]; ok && s.Engine == engine {
			out = append(out, p)
		}
	}
	return out
}

// UnitPrecs returns the supported (unit, precision) pairs of a unit, in a
// deterministic order.
func (c *Chip) UnitPrecs(u Unit) []UnitPrec {
	var out []UnitPrec
	for _, p := range []Precision{INT8, FP16, FP32, FP64, INT32} {
		if _, ok := c.Compute[UnitPrec{u, p}]; ok {
			out = append(out, UnitPrec{u, p})
		}
	}
	return out
}

// MaxPeak returns the highest peak rate among the precisions supported by
// the unit, or 0 if the unit supports none.
func (c *Chip) MaxPeak(u Unit) float64 {
	var m float64
	for _, up := range c.UnitPrecs(u) {
		if pk := c.Compute[up].Peak; pk > m {
			m = pk
		}
	}
	return m
}

// MaxBandwidth returns the highest path bandwidth within the MTE, or 0 if
// the engine schedules no paths.
func (c *Chip) MaxBandwidth(engine Component) float64 {
	var m float64
	for _, p := range c.PathsOf(engine) {
		if bw := c.Paths[p].Bandwidth; bw > m {
			m = bw
		}
	}
	return m
}

// allPathsOrdered fixes a deterministic iteration order over paths.
var allPathsOrdered = []Path{
	PathGMToL1, PathGMToUB, PathGMToL0A, PathGMToL0B,
	PathL1ToL0A, PathL1ToL0B,
	PathUBToGM, PathUBToL1,
}

// AllPaths returns every canonical MTE-scheduled path in deterministic
// order. There are 8: four on MTE-GM (GM->{L1,UB,L0A,L0B}), two on MTE-L1
// (L1->{L0A,L0B}) and two on MTE-UB (UB->{GM,L1}).
func AllPaths() []Path {
	out := make([]Path, len(allPathsOrdered))
	copy(out, allPathsOrdered)
	return out
}

// DirectTransfers lists the 12 direct (non-MTE) data movements of the
// AICore: the links that feed compute units from their adjacent buffers
// and the handful of rare unit-to-buffer moves. Together with the 8 MTE
// paths they make up the chip's 20 transfers. They are inevitable during
// execution and leave no room for optimization, so the component-based
// roofline prunes them from analysis (Section 4.3); they exist here only
// so combination counting matches the full architecture.
func DirectTransfers() []string {
	return []string{
		"L0A->Cube", "L0B->Cube", "Cube->L0C",
		"L0C->Vector", "Vector->UB", "UB->Vector",
		"UB->Scalar", "Scalar->UB", "L0C->UB",
		"GM->Scalar", "Scalar->GM", "L1->UB",
	}
}

// Validate checks the internal consistency of a chip specification.
func (c *Chip) Validate() error {
	if c.Name == "" {
		return fmt.Errorf("hw: chip has no name")
	}
	if len(c.Compute) == 0 {
		return fmt.Errorf("hw: chip %s has no compute units", c.Name)
	}
	for up, s := range c.Compute {
		if s.Peak <= 0 {
			return fmt.Errorf("hw: chip %s: non-positive peak for %s", c.Name, up)
		}
	}
	for p, s := range c.Paths {
		if s.Bandwidth <= 0 {
			return fmt.Errorf("hw: chip %s: non-positive bandwidth for %s", c.Name, p)
		}
		if !s.Engine.IsMTE() {
			return fmt.Errorf("hw: chip %s: path %s scheduled by non-MTE %s", c.Name, p, s.Engine)
		}
	}
	for _, l := range []Level{GM, L1, UB, L0A, L0B, L0C} {
		if c.BufferSize[l] <= 0 {
			return fmt.Errorf("hw: chip %s: buffer %s has no capacity", c.Name, l)
		}
	}
	if c.DispatchLatency < 0 || c.TransferSetup < 0 || c.ComputeIssue < 0 || c.ScalarIssue < 0 || c.SyncCost < 0 {
		return fmt.Errorf("hw: chip %s: negative overhead parameter", c.Name)
	}
	return nil
}
