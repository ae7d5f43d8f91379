package layout

import (
	"context"
	"fmt"
	"time"

	"columbas/internal/geom"
	"columbas/internal/lp"
	"columbas/internal/milp"
	"columbas/internal/netlist"
	"columbas/internal/obs"
	"columbas/internal/planar"
)

// Side is a horizontal direction on a block boundary.
type Side int

// Sides.
const (
	West Side = iota // left boundary
	East             // right boundary
)

func (s Side) String() string {
	if s == West {
		return "west"
	}
	return "east"
}

// BlockUnit is one functional unit inside a block, at a fixed offset.
type BlockUnit struct {
	Name string
	Unit *netlist.Unit
	Off  geom.Pt // offset of the unit's module box inside the block
	Row  int     // chain (row) index
	Col  int     // position along the chain
}

// Block is a merged rectangle of parallel functional units (or a single
// unit), per Figure 6(a).
type Block struct {
	Name  string
	Units []BlockUnit
	W, H  float64
	// RowPinY[r] is the y offset of the flow row of chain r inside the
	// block. All units of the chain have their pins on this row.
	RowPinY []float64
	// CtrlLines is the number of independent control channels the block
	// needs at a multiplexer (parallel rows share their lines).
	CtrlLines int
}

// MultiUnit reports whether the block merges more than one unit.
func (b *Block) MultiUnit() bool { return len(b.Units) > 1 }

// UnitAt returns the block unit with the given name, or nil.
func (b *Block) UnitAt(name string) *BlockUnit {
	for i := range b.Units {
		if b.Units[i].Name == name {
			return &b.Units[i]
		}
	}
	return nil
}

// RowEnd reports whether the named unit sits at the western or eastern end
// of its chain, i.e. has a free pin on that side.
func (b *Block) RowEnd(name string, s Side) bool {
	u := b.UnitAt(name)
	if u == nil {
		return false
	}
	if s == West {
		return u.Col == 0
	}
	last := 0
	for i := range b.Units {
		if b.Units[i].Row == u.Row && b.Units[i].Col > last {
			last = b.Units[i].Col
		}
	}
	return u.Col == last
}

// RectKind classifies planned rectangles.
type RectKind int

// Rectangle kinds of the generation model.
const (
	RBlock  RectKind = iota // merged functional-unit rectangle
	RSwitch                 // switch rectangle (vertically extensible)
	RCtrl                   // merged control-channel rectangle
	RFlow                   // merged flow-channel rectangle
)

func (k RectKind) String() string {
	switch k {
	case RBlock:
		return "block"
	case RSwitch:
		return "switch"
	case RCtrl:
		return "ctrl"
	case RFlow:
		return "flow"
	}
	return "unknown"
}

// ChannelRef ties one planar channel to the flow rectangle that carries it.
type ChannelRef struct {
	Planar planar.Channel
}

// FlowAttach describes one end of a flow rectangle.
type FlowAttach struct {
	// Rect is the index of the attached placeable rectangle, or -1 for a
	// chip flow boundary.
	Rect int
	// Side is the boundary of the attached rectangle the channel leaves
	// through (for boundaries: West = x=0, East = x=x_max).
	Side Side
}

// PRect is a rectangle of the generation model.
type PRect struct {
	Name string
	Kind RectKind

	// Fixed extents; 0 means the dimension is free (switch height,
	// control rect height, flow rect width).
	W, H float64

	// Payload.
	Block       *Block       // RBlock
	SwitchNode  *planar.Node // RSwitch
	Owner       int          // RCtrl: index of the owning placeable rect
	NumChannels int          // RFlow/RCtrl: channels merged into this rect
	Channels    []ChannelRef // RFlow: carried planar channels
	A, B        FlowAttach   // RFlow: attachments (A west end, B east end)

	// Vertical binding per end. BindFull glues the rect to the whole
	// block extent (the paper's merge rule for a boundary whose channels
	// all leave together); BindRow pins it to the span of the carried
	// channels' flow rows (needed when one boundary feeds several
	// targets). Switch and chip-boundary ends use BindNone.
	ABind, BBind BindKind
	// Pin row spans (offsets within the attached block) for BindRow ends.
	APinLo, APinHi float64
	BPinLo, BPinHi float64

	// PortLo/PortHi are the offsets (from the rect's bottom) of the
	// lowest and highest fluid port the rect carries at a chip flow
	// boundary; meaningful only for boundary-attached flow rects.
	PortLo, PortHi float64

	// Solved geometry in µm.
	Box geom.Rect
	// CtrlTop is true when the control rect exits through the top MUX
	// boundary (2-MUX designs only).
	CtrlTop bool
}

// Placeable reports whether the rect is a module-bearing rectangle.
func (r *PRect) Placeable() bool { return r.Kind == RBlock || r.Kind == RSwitch }

// BindKind is the vertical binding of one flow rect end.
type BindKind int

// Flow rect end bindings.
const (
	BindNone BindKind = iota // switch or chip boundary: no pin constraint
	BindFull                 // share the attached block's vertical extent
	BindRow                  // pin to the carried channels' flow rows
)

// Effort selects how aggressively the MILP explores placement options.
type Effort int

// Effort levels.
const (
	// EffortFull models every non-overlap disjunction; optimal for small
	// designs but expensive for large ones.
	EffortFull Effort = iota
	// EffortGuided fixes the relative order of rectangle pairs that are
	// far apart in the greedy seed and only leaves nearby pairs open.
	EffortGuided
)

// Options configures layout generation. The json tags are a stable
// contract — columbasd /v2 job resources embed the resolved options of
// every job; transient fields (Deadline, Interrupt, Obs) never
// serialize.
type Options struct {
	// Weights of objective (13): α·x_max + β·y_max + γ·max(x,y) + κ·Σ length.
	Alpha float64 `json:"alpha"`
	Beta  float64 `json:"beta"`
	Gamma float64 `json:"gamma"`
	Kappa float64 `json:"kappa"`
	// TimeLimit bounds the MILP search (0: solver default of 30 s).
	TimeLimit time.Duration `json:"time_limit_ns"`
	// Gap is the acceptable relative optimality gap (default 0.02).
	Gap float64 `json:"gap"`
	// StallLimit stops branch and bound after this many nodes without an
	// incumbent improvement (0: solver default of 200).
	StallLimit int `json:"stall_limit"`
	// Effort selects the disjunction policy. Designs above
	// GuidedThreshold rectangles use EffortGuided automatically.
	Effort          Effort `json:"effort"`
	GuidedThreshold int    `json:"guided_threshold"`
	// SkipMILP accepts the greedy seed directly (debug/ablation).
	SkipMILP bool `json:"skip_milp,omitempty"`
	// NoSeed withholds the greedy warm start from branch and bound
	// (ablation: measures the value of seeding).
	NoSeed bool `json:"no_seed,omitempty"`
	// EagerSeparation adds every non-overlap disjunction up front instead
	// of lazily separating violated pairs (ablation: measures the value
	// of lazy separation).
	EagerSeparation bool `json:"eager_separation,omitempty"`
	// NoWarmStart disables LP basis reuse between branch-and-bound nodes
	// (milp.Options.NoWarmStart), solving every relaxation cold from the
	// all-slack basis (ablation: measures the value of warm starts; the
	// seed solver's behaviour, used by make bench-warmstart as the
	// "before" side).
	NoWarmStart bool `json:"no_warmstart,omitempty"`
	// NoPresolve disables the MILP presolve (milp.Options.NoPresolve):
	// no root or node bound tightening, redundant-row removal, or
	// coefficient strengthening (ablation: measures presolve's value).
	NoPresolve bool `json:"no_presolve,omitempty"`
	// Workers is the number of parallel branch-and-bound workers handed
	// to the MILP solver (milp.Options.Workers): 0 or 1 runs the exact
	// sequential search, a negative value uses runtime.GOMAXPROCS(0).
	// Parallel runs keep the same optimal objective but may pick a
	// different tie-equivalent placement; the columbas CLI defaults to
	// all cores via -workers.
	Workers int `json:"workers"`
	// Deadline, when non-zero, is an absolute wall-clock bound on
	// generation; the earlier of Deadline and now+TimeLimit wins. Like a
	// TimeLimit expiry, hitting it falls back to the greedy seed — use
	// GenerateContext to turn a context deadline into a hard error
	// instead.
	Deadline time.Time `json:"-"`
	// Interrupt, when non-nil, cancels generation as soon as the channel
	// is closed: the in-flight branch and bound halts
	// (milp.Options.Interrupt) and no further separation rounds start.
	// Generate still returns the seed-fallback plan; GenerateContext
	// maps the cancellation to the context's error.
	Interrupt <-chan struct{} `json:"-"`
	// Obs, when non-nil, is the parent trace span (the pipeline's "layout"
	// phase) under which generation records its sub-phases: the greedy
	// seed and each lazy-separation MILP round with that round's solver
	// counters. A nil span disables the recording at no cost.
	Obs *obs.Span `json:"-"`
	// Warm, when non-nil, is a donor design's warm-start payload (see
	// WarmHint): its geometry seeds the starting incumbent, its active
	// pair set pre-fills the lazy separation loop, and its root basis
	// warm-starts the first MILP round. Every part is validated and
	// silently dropped when stale, so a wrong hint costs only the checks.
	// The SearchStats delta counters (DeltaWarmStarts, DeltaFallbacks,
	// IncumbentFromHint) report what was actually used.
	Warm *WarmHint `json:"-"`
}

// DefaultOptions returns the options used by the Columba S flow.
func DefaultOptions() Options {
	return Options{
		Alpha: 1, Beta: 1, Gamma: 1, Kappa: 0.05,
		TimeLimit:       30 * time.Second,
		Gap:             0.02,
		StallLimit:      200,
		Effort:          EffortFull,
		GuidedThreshold: 36,
	}
}

// SolveStats reports how the generation model was solved.
type SolveStats struct {
	Status   milp.Status
	Nodes    int
	Runtime  time.Duration
	Obj      float64
	Bound    float64
	Vars     int
	Rows     int
	Binaries int
	// Rounds is the number of lazy non-overlap separation rounds.
	Rounds   int
	SeedUsed bool // greedy seed accepted as incumbent
	SeedOnly bool // result is the raw greedy seed (SkipMILP or MILP failure)
	// Search aggregates the branch-and-bound counters across every
	// separation round (milp.SearchStats.Merge); Search.NodesExplored
	// equals Nodes above.
	Search milp.SearchStats
}

// Plan is the output of the layout generation phase: positioned merged
// rectangles, ready for layout validation (Section 3.2.2).
type Plan struct {
	Name   string
	Muxes  int
	XMax   float64 // functional region x dimension, µm
	YMax   float64 // functional region y dimension, µm
	Rects  []*PRect
	Planar *planar.Result
	Stats  SolveStats
	// ActivePairs indexes, into Rects, the rect pairs whose
	// non-overlap disjunctions the lazy separation loop converged on,
	// and RootBasis the final MILP round's root LP basis — the donor
	// payload HintFromPlan packs into a WarmHint for the next similar
	// solve. Both are nil on seed-only plans and never serialize. Pairs
	// are kept as int32 indices, a quarter of the size of name pairs:
	// a served design keeps its plan for as long as it is cached.
	ActivePairs [][2]int32 `json:"-"`
	RootBasis   *lp.Basis  `json:"-"`
}

// Rect returns the named rect, or nil.
func (p *Plan) Rect(name string) *PRect {
	for _, r := range p.Rects {
		if r.Name == name {
			return r
		}
	}
	return nil
}

// FlowLength returns the total functional-region flow channel length in
// µm, counting each merged channel with its multiplicity n_r — the L_f
// metric of Table 1 (MUX-flow channels excluded by construction).
func (p *Plan) FlowLength() float64 {
	total := 0.0
	for _, r := range p.Rects {
		if r.Kind != RFlow {
			continue
		}
		total += float64(r.NumChannels) * r.Box.W()
	}
	return total
}

// CtrlLength returns the total control channel length in µm with channel
// multiplicity.
func (p *Plan) CtrlLength() float64 {
	total := 0.0
	for _, r := range p.Rects {
		if r.Kind != RCtrl {
			continue
		}
		total += float64(r.NumChannels) * r.Box.H()
	}
	return total
}

// ControlChannelCount returns the number of independent control channels
// that reach each MUX boundary: bottom (and top for 2-MUX designs).
func (p *Plan) ControlChannelCount() (bottom, top int) {
	for _, r := range p.Rects {
		if r.Kind != RCtrl {
			continue
		}
		if r.CtrlTop {
			top += r.NumChannels
		} else {
			bottom += r.NumChannels
		}
	}
	return bottom, top
}

// Generate runs the layout generation phase on a planarized netlist.
func Generate(pr *planar.Result, opt Options) (*Plan, error) {
	b, err := buildModel(pr, opt)
	if err != nil {
		return nil, err
	}
	return b.solve(opt)
}

// GenerateContext is Generate under a context: the context's deadline
// tightens opt.Deadline, its Done channel joins opt.Interrupt, and a
// context that expires or is canceled before generation completes turns
// the seed-fallback result into ctx.Err() — the solver workers are
// provably stopped by the time it returns.
func GenerateContext(ctx context.Context, pr *planar.Result, opt Options) (*Plan, error) {
	if d, ok := ctx.Deadline(); ok {
		if opt.Deadline.IsZero() || d.Before(opt.Deadline) {
			opt.Deadline = d
		}
	}
	if done := ctx.Done(); done != nil {
		if opt.Interrupt == nil {
			opt.Interrupt = done
		} else {
			opt.Interrupt = mergeInterrupt(opt.Interrupt, done)
		}
	}
	p, err := Generate(pr, opt)
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	// Generation honours the deadline by the wall clock, which can pass
	// it a moment before the context's own timer fires.
	if d, ok := ctx.Deadline(); ok && !time.Now().Before(d) {
		return nil, context.DeadlineExceeded
	}
	return p, nil
}

// mergeInterrupt returns a channel closed when either input closes. The
// forwarding goroutine lives until one of them fires; with a context in
// play that is bounded by the context's lifetime.
func mergeInterrupt(a, b <-chan struct{}) <-chan struct{} {
	c := make(chan struct{})
	go func() {
		defer close(c)
		select {
		case <-a:
		case <-b:
		}
	}()
	return c
}

func (k RectKind) layer() layer {
	switch k {
	case RBlock, RSwitch:
		return layerModule
	case RCtrl:
		return layerControl
	case RFlow:
		return layerFlow
	}
	return layerModule
}

type layer int

const (
	layerModule layer = iota
	layerControl
	layerFlow
)

// conflicting reports whether two rect kinds must not overlap: modules
// conflict with everything, channels conflict within their own layer only
// (flow and control channels may overlap across layers, Section 3.2).
func conflicting(a, b RectKind) bool {
	la, lb := a.layer(), b.layer()
	if la == layerModule || lb == layerModule {
		return true
	}
	return la == lb
}

var errNoPlaceables = fmt.Errorf("layout: netlist has no placeable rectangles")
