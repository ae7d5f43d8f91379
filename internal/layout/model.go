package layout

import (
	"fmt"
	"math"
	"sort"

	"columbas/internal/geom"

	"columbas/internal/milp"
	"columbas/internal/module"
	"columbas/internal/planar"
)

// mmScale converts µm to the model's millimetre unit. Working in mm keeps
// coordinates O(10²) and the big-M constant O(10³), which the dense
// simplex handles comfortably.
const mmScale = 1000.0

// endDesc resolves one planar channel endpoint to the generation model:
// either an attached placeable rect (with side and pin offset) or a chip
// flow boundary.
type endDesc struct {
	rect     int  // placeable rect index; -1 for a flow boundary
	side     Side // boundary of the rect (or of the chip) used
	pinOff   float64
	junction int    // switch junction index, -1 otherwise
	unit     string // attached unit name, "" for switches/boundaries
	terminal string // terminal name for boundaries
	inlet    bool
}

// builder assembles the generation model.
type builder struct {
	pr     *planar.Result
	opt    Options
	blocks []*Block
	byUnit map[string]*Block
	rects  []*PRect
	idx    map[string]int // placeable name -> rect index

	// chanEnds[i] are the resolved endpoints of planar channel i,
	// ordered (west end, east end).
	chanEnds [][2]endDesc

	// xOrder[i][j] records that rect i is known to lie west of rect j
	// through attachment equalities (transitively closed).
	xOrder map[[2]int]bool

	model             *milp.Model
	xl, xr, yb, yt    []milp.VarID
	xmax, ymax, xymax milp.VarID
	ctrlQ             map[int][2]milp.VarID // ctrl rect -> (qBottom, qTop); active = 0
	pairs             []pairDisj
	bigM              float64

	// Greedy seed geometry (µm), filled by greedyPlace/snapshotSeed.
	seedXMax, seedYMax float64
	seedBoxes          []geom.Rect
	seedTops           []bool

	// Delta warm start (solve): pairs whose relative order is fixed from
	// the donor geometry in deltaBoxes instead of getting a disjunction.
	// Cleared when a donor-restricted round comes back infeasible.
	// deltaApplied counts the relations the last buildMILP actually fixed.
	deltaFixed   map[[2]int]bool
	deltaBoxes   []geom.Rect
	deltaApplied int

	// impliedRelations counts the guided relations the last buildMILP
	// left out as implied by the others (addSeedRelations).
	impliedRelations int
}

// pairDisj is one non-overlap disjunction between rects i and j. qs holds
// the auxiliary binaries in option order: left(i west of j), right,
// below(i below j), above; xOnly pairs omit the vertical options.
type pairDisj struct {
	i, j  int
	qs    []milp.VarID
	xOnly bool
	// Port-pitch margins (µm) for the two vertical orientations.
	mBelow, mAbove float64 // i-below-j, j-below-i
}

func buildModel(pr *planar.Result, opt Options) (*builder, error) {
	b := &builder{
		pr:     pr,
		opt:    opt,
		idx:    map[string]int{},
		xOrder: map[[2]int]bool{},
		ctrlQ:  map[int][2]milp.VarID{},
	}
	var err error
	b.blocks, b.byUnit, err = buildBlocks(pr)
	if err != nil {
		return nil, err
	}
	if len(b.blocks) == 0 {
		return nil, errNoPlaceables
	}
	// Placeable rects: blocks then switches.
	for _, blk := range b.blocks {
		b.idx[blk.Name] = len(b.rects)
		b.rects = append(b.rects, &PRect{
			Name: blk.Name, Kind: RBlock, W: blk.W, H: blk.H, Block: blk,
		})
	}
	for i := range pr.Nodes {
		n := &pr.Nodes[i]
		if n.Kind != planar.NodeSwitch {
			continue
		}
		b.idx[n.Name] = len(b.rects)
		b.rects = append(b.rects, &PRect{
			Name: n.Name, Kind: RSwitch,
			W:          module.SwitchWidth(n.Junctions),
			SwitchNode: n,
		})
	}
	if err := b.resolveEnds(); err != nil {
		return nil, err
	}
	if err := b.mergeFlowRects(); err != nil {
		return nil, err
	}
	b.addCtrlRects()
	b.propagateCtrlOrder()
	return b, nil
}

// propagateCtrlOrder inherits the owner's known x-order for every control
// rect (a control rect shares its owner's x-span exactly).
func (b *builder) propagateCtrlOrder() {
	for ci, r := range b.rects {
		if r.Kind != RCtrl {
			continue
		}
		o := r.Owner
		for k := range b.rects {
			if k == ci || k == o {
				continue
			}
			if b.xOrder[[2]int{o, k}] {
				b.orderPair(ci, k)
			}
			if b.xOrder[[2]int{k, o}] {
				b.orderPair(k, ci)
			}
		}
	}
	// Two control rects whose owners are ordered are ordered themselves.
	for ci, r := range b.rects {
		if r.Kind != RCtrl {
			continue
		}
		for cj, s := range b.rects {
			if s.Kind != RCtrl || ci == cj {
				continue
			}
			if b.xOrder[[2]int{r.Owner, s.Owner}] {
				b.orderPair(ci, cj)
			}
		}
	}
}

// internalChan marks a channel endpoint absorbed inside a merged block.
const internalChan = -2

// pinUse tracks which flow pins of a unit are consumed.
type pinUse struct{ west, east bool }

// resolveEnds assigns every planar channel endpoint a placeable rect and a
// side. Unit sides follow the chain structure: interior chain units have
// no free pins, chain-end units hand out their free pin (first come,
// first served, West preferred). Switch and boundary sides are derived
// from the opposite end.
func (b *builder) resolveEnds() error {
	used := map[string]*pinUse{}
	for _, blk := range b.blocks {
		for i := range blk.Units {
			u := &blk.Units[i]
			pu := &pinUse{}
			// Pins consumed by intra-chain neighbours.
			if !blk.RowEnd(u.Name, West) {
				pu.west = true
			}
			if !blk.RowEnd(u.Name, East) {
				pu.east = true
			}
			used[u.Name] = pu
		}
	}

	b.chanEnds = make([][2]endDesc, len(b.pr.Channels))
	for ci, ch := range b.pr.Channels {
		// Channels between two units of the same block are realised inside
		// the block (the merged rectangle absorbs them, Figure 6(a)).
		if ch.A.Node != "" && ch.B.Node != "" {
			ba, bb := b.byUnit[ch.A.Node], b.byUnit[ch.B.Node]
			if ba != nil && ba == bb {
				b.chanEnds[ci] = [2]endDesc{{rect: internalChan}, {rect: internalChan}}
				continue
			}
		}
		var unitEnds, swEnds, termEnds []planar.End
		for _, e := range []planar.End{ch.A, ch.B} {
			switch {
			case e.IsTerminal():
				termEnds = append(termEnds, e)
			case b.pr.Node(e.Node).Kind == planar.NodeSwitch:
				swEnds = append(swEnds, e)
			default:
				unitEnds = append(unitEnds, e)
			}
		}
		resolveUnit := func(e planar.End) (endDesc, error) {
			blk := b.byUnit[e.Node]
			pu := used[e.Node]
			var side Side
			switch {
			case !pu.west:
				side, pu.west = West, true
			case !pu.east:
				side, pu.east = East, true
			default:
				return endDesc{}, fmt.Errorf("layout: unit %s has no free flow pin (channel %d)", e.Node, ci)
			}
			bu := blk.UnitAt(e.Node)
			return endDesc{
				rect: b.idx[blk.Name], side: side,
				pinOff:   blk.RowPinY[bu.Row],
				junction: -1, unit: e.Node,
			}, nil
		}

		var west, east endDesc
		switch {
		case len(unitEnds) == 2:
			d0, err := resolveUnit(unitEnds[0])
			if err != nil {
				return err
			}
			d1, err := resolveUnit(unitEnds[1])
			if err != nil {
				return err
			}
			if d0.side == d1.side {
				// Both free pins landed on the same side (e.g. two
				// single-unit blocks with both pins free): flip one.
				d1.side = opposite(d0.side)
				flipPin(used[unitEnds[1].Node], d1.side)
			}
			if d0.side == East {
				west, east = d0, d1
			} else {
				west, east = d1, d0
			}
		case len(unitEnds) == 1 && len(swEnds) == 1:
			du, err := resolveUnit(unitEnds[0])
			if err != nil {
				return err
			}
			sw := swEnds[0]
			ds := endDesc{
				rect: b.idx[sw.Node], junction: sw.Junction, pinOff: -1,
			}
			if du.side == East { // unit west of switch
				ds.side = West
				west, east = du, ds
			} else {
				ds.side = East
				west, east = ds, du
			}
		case len(unitEnds) == 1 && len(termEnds) == 1:
			du, err := resolveUnit(unitEnds[0])
			if err != nil {
				return err
			}
			te := termEnds[0]
			dt := endDesc{rect: -1, terminal: te.Terminal, inlet: te.Inlet, junction: -1, pinOff: -1}
			if du.side == West { // channel runs west to the left boundary
				dt.side = West
				west, east = dt, du
			} else {
				dt.side = East
				west, east = du, dt
			}
		case len(swEnds) == 1 && len(termEnds) == 1:
			sw := swEnds[0]
			te := termEnds[0]
			ds := endDesc{rect: b.idx[sw.Node], junction: sw.Junction, pinOff: -1}
			dt := endDesc{rect: -1, terminal: te.Terminal, inlet: te.Inlet, junction: -1, pinOff: -1}
			if te.Inlet { // inlets arrive from the left boundary
				ds.side, dt.side = West, West
				west, east = dt, ds
			} else {
				ds.side, dt.side = East, East
				west, east = ds, dt
			}
		case len(swEnds) == 2:
			d0 := endDesc{rect: b.idx[swEnds[0].Node], junction: swEnds[0].Junction, pinOff: -1, side: East}
			d1 := endDesc{rect: b.idx[swEnds[1].Node], junction: swEnds[1].Junction, pinOff: -1, side: West}
			west, east = d0, d1
		default:
			return fmt.Errorf("layout: channel %d has unsupported endpoint combination", ci)
		}
		b.chanEnds[ci] = [2]endDesc{west, east}
	}
	return nil
}

func opposite(s Side) Side {
	if s == West {
		return East
	}
	return West
}

func flipPin(pu *pinUse, newSide Side) {
	// resolveUnit marked the wrong side used; correct the bookkeeping.
	if newSide == West {
		pu.east = false
		pu.west = true
	} else {
		pu.west = false
		pu.east = true
	}
}

// flowKey groups channels into merged rectangles: same pair of attachment
// points (rect+side on both ends).
type flowKey struct {
	aRect int
	aSide Side
	bRect int
	bSide Side
	aTerm bool
	bTerm bool
}

// mergeFlowRects applies the channel-merge rules of Section 3.2.1 and
// creates RFlow rects with attachment metadata.
func (b *builder) mergeFlowRects() error {
	groups := map[flowKey][]int{}
	var order []flowKey
	for ci := range b.pr.Channels {
		w, e := b.chanEnds[ci][0], b.chanEnds[ci][1]
		if w.rect == internalChan {
			continue
		}
		k := flowKey{
			aRect: w.rect, aSide: w.side, aTerm: w.rect < 0,
			bRect: e.rect, bSide: e.side, bTerm: e.rect < 0,
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], ci)
	}
	// Count groups per (block, side): a boundary whose channels split
	// across several targets cannot use the full-height merge rule.
	sideGroups := map[[2]int]int{}
	for _, k := range order {
		if k.aRect >= 0 {
			sideGroups[[2]int{k.aRect, int(k.aSide)}]++
		}
		if k.bRect >= 0 {
			sideGroups[[2]int{k.bRect, int(k.bSide)}]++
		}
	}
	for gi, k := range order {
		cis := groups[k]
		r := &PRect{
			Name:        fmt.Sprintf("f%d", gi),
			Kind:        RFlow,
			NumChannels: len(cis),
		}
		w0 := b.chanEnds[cis[0]][0]
		e0 := b.chanEnds[cis[0]][1]
		r.A = FlowAttach{Rect: w0.rect, Side: w0.side}
		r.B = FlowAttach{Rect: e0.rect, Side: e0.side}
		for _, ci := range cis {
			r.Channels = append(r.Channels, ChannelRef{Planar: b.pr.Channels[ci]})
		}
		// End bindings and pin spans. Full-height merging (the paper's
		// rule) applies to a multi-row block boundary with a single
		// channel group; everything else pins to its flow rows.
		endBind := func(which int, d0 endDesc, side Side) (BindKind, float64, float64) {
			if d0.rect < 0 || b.rects[d0.rect].Kind != RBlock {
				return BindNone, 0, 0
			}
			blk := b.rects[d0.rect].Block
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, ci := range cis {
				d := b.chanEnds[ci][which]
				lo = math.Min(lo, d.pinOff)
				hi = math.Max(hi, d.pinOff)
			}
			if blk.MultiUnit() && len(blk.RowPinY) > 1 &&
				sideGroups[[2]int{d0.rect, int(side)}] == 1 {
				return BindFull, lo, hi
			}
			return BindRow, lo, hi
		}
		r.ABind, r.APinLo, r.APinHi = endBind(0, w0, w0.side)
		r.BBind, r.BPinLo, r.BPinHi = endBind(1, e0, e0.side)
		// A Full end paired with a Row end downgrades to Row so the
		// heights stay consistent.
		if r.ABind == BindFull && r.BBind == BindRow {
			r.ABind = BindRow
		}
		if r.BBind == BindFull && r.ABind == BindRow {
			r.BBind = BindRow
		}
		// Height per the merge rules.
		h, err := b.flowHeight(r, w0, e0, len(cis))
		if err != nil {
			return err
		}
		r.H = h
		// Fluid-port span for boundary-attached rects: ports sit on the
		// channel rows, whose offsets within the rect depend on the
		// binding of the opposite (placeable) end.
		if r.A.Rect < 0 || r.B.Rect < 0 {
			bind, lo, hi := r.ABind, r.APinLo, r.APinHi
			if r.A.Rect >= 0 {
				bind, lo, hi = r.ABind, r.APinLo, r.APinHi
			} else {
				bind, lo, hi = r.BBind, r.BPinLo, r.BPinHi
			}
			switch bind {
			case BindFull:
				r.PortLo, r.PortHi = lo, hi
			case BindRow:
				r.PortLo, r.PortHi = module.D, r.H-module.D
			default:
				// Switch-to-boundary: ports stacked at d' pitch.
				r.PortLo, r.PortHi = module.DPrime/2, r.H-module.DPrime/2
			}
		}
		// Record known x-order from the attachment equalities: the flow
		// rect itself sits strictly between its attached rects.
		fiIdx := len(b.rects)
		if w0.rect >= 0 {
			b.orderPair(w0.rect, fiIdx)
		}
		if e0.rect >= 0 {
			b.orderPair(fiIdx, e0.rect)
		}
		if w0.rect >= 0 && e0.rect >= 0 {
			b.orderPair(w0.rect, e0.rect)
		}
		b.rects = append(b.rects, r)
	}
	b.closeOrder()
	return nil
}

// flowHeight picks the merged rect height: block height for full-bound
// ends, the pin-row span plus 2d for row-bound ends, n·d' for
// switch-to-boundary rects and 2d·n for switch-to-switch rects.
func (b *builder) flowHeight(r *PRect, w, e endDesc, n int) (float64, error) {
	kindOf := func(d endDesc) RectKind {
		if d.rect < 0 {
			return RFlow // boundary sentinel, never a placeable kind
		}
		return b.rects[d.rect].Kind
	}
	switch {
	case r.ABind == BindFull && r.BBind == BindFull:
		bw, be := b.rects[w.rect].Block, b.rects[e.rect].Block
		if len(bw.RowPinY) != len(be.RowPinY) {
			return 0, fmt.Errorf("layout: blocks %s and %s have mismatched row structure; route through a switch", bw.Name, be.Name)
		}
		for i := range bw.RowPinY {
			if bw.RowPinY[i] != be.RowPinY[i] {
				return 0, fmt.Errorf("layout: blocks %s and %s have misaligned flow rows; route through a switch", bw.Name, be.Name)
			}
		}
		return bw.H, nil
	case r.ABind == BindFull:
		return b.rects[w.rect].Block.H, nil
	case r.BBind == BindFull:
		return b.rects[e.rect].Block.H, nil
	case r.ABind == BindRow && r.BBind == BindRow:
		spanA := r.APinHi - r.APinLo
		spanB := r.BPinHi - r.BPinLo
		if math.Abs(spanA-spanB) > 1 {
			return 0, fmt.Errorf("layout: flow rows of %s and %s misaligned; route through a switch",
				b.rects[w.rect].Name, b.rects[e.rect].Name)
		}
		return spanA + 2*module.D, nil
	case r.ABind == BindRow:
		return r.APinHi - r.APinLo + 2*module.D, nil
	case r.BBind == BindRow:
		return r.BPinHi - r.BPinLo + 2*module.D, nil
	case (w.rect < 0 && e.rect >= 0 && kindOf(e) == RSwitch) ||
		(e.rect < 0 && w.rect >= 0 && kindOf(w) == RSwitch):
		// Switch to flow boundary: l = n·d' (merge rule 3).
		return float64(n) * module.DPrime, nil
	default:
		return float64(n) * 2 * module.D, nil
	}
}

func (b *builder) orderPair(i, j int) {
	b.xOrder[[2]int{i, j}] = true
}

// closeOrder transitively closes the west-of relation so separated pairs
// skip their non-overlap disjunction.
func (b *builder) closeOrder() {
	n := len(b.rects)
	changed := true
	for changed {
		changed = false
		for p := range b.xOrder {
			for k := 0; k < n; k++ {
				if b.xOrder[[2]int{p[1], k}] && !b.xOrder[[2]int{p[0], k}] {
					b.xOrder[[2]int{p[0], k}] = true
					changed = true
				}
			}
		}
	}
}

// addCtrlRects creates the merged control rectangle of every
// valve-containing rect (merge rule 1).
func (b *builder) addCtrlRects() {
	n := len(b.rects)
	for i := 0; i < n; i++ {
		r := b.rects[i]
		if !r.Placeable() {
			continue
		}
		lines := 0
		switch r.Kind {
		case RBlock:
			lines = r.Block.CtrlLines
		case RSwitch:
			lines = r.SwitchNode.Junctions
		}
		if lines == 0 {
			continue
		}
		b.rects = append(b.rects, &PRect{
			Name:        "ctrl:" + r.Name,
			Kind:        RCtrl,
			W:           r.W,
			Owner:       i,
			NumChannels: lines,
		})
	}
}

// ctrlOf returns the index of the control rect owned by placeable i, or -1.
func (b *builder) ctrlOf(i int) int {
	for k, r := range b.rects {
		if r.Kind == RCtrl && r.Owner == i {
			return k
		}
	}
	return -1
}

// attachedFlow reports whether flow rect f attaches to placeable p.
func attachedFlow(f *PRect, p int) bool {
	return f.A.Rect == p || f.B.Rect == p
}

// buildMILP assembles the integer-linear program. Non-overlap
// disjunctions are added lazily: only the pairs in active (discovered by
// overlap separation rounds in solve) get constraints (3)-(5). guided
// fixes those pair relations to the greedy seed instead of adding
// disjunctions.
func (b *builder) buildMILP(guided bool, active [][2]int) {
	m := milp.NewModel()
	b.model = m
	b.pairs = nil
	b.deltaApplied = 0
	b.impliedRelations = 0
	b.ctrlQ = map[int][2]milp.VarID{}
	n := len(b.rects)
	b.xl = make([]milp.VarID, n)
	b.xr = make([]milp.VarID, n)
	b.yb = make([]milp.VarID, n)
	b.yt = make([]milp.VarID, n)

	// Coordinate upper bound and big-M in mm.
	ub := 0.0
	for _, r := range b.rects {
		ub += (r.W + r.H + 8*module.D) / mmScale
	}
	ub += 20
	b.bigM = 2 * ub

	for i, r := range b.rects {
		b.xl[i] = m.Var(r.Name+".xl", 0, ub)
		b.xr[i] = m.Var(r.Name+".xr", 0, ub)
		b.yb[i] = m.Var(r.Name+".yb", 0, ub)
		b.yt[i] = m.Var(r.Name+".yt", 0, ub)
		// Constraint (1): fixed extents, or the minimum of a free one.
		minW, minH := minExtent(r)
		if r.W > 0 {
			m.AddEQ(milp.T(b.xr[i], 1).Add(b.xl[i], -1), r.W/mmScale)
		} else {
			m.AddGE(milp.T(b.xr[i], 1).Add(b.xl[i], -1), minW/mmScale)
		}
		if r.H > 0 {
			m.AddEQ(milp.T(b.yt[i], 1).Add(b.yb[i], -1), r.H/mmScale)
		} else {
			m.AddGE(milp.T(b.yt[i], 1).Add(b.yb[i], -1), minH/mmScale)
		}
	}
	b.xmax = m.Var("xmax", 0, ub)
	b.ymax = m.Var("ymax", 0, ub)
	b.xymax = m.Var("xymax", 0, ub)
	m.AddGE(milp.T(b.xymax, 1).Add(b.xmax, -1), 0)
	m.AddGE(milp.T(b.xymax, 1).Add(b.ymax, -1), 0)
	// Constraint (2): chip confinement.
	for i := range b.rects {
		m.AddLE(milp.T(b.xr[i], 1).Add(b.xmax, -1), 0)
		m.AddLE(milp.T(b.yt[i], 1).Add(b.ymax, -1), 0)
	}

	b.addAttachmentConstraints()
	b.addCtrlConstraints()
	b.addNonOverlap(guided, active)
	b.addBoundCuts()
	b.setObjective()
}

// minExtent returns the smallest width and height (µm) the model lets
// rect r take: its fixed extent where set; otherwise a flow rect keeps a
// 2d run so every merged channel remains physically realisable, a switch
// stacks its junctions at 2d pitch, and a control rect's height is free.
func minExtent(r *PRect) (w, h float64) {
	w, h = r.W, r.H
	if w <= 0 {
		w = 0
		if r.Kind == RFlow {
			w = 2 * module.D
		}
	}
	if h <= 0 {
		h = 0
		if r.Kind == RSwitch {
			h = 2 * module.D * float64(r.SwitchNode.Junctions+1)
		}
	}
	return w, h
}

// pairMargins returns the extra vertical edge clearances two rects must
// keep so their fluid ports respect the d' pitch (Figure 3(e)):
// mIBelowJ applies when rect i sits below rect j, mJBelowI when above.
// Only flow rects attached to the same chip flow boundary need any; the
// requirement shrinks by how far each rect's nearest port sits from its
// facing edge.
func (b *builder) pairMargins(i, j int) (mIBelowJ, mJBelowI float64) {
	ri, rj := b.rects[i], b.rects[j]
	if ri.Kind != RFlow || rj.Kind != RFlow {
		return 0, 0
	}
	sameWest := ri.A.Rect < 0 && rj.A.Rect < 0
	sameEast := ri.B.Rect < 0 && rj.B.Rect < 0
	if !sameWest && !sameEast {
		return 0, 0
	}
	mIBelowJ = math.Max(0, module.DPrime-(ri.H-ri.PortHi)-rj.PortLo)
	mJBelowI = math.Max(0, module.DPrime-(rj.H-rj.PortHi)-ri.PortLo)
	return mIBelowJ, mJBelowI
}

// overlappingPairs returns the conflicting rect pairs whose current boxes
// overlap (or, for boundary-port pairs, run closer than the d' margin) —
// the separation oracle of the lazy non-overlap loop.
func (b *builder) overlappingPairs(skip map[[2]int]bool) [][2]int {
	var out [][2]int
	n := len(b.rects)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if skip[[2]int{i, j}] || !b.needDisjunction(i, j) {
				continue
			}
			ri, rj := b.rects[i], b.rects[j]
			if mbij, mbji := b.pairMargins(i, j); mbij > 0 || mbji > 0 {
				xsep := ri.Box.XR <= rj.Box.XL+1 || rj.Box.XR <= ri.Box.XL+1
				okBelow := rj.Box.YB-ri.Box.YT >= mbij-1
				okAbove := ri.Box.YB-rj.Box.YT >= mbji-1
				if !xsep && !okBelow && !okAbove {
					out = append(out, [2]int{i, j})
				}
				continue
			}
			in, ok := ri.Box.Intersect(rj.Box)
			if ok && in.W() > 1 && in.H() > 1 {
				out = append(out, [2]int{i, j})
			}
		}
	}
	return out
}

// addBoundCuts adds valid inequalities that lift the LP relaxation bound.
// The big-M disjunctions alone leave the root relaxation nearly
// unconstrained, which makes branch and bound explore far more nodes than
// necessary; the x-chain and height cuts are implied by any integer
// solution and close most of that gap at the root.
func (b *builder) addBoundCuts() {
	m := b.model
	n := len(b.rects)
	// Longest chain of x-ordered rects: xmax >= sum of widths.
	memo := make([]float64, n)
	done := make([]bool, n)
	var chain func(i int) float64
	chain = func(i int) float64 {
		if done[i] {
			return memo[i]
		}
		done[i] = true // mark before recursion; xOrder is acyclic
		best := 0.0
		for p := 0; p < n; p++ {
			if b.xOrder[[2]int{p, i}] {
				if v := chain(p); v > best {
					best = v
				}
			}
		}
		w, _ := minExtent(b.rects[i])
		memo[i] = best + w
		return memo[i]
	}
	longest := 0.0
	for i := 0; i < n; i++ {
		if v := chain(i); v > longest {
			longest = v
		}
	}
	if longest > 0 {
		m.AddGE(milp.T(b.xmax, 1), longest/mmScale)
	}
	// Height cut: the chip is at least as tall as its tallest fixed rect.
	maxH := 0.0
	for _, r := range b.rects {
		if r.H > maxH {
			maxH = r.H
		}
	}
	if maxH > 0 {
		m.AddGE(milp.T(b.ymax, 1), maxH/mmScale)
	}
}

// addAttachmentConstraints pins flow rects to their attached rects and
// boundaries (constraints (6)-(12) with derived boundary choices).
func (b *builder) addAttachmentConstraints() {
	m := b.model
	for fi, r := range b.rects {
		if r.Kind != RFlow {
			continue
		}
		// West end.
		if r.A.Rect < 0 {
			// Left chip boundary: xl = 0.
			m.AddEQ(milp.T(b.xl[fi], 1), 0)
		} else {
			// xl = attached rect's east boundary.
			m.AddEQ(milp.T(b.xl[fi], 1).Add(b.xr[r.A.Rect], -1), 0)
		}
		// East end.
		if r.B.Rect < 0 {
			m.AddEQ(milp.T(b.xr[fi], 1).Add(b.xmax, -1), 0)
		} else {
			m.AddEQ(milp.T(b.xr[fi], 1).Add(b.xl[r.B.Rect], -1), 0)
		}
		// Vertical binding per end.
		b.bindFlowY(fi, r)
	}
}

// bindFlowY aligns the flow rect with its attached pins/rows, or lets the
// attached switch cover it (constraint (12)).
func (b *builder) bindFlowY(fi int, r *PRect) {
	m := b.model
	bindEnd := func(att FlowAttach, bind BindKind, pinLo float64) {
		if att.Rect < 0 {
			return // chip boundary imposes no vertical constraint
		}
		tr := b.rects[att.Rect]
		switch {
		case tr.Kind == RSwitch:
			// Switch covers the rect: s.yt >= r.yt, s.yb <= r.yb.
			m.AddGE(milp.T(b.yt[att.Rect], 1).Add(b.yt[fi], -1), 0)
			m.AddLE(milp.T(b.yb[att.Rect], 1).Add(b.yb[fi], -1), 0)
		case bind == BindFull:
			// Full-boundary merge: share the block's vertical extent.
			m.AddEQ(milp.T(b.yb[fi], 1).Add(b.yb[att.Rect], -1), 0)
		case bind == BindRow:
			// Pin to the carried flow rows: yb = block.yb + pinLo - d.
			m.AddEQ(milp.T(b.yb[fi], 1).Add(b.yb[att.Rect], -1), (pinLo-module.D)/mmScale)
		}
	}
	bindEnd(r.A, r.ABind, r.APinLo)
	bindEnd(r.B, r.BBind, r.BPinLo)
}

// addCtrlConstraints glues control rects to their owners and to a MUX
// boundary (constraints (9)-(11)).
func (b *builder) addCtrlConstraints() {
	m := b.model
	M := b.bigM
	for ci, r := range b.rects {
		if r.Kind != RCtrl {
			continue
		}
		o := r.Owner
		m.AddEQ(milp.T(b.xl[ci], 1).Add(b.xl[o], -1), 0)
		m.AddEQ(milp.T(b.xr[ci], 1).Add(b.xr[o], -1), 0)
		if b.pr.Muxes == 1 {
			// Forced bottom: yb = 0, yt = owner.yb.
			m.AddEQ(milp.T(b.yb[ci], 1), 0)
			m.AddEQ(milp.T(b.yt[ci], 1).Add(b.yb[o], -1), 0)
			continue
		}
		qb := m.Binary(r.Name + ".qb")
		qt := m.Binary(r.Name + ".qt")
		// Bottom option (qb = 0 active): yb = 0, yt = owner.yb.
		m.AddLE(milp.T(b.yb[ci], 1).Add(qb, -M), 0)
		m.AddLE(milp.T(b.yt[ci], 1).Add(b.yb[o], -1).Add(qb, -M), 0)
		m.AddGE(milp.T(b.yt[ci], 1).Add(b.yb[o], -1).Add(qb, M), 0)
		// Top option (qt = 0 active): yb = owner.yt, yt = ymax.
		m.AddLE(milp.T(b.yb[ci], 1).Add(b.yt[o], -1).Add(qt, -M), 0)
		m.AddGE(milp.T(b.yb[ci], 1).Add(b.yt[o], -1).Add(qt, M), 0)
		m.AddGE(milp.T(b.yt[ci], 1).Add(b.ymax, -1).Add(qt, M), 0)
		m.MarkDisjunction([]milp.VarID{qb, qt})
		b.ctrlQ[ci] = [2]milp.VarID{qb, qt}
	}
	// A 2-MUX netlist asks for two multiplexers, so the channel load must
	// actually split: each boundary carries at least a third of the
	// channels (the paper's 2-MUX designs populate both MUXes; without
	// this the solver would collapse everything onto one boundary).
	if b.pr.Muxes == 2 && len(b.ctrlQ) >= 2 {
		total, maxLoad := 0.0, 0.0
		topLoad := milp.NewExpr() // channels on the top boundary: Σ n·(1-qt)
		for ci, qs := range b.ctrlQ {
			n := float64(b.rects[ci].NumChannels)
			total += n
			if n > maxLoad {
				maxLoad = n
			}
			topLoad.AddConst(n)
			topLoad.Add(qs[1], -n)
		}
		// A single dominant rect may make an exact third-split impossible;
		// relax the band just enough to keep it satisfiable.
		lo := math.Min(total/3, total-maxLoad)
		hi := math.Max(2*total/3, maxLoad)
		m.AddGE(topLoad, lo)
		m.AddLE(topLoad, hi)
	}
}

// needDisjunction reports whether rects i and j still need an explicit
// non-overlap disjunction.
func (b *builder) needDisjunction(i, j int) bool {
	ri, rj := b.rects[i], b.rects[j]
	if !conflicting(ri.Kind, rj.Kind) {
		return false
	}
	if b.xOrder[[2]int{i, j}] || b.xOrder[[2]int{j, i}] {
		return false
	}
	// A flow rect never conflicts with the rects it attaches to.
	if ri.Kind == RFlow && attachedFlow(ri, j) {
		return false
	}
	if rj.Kind == RFlow && attachedFlow(rj, i) {
		return false
	}
	// A control rect is vertically separated from its owner by
	// construction.
	if ri.Kind == RCtrl && ri.Owner == j {
		return false
	}
	if rj.Kind == RCtrl && rj.Owner == i {
		return false
	}
	return true
}

// addNonOverlap emits constraints (3)-(5) for the given conflicting
// pairs. In guided mode, relations are fixed from the seed geometry
// instead (the seed must already be placed).
func (b *builder) addNonOverlap(guided bool, active [][2]int) {
	if guided {
		b.addSeedRelations(active)
		return
	}
	m := b.model
	M := b.bigM
	for _, p := range active {
		i, j := p[0], p[1]
		ri, rj := b.rects[i], b.rects[j]
		// Both control rects forced to the bottom boundary can only
		// separate horizontally.
		xOnly := b.pr.Muxes == 1 && ri.Kind == RCtrl && rj.Kind == RCtrl
		// Delta warm start: both rects carry donor geometry, so the
		// donor's relative order stands in for the disjunction — the
		// binaries collapse and the pair costs one LE row. Pairs the
		// donor boxes cannot order cleanly (or that may only separate
		// horizontally when the donor shows a vertical split) keep the
		// full disjunction.
		if b.deltaFixed[p] {
			if rel, ok := b.relationFrom(b.deltaBoxes, i, j, xOnly); ok {
				b.addRelation(rel)
				b.deltaApplied++
				continue
			}
		}
		mbij, mbji := b.pairMargins(i, j)
		q1 := m.Binary(fmt.Sprintf("q.%s|%s.l", ri.Name, rj.Name))
		q2 := m.Binary(fmt.Sprintf("q.%s|%s.r", ri.Name, rj.Name))
		// (3): horizontal options.
		m.AddLE(milp.T(b.xr[i], 1).Add(b.xl[j], -1).Add(q1, -M), 0)
		m.AddLE(milp.T(b.xr[j], 1).Add(b.xl[i], -1).Add(q2, -M), 0)
		qs := []milp.VarID{q1, q2}
		if !xOnly {
			q3 := m.Binary(fmt.Sprintf("q.%s|%s.b", ri.Name, rj.Name))
			q4 := m.Binary(fmt.Sprintf("q.%s|%s.a", ri.Name, rj.Name))
			// (4): vertical options, with the port-pitch margins where
			// the pair shares a flow boundary.
			m.AddLE(milp.T(b.yt[i], 1).Add(b.yb[j], -1).Add(q3, -M), -mbij/mmScale)
			m.AddLE(milp.T(b.yt[j], 1).Add(b.yb[i], -1).Add(q4, -M), -mbji/mmScale)
			qs = append(qs, q3, q4)
		}
		// (5): exactly one option active.
		m.MarkDisjunction(qs)
		b.pairs = append(b.pairs, pairDisj{i: i, j: j, qs: qs, xOnly: xOnly, mBelow: mbij, mAbove: mbji})
	}
}

// orderRelation is one fixed relative position of two rects on one
// axis: rect hi starts at least gap µm past the end of rect lo — east of
// it on x (xl[hi] ≥ xr[lo] + gap), above it on y (yb[hi] ≥ yt[lo] + gap).
type orderRelation struct {
	y      bool
	lo, hi int
	gap    float64
}

// relationFrom reads the relative order of rects i, j off the given
// geometry: the x split first, then the y split with the pair's
// port-pitch margin as its gap. It refuses to guess: boxes the geometry
// leaves overlapping, or a vertical split for a pair that may only
// separate horizontally (xOnly), report false.
func (b *builder) relationFrom(boxes []geom.Rect, i, j int, xOnly bool) (orderRelation, bool) {
	bi, bj := boxes[i], boxes[j]
	switch {
	case bi.XR <= bj.XL+1: // i west of j
		return orderRelation{lo: i, hi: j}, true
	case bj.XR <= bi.XL+1:
		return orderRelation{lo: j, hi: i}, true
	case !xOnly && bi.YT <= bj.YB+1: // i below j
		mbij, _ := b.pairMargins(i, j)
		return orderRelation{y: true, lo: i, hi: j, gap: mbij}, true
	case !xOnly && bj.YT <= bi.YB+1:
		_, mbji := b.pairMargins(i, j)
		return orderRelation{y: true, lo: j, hi: i, gap: mbji}, true
	}
	return orderRelation{}, false
}

// addRelation emits rel as a single LE row.
func (b *builder) addRelation(rel orderRelation) {
	if rel.y {
		b.model.AddLE(milp.T(b.yt[rel.lo], 1).Add(b.yb[rel.hi], -1), -rel.gap/mmScale)
		return
	}
	b.model.AddLE(milp.T(b.xr[rel.lo], 1).Add(b.xl[rel.hi], -1), 0)
}

// seedRelations returns the seed's relative position of every active
// pair (EffortGuided). Must run after snapshotSeed. The seed is
// overlap-free by construction, so relationFrom always finds one; should
// it not, the pair gets the last option, j below i.
func (b *builder) seedRelations(active [][2]int) []orderRelation {
	rels := make([]orderRelation, len(active))
	for k, p := range active {
		rel, ok := b.relationFrom(b.seedBoxes, p[0], p[1], false)
		if !ok {
			_, mbji := b.pairMargins(p[0], p[1])
			rel = orderRelation{y: true, lo: p[1], hi: p[0], gap: mbji}
		}
		rels[k] = rel
	}
	return rels
}

// addSeedRelations fixes every active pair to the seed's relative
// position (EffortGuided). On a round whose model is a pure LP (every
// 1-MUX guided round), relations implied by a chain of the others are
// left out: the feasible set, and so the optimum, is the same, with a
// row only where no chain covers the pair (chip256 keeps 93 of 1488;
// EXPERIMENTS.md, "Guided order-row reduction"). A round with binaries
// (the 2-MUX control sides) keeps every relation, because there the row
// set steers branch and bound.
func (b *builder) addSeedRelations(active [][2]int) {
	rels := b.seedRelations(active)
	implied := make([]bool, len(rels))
	if b.model.NumInt() == 0 {
		implied = impliedRelations(rels, b.minExtents())
	}
	for k, rel := range rels {
		if implied[k] {
			b.impliedRelations++
			continue
		}
		b.addRelation(rel)
	}
}

// minExtents returns every rect's minExtent, widths in [0] and heights
// in [1].
func (b *builder) minExtents() [2][]float64 {
	ext := [2][]float64{make([]float64, len(b.rects)), make([]float64, len(b.rects))}
	for i, r := range b.rects {
		ext[0][i], ext[1][i] = minExtent(r)
	}
	return ext
}

// impliedRelations marks every relation a chain of the others on its
// axis implies: a path lo → k₁ → … → hi whose gaps plus the intermediate
// rects' minimum extents (ext[0] widths, ext[1] heights, µm) cover its
// gap. All marked relations can go at once: on an acyclic axis a marked
// relation's chain can be rewritten through unmarked relations only, and
// no rewrite shortens it. An axis whose relations form a cycle keeps all
// of them. Per axis this is one Kahn order plus one longest-path pass per
// source rect, O(rects × relations).
func impliedRelations(rels []orderRelation, ext [2][]float64) []bool {
	n := len(ext[0])
	implied := make([]bool, len(rels))
	out := make([][]int, n) // per rect, the indices of its outgoing relations
	indeg := make([]int, n)
	order := make([]int, 0, n)
	// For the current source u: direct[k] is the gap of relation u → k,
	// via[k] the longest chain u → … → k of two or more relations.
	direct := make([]float64, n)
	via := make([]float64, n)
	for axis := 0; axis < 2; axis++ {
		for k := range out {
			out[k] = out[k][:0]
			indeg[k] = 0
		}
		for ri, rel := range rels {
			if rel.y == (axis == 1) {
				out[rel.lo] = append(out[rel.lo], ri)
				indeg[rel.hi]++
			}
		}
		order = order[:0]
		for k := 0; k < n; k++ {
			if indeg[k] == 0 {
				order = append(order, k)
			}
		}
		for q := 0; q < len(order); q++ {
			for _, ri := range out[order[q]] {
				h := rels[ri].hi
				if indeg[h]--; indeg[h] == 0 {
					order = append(order, h)
				}
			}
		}
		if len(order) < n {
			continue // a cycle: keep the axis whole
		}
		e := ext[axis]
		for p, u := range order {
			if len(out[u]) == 0 {
				continue
			}
			rest := order[p+1:]
			for _, k := range rest {
				direct[k], via[k] = math.Inf(-1), math.Inf(-1)
			}
			for _, ri := range out[u] {
				direct[rels[ri].hi] = math.Max(direct[rels[ri].hi], rels[ri].gap)
			}
			for _, k := range rest {
				d := math.Max(direct[k], via[k])
				if math.IsInf(d, -1) {
					continue
				}
				for _, ri := range out[k] {
					h := rels[ri].hi
					via[h] = math.Max(via[h], d+e[k]+rels[ri].gap)
				}
			}
			for _, ri := range out[u] {
				implied[ri] = via[rels[ri].hi] >= rels[ri].gap
			}
		}
	}
	return implied
}

// setObjective emits the minimisation objective (13).
func (b *builder) setObjective() {
	o := b.opt
	e := milp.NewExpr().
		Add(b.xmax, o.Alpha).
		Add(b.ymax, o.Beta).
		Add(b.xymax, o.Gamma)
	for i, r := range b.rects {
		switch r.Kind {
		case RFlow:
			e.Add(b.xr[i], o.Kappa*float64(r.NumChannels))
			e.Add(b.xl[i], -o.Kappa*float64(r.NumChannels))
		case RCtrl:
			e.Add(b.yt[i], o.Kappa*float64(r.NumChannels))
			e.Add(b.yb[i], -o.Kappa*float64(r.NumChannels))
		}
	}
	b.model.Minimize(e)
}

// seedVector converts the greedy seed geometry into a Start assignment
// for the MILP, deriving every auxiliary binary from the geometry. The
// snapshot (not the possibly-overwritten rect boxes) is the source: it is
// overlap-free by construction, so every disjunction binary is derivable.
func (b *builder) seedVector() []float64 {
	x := make([]float64, b.model.NumVars())
	xmaxV, ymaxV := 0.0, 0.0
	for _, bx := range b.seedBoxes {
		if bx.XR > xmaxV {
			xmaxV = bx.XR
		}
		if bx.YT > ymaxV {
			ymaxV = bx.YT
		}
	}
	for i := range b.rects {
		x[b.xl[i]] = b.seedBoxes[i].XL / mmScale
		x[b.xr[i]] = b.seedBoxes[i].XR / mmScale
		x[b.yb[i]] = b.seedBoxes[i].YB / mmScale
		x[b.yt[i]] = b.seedBoxes[i].YT / mmScale
	}
	x[b.xmax] = xmaxV / mmScale
	x[b.ymax] = ymaxV / mmScale
	x[b.xymax] = x[b.xmax]
	if x[b.ymax] > x[b.xymax] {
		x[b.xymax] = x[b.ymax]
	}
	for ci, qs := range b.ctrlQ {
		if b.seedTops[ci] {
			x[qs[0]], x[qs[1]] = 1, 0
		} else {
			x[qs[0]], x[qs[1]] = 0, 1
		}
	}
	for _, p := range b.pairs {
		bi, bj := b.seedBoxes[p.i], b.seedBoxes[p.j]
		for k := range p.qs {
			x[p.qs[k]] = 1
		}
		switch {
		case bi.XR <= bj.XL+1:
			x[p.qs[0]] = 0
		case bj.XR <= bi.XL+1:
			x[p.qs[1]] = 0
		case !p.xOnly && bi.YT+p.mBelow <= bj.YB+1:
			x[p.qs[2]] = 0
		case !p.xOnly && bj.YT+p.mAbove <= bi.YB+1:
			x[p.qs[3]] = 0
		default:
			x[p.qs[0]] = 0 // seed is broken; feasibility check will reject
		}
	}
	return x
}

// applySolution writes the MILP solution back into the rect boxes (µm).
func (b *builder) applySolution(res *milp.Result) (xmax, ymax float64) {
	for i, r := range b.rects {
		r.Box.XL = res.Value(b.xl[i]) * mmScale
		r.Box.XR = res.Value(b.xr[i]) * mmScale
		r.Box.YB = res.Value(b.yb[i]) * mmScale
		r.Box.YT = res.Value(b.yt[i]) * mmScale
		if qs, ok := b.ctrlQ[i]; ok {
			r.CtrlTop = res.Value(qs[1]) < 0.5
		}
	}
	return res.Value(b.xmax) * mmScale, res.Value(b.ymax) * mmScale
}

// sortedPlaceables returns placeable rect indices in deterministic
// topological order of the west-of relation (Kahn's algorithm with
// lowest-index tie-breaking).
func (b *builder) sortedPlaceables() []int {
	var nodes []int
	for i, r := range b.rects {
		if r.Placeable() {
			nodes = append(nodes, i)
		}
	}
	pred := map[int]int{}
	for _, i := range nodes {
		for _, j := range nodes {
			if b.xOrder[[2]int{j, i}] {
				pred[i]++
			}
		}
	}
	var out []int
	done := map[int]bool{}
	for len(out) < len(nodes) {
		pick := -1
		for _, i := range nodes {
			if !done[i] && pred[i] == 0 {
				pick = i
				break
			}
		}
		if pick < 0 {
			// Cycle in the order relation (should not happen); fall back
			// to declaration order for the remainder.
			sort.Ints(nodes)
			for _, i := range nodes {
				if !done[i] {
					out = append(out, i)
				}
			}
			return out
		}
		done[pick] = true
		out = append(out, pick)
		for _, j := range nodes {
			if !done[j] && b.xOrder[[2]int{pick, j}] {
				pred[j]--
			}
		}
	}
	return out
}
