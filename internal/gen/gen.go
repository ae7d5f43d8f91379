package gen

import (
	"fmt"
	"math/rand"

	"columbas/internal/netlist"
)

// Config bounds the shape of generated netlists. The zero value is not
// useful; start from Default.
type Config struct {
	// MinLanes, MaxLanes bound the number of independent process lanes
	// (inlet → mixer → chamber chains) in a netlist.
	MinLanes, MaxLanes int
	// MaxMuxes caps the multiplexer count (1 or 2).
	MaxMuxes int
	// Collector enables joining the lanes into a shared collector mixer
	// through a multi-endpoint net (which planarization realises as a
	// switch).
	Collector bool
	// FanOut enables lanes whose mixer feeds two downstream chambers.
	FanOut bool
	// Blend enables an extra fan-in stage: a mixer fed by two inlets
	// through a single multi-endpoint net.
	Blend bool
	// Resize enables per-unit footprint overrides. Overrides only ever
	// scale modules up from their library size, so they cannot create
	// geometry too small for the module's internal valves.
	Resize bool
	// ParallelGroups enables grouping same-configuration lane mixers so
	// they share control channels.
	ParallelGroups bool
	// MaxGroupSize, when positive, switches the generator to scale-class
	// output (see Scale): uniform in → mixer → chamber lanes drained by
	// one collector switch, with same-option lanes chunked into parallel
	// groups of at most MaxGroupSize lanes each. FanOut, Blend, Resize
	// and the per-feature random gates are ignored in this mode — the
	// structure is fixed and only the mixer options vary with the seed.
	// Zero keeps the default small-netlist generator.
	MaxGroupSize int
}

// Default returns the configuration used by the conformance suite: small
// netlists (fast to synthesize) with every structural feature enabled.
func Default() Config {
	return Config{
		MinLanes:       1,
		MaxLanes:       4,
		MaxMuxes:       2,
		Collector:      true,
		FanOut:         true,
		Blend:          true,
		Resize:         true,
		ParallelGroups: true,
	}
}

// Generate builds a random netlist from the seed under the Default
// configuration.
func Generate(seed int64) *netlist.Netlist { return Default().Generate(seed) }

// Scale returns a chip-scale configuration: exactly lanes uniform
// process lanes (in → sieve/cell-trap/plain mixer → chamber) drained by
// one collector switch, with parallel groups of at most groupSize lanes.
// Scale(128, 8) and Scale(256, 8) produce chip128- and chip256-class
// netlists (the layout model keeps one block rectangle per group, so the
// LP dimension grows with lanes/groupSize); Scale(256, 8) feeds
// perfbench's scale workload.
func Scale(lanes, groupSize int) Config {
	return Config{
		MinLanes:       lanes,
		MaxLanes:       lanes,
		MaxMuxes:       1,
		Collector:      true,
		ParallelGroups: true,
		MaxGroupSize:   groupSize,
	}
}

// Generate builds a random netlist from the seed. The same seed always
// yields the same netlist. The result is guaranteed to pass
// netlist.Validate; a violation is a generator bug and panics.
func (c Config) Generate(seed int64) *netlist.Netlist {
	rng := rand.New(rand.NewSource(seed))
	n := &netlist.Netlist{
		Name:  fmt.Sprintf("rand%d", seed),
		Muxes: 1,
	}
	if c.MaxMuxes >= 2 && rng.Intn(4) == 0 {
		n.Muxes = 2
	}

	lanes := c.MinLanes
	if c.MaxLanes > c.MinLanes {
		lanes += rng.Intn(c.MaxLanes - c.MinLanes + 1)
	}
	if lanes < 1 {
		lanes = 1
	}

	opts := []netlist.MixerOpt{netlist.Plain, netlist.Sieve, netlist.CellTrap}

	if c.MaxGroupSize > 0 {
		return c.generateScale(rng, n, lanes, opts)
	}

	// Process lanes: in:s<i> → m<i> [→ c<i>], optionally fanning out to a
	// second chamber with its own outlet. tails collects each lane's last
	// unit, to be drained by the collector or a per-lane outlet.
	tails := make([]string, 0, lanes)
	laneOpt := make([]netlist.MixerOpt, 0, lanes)
	for i := 1; i <= lanes; i++ {
		opt := opts[rng.Intn(len(opts))]
		laneOpt = append(laneOpt, opt)
		m := fmt.Sprintf("m%d", i)
		n.Units = append(n.Units, c.unit(rng, m, netlist.Mixer, opt))
		n.Nets = append(n.Nets, net(in(fmt.Sprintf("s%d", i)), unit(m)))

		tail := m
		if rng.Intn(10) < 6 {
			ch := fmt.Sprintf("c%d", i)
			n.Units = append(n.Units, c.unit(rng, ch, netlist.Chamber, netlist.Plain))
			n.Nets = append(n.Nets, net(unit(m), unit(ch)))
			tail = ch
		}
		if c.FanOut && rng.Intn(10) < 3 {
			d := fmt.Sprintf("d%d", i)
			n.Units = append(n.Units, c.unit(rng, d, netlist.Chamber, netlist.Plain))
			n.Nets = append(n.Nets, net(unit(m), unit(d)))
			n.Nets = append(n.Nets, net(unit(d), out(fmt.Sprintf("f%d", i))))
		}
		tails = append(tails, tail)
	}

	// Drain the lanes: either a collector mixer joined by one switch net,
	// or an outlet per lane.
	if c.Collector && lanes >= 2 && rng.Intn(2) == 0 {
		n.Units = append(n.Units, c.unit(rng, "col", netlist.Mixer, opts[rng.Intn(len(opts))]))
		eps := make([]netlist.Endpoint, 0, lanes+2)
		for _, t := range tails {
			eps = append(eps, unit(t))
		}
		eps = append(eps, unit("col"), out("waste"))
		n.Nets = append(n.Nets, netlist.Net{Endpoints: eps})
		n.Nets = append(n.Nets, net(unit("col"), out("collect")))
	} else {
		for i, t := range tails {
			n.Nets = append(n.Nets, net(unit(t), out(fmt.Sprintf("p%d", i+1))))
		}
	}

	// Fan-in blend stage: two inlets and a mixer on one net.
	if c.Blend && rng.Intn(10) < 3 {
		n.Units = append(n.Units, c.unit(rng, "bl", netlist.Mixer, opts[rng.Intn(len(opts))]))
		n.Nets = append(n.Nets, netlist.Net{Endpoints: []netlist.Endpoint{
			in("buf1"), in("buf2"), unit("bl"),
		}})
		n.Nets = append(n.Nets, net(unit("bl"), out("blend")))
	}

	// Parallel-control groups: lane mixers sharing a configuration can
	// share control channels.
	if c.ParallelGroups && rng.Intn(10) < 4 {
		byOpt := map[netlist.MixerOpt][]string{}
		for i, opt := range laneOpt {
			byOpt[opt] = append(byOpt[opt], fmt.Sprintf("m%d", i+1))
		}
		for _, opt := range opts {
			if g := byOpt[opt]; len(g) >= 2 {
				n.Parallel = append(n.Parallel, g)
			}
		}
	}

	if err := n.Validate(); err != nil {
		panic(fmt.Sprintf("gen: seed %d produced an invalid netlist: %v", seed, err))
	}
	return n
}

// generateScale emits a chip128/chip256-class netlist: lanes uniform
// in:s<i> → m<i> → c<i> chains, one collector switch joining every
// chamber, and parallel groups of at most MaxGroupSize same-option lanes
// each (mirroring the synthetic ChIP cases, cases.ChIPScale). Only the
// per-lane mixer options are random; the structure — and therefore the
// layout-model size — is fixed by the configuration. Lanes whose option
// chunk would leave them alone stay independent (a parallel group needs
// at least two members).
func (c Config) generateScale(rng *rand.Rand, n *netlist.Netlist, lanes int, opts []netlist.MixerOpt) *netlist.Netlist {
	laneOpt := make([]netlist.MixerOpt, 0, lanes)
	for i := 1; i <= lanes; i++ {
		opt := opts[rng.Intn(len(opts))]
		laneOpt = append(laneOpt, opt)
		m := fmt.Sprintf("m%d", i)
		ch := fmt.Sprintf("c%d", i)
		n.Units = append(n.Units,
			netlist.Unit{Name: m, Type: netlist.Mixer, Opt: opt},
			netlist.Unit{Name: ch, Type: netlist.Chamber, Opt: netlist.Plain})
		n.Nets = append(n.Nets, net(in(fmt.Sprintf("s%d", i)), unit(m)))
		n.Nets = append(n.Nets, net(unit(m), unit(ch)))
	}

	// One collector mixer drains every chamber through a single switch.
	n.Units = append(n.Units, netlist.Unit{Name: "col", Type: netlist.Mixer, Opt: netlist.Plain})
	eps := make([]netlist.Endpoint, 0, lanes+2)
	for i := 1; i <= lanes; i++ {
		eps = append(eps, unit(fmt.Sprintf("c%d", i)))
	}
	eps = append(eps, unit("col"), out("waste"))
	n.Nets = append(n.Nets, netlist.Net{Endpoints: eps})
	n.Nets = append(n.Nets, net(unit("col"), out("collect")))

	// Chunk same-option lanes into parallel groups of at most MaxGroupSize
	// lanes, each group carrying its mixers and chambers.
	if c.ParallelGroups {
		byOpt := map[netlist.MixerOpt][]int{}
		for i, opt := range laneOpt {
			byOpt[opt] = append(byOpt[opt], i+1)
		}
		for _, opt := range opts {
			ls := byOpt[opt]
			for start := 0; start < len(ls); start += c.MaxGroupSize {
				end := start + c.MaxGroupSize
				if end > len(ls) {
					end = len(ls)
				}
				if end-start < 2 {
					break
				}
				g := make([]string, 0, 2*(end-start))
				for _, i := range ls[start:end] {
					g = append(g, fmt.Sprintf("m%d", i), fmt.Sprintf("c%d", i))
				}
				n.Parallel = append(n.Parallel, g)
			}
		}
	}

	if err := n.Validate(); err != nil {
		panic(fmt.Sprintf("gen: scale netlist (%d lanes, groups of %d) invalid: %v", lanes, c.MaxGroupSize, err))
	}
	return n
}

// unit builds a Unit, rolling an optional scale-up footprint override.
func (c Config) unit(rng *rand.Rand, name string, typ netlist.UnitType, opt netlist.MixerOpt) netlist.Unit {
	u := netlist.Unit{Name: name, Type: typ, Opt: opt}
	if c.Resize && rng.Intn(10) < 2 {
		w, h := baseFootprint(typ)
		// Grow by up to 50% in quarter steps; never shrink below the
		// library footprint.
		u.W = w * (1 + 0.25*float64(rng.Intn(3)))
		u.H = h * (1 + 0.25*float64(rng.Intn(3)))
	}
	return u
}

// baseFootprint mirrors module.Footprint's library defaults without
// importing the module package (gen sits below the geometry layers).
func baseFootprint(typ netlist.UnitType) (w, h float64) {
	if typ == netlist.Chamber {
		return 2000, 1200
	}
	return 3000, 3000
}

func in(name string) netlist.Endpoint  { return netlist.Endpoint{Terminal: name, Inlet: true} }
func out(name string) netlist.Endpoint { return netlist.Endpoint{Terminal: name} }
func unit(name string) netlist.Endpoint {
	return netlist.Endpoint{Unit: name}
}

func net(a, b netlist.Endpoint) netlist.Net { return netlist.Net{Endpoints: []netlist.Endpoint{a, b}} }
