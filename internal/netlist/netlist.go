package netlist

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
)

// UnitType is the kind of a functional unit.
type UnitType int

// Functional unit types from the Columba S module model library (§2.1).
// Inlet modules were removed from the library, and switches are not
// user-declared: they are introduced by netlist planarization.
const (
	Mixer UnitType = iota
	Chamber
)

func (u UnitType) String() string {
	switch u {
	case Mixer:
		return "mixer"
	case Chamber:
		return "chamber"
	}
	return "unknown"
}

// MixerOpt selects the mixer configuration of Figure 3(b)-(d).
type MixerOpt int

// Mixer configurations.
const (
	Plain    MixerOpt = iota // Figure 3(b): valves accessed from one side
	Sieve                    // Figure 3(c): adds four sieve valves (washing)
	CellTrap                 // Figure 3(d): adds four separation valves (cell capture)
)

func (o MixerOpt) String() string {
	switch o {
	case Plain:
		return "plain"
	case Sieve:
		return "sieve"
	case CellTrap:
		return "celltrap"
	}
	return "unknown"
}

// Unit is one functional unit required by the application.
type Unit struct {
	Name string
	Type UnitType
	Opt  MixerOpt // mixers only
	// W, H override the library footprint in µm when positive.
	W, H float64
}

// Endpoint is one end of a logic connection: either a functional unit or a
// fluid terminal on a flow boundary.
type Endpoint struct {
	Unit     string // unit name, or "" for a terminal
	Terminal string // fluid name, or "" for a unit endpoint
	Inlet    bool   // terminal direction: true = fluid inlet, false = outlet
}

// IsTerminal reports whether e names a boundary terminal.
func (e Endpoint) IsTerminal() bool { return e.Terminal != "" }

func (e Endpoint) String() string {
	if e.IsTerminal() {
		if e.Inlet {
			return "in:" + e.Terminal
		}
		return "out:" + e.Terminal
	}
	return e.Unit
}

// Net is one logic connection: all endpoints must be mutually reachable
// through the flow layer. Two-endpoint nets become dedicated channels;
// larger nets are realised with a switch during planarization.
type Net struct {
	Endpoints []Endpoint
}

// Netlist is a parsed application description.
type Netlist struct {
	Name     string
	Muxes    int // number of multiplexers, 1 or 2 (default 1)
	Units    []Unit
	Nets     []Net
	Parallel [][]string // groups of unit names sharing control channels
}

// Unit returns the named unit, or nil.
func (n *Netlist) Unit(name string) *Unit {
	for i := range n.Units {
		if n.Units[i].Name == name {
			return &n.Units[i]
		}
	}
	return nil
}

// NumUnits returns the number of functional units (#u in Table 1).
func (n *Netlist) NumUnits() int { return len(n.Units) }

// ParallelGroup returns the index of the parallel group containing the
// unit, or -1 when the unit is not parallelised.
func (n *Netlist) ParallelGroup(unit string) int {
	for gi, g := range n.Parallel {
		for _, u := range g {
			if u == unit {
				return gi
			}
		}
	}
	return -1
}

// Degree returns the number of net endpoints attached to the unit.
func (n *Netlist) Degree(unit string) int {
	d := 0
	for _, net := range n.Nets {
		for _, e := range net.Endpoints {
			if e.Unit == unit {
				d++
			}
		}
	}
	return d
}

// Terminals returns the distinct terminal names referenced by the netlist,
// sorted, split into inlets and outlets.
func (n *Netlist) Terminals() (inlets, outlets []string) {
	seenIn := map[string]bool{}
	seenOut := map[string]bool{}
	for _, net := range n.Nets {
		for _, e := range net.Endpoints {
			if !e.IsTerminal() {
				continue
			}
			if e.Inlet && !seenIn[e.Terminal] {
				seenIn[e.Terminal] = true
				inlets = append(inlets, e.Terminal)
			}
			if !e.Inlet && !seenOut[e.Terminal] {
				seenOut[e.Terminal] = true
				outlets = append(outlets, e.Terminal)
			}
		}
	}
	sort.Strings(inlets)
	sort.Strings(outlets)
	return inlets, outlets
}

// ParseError reports a syntax or semantic error with its line number.
type ParseError struct {
	Line int
	Msg  string
}

func (e *ParseError) Error() string {
	return fmt.Sprintf("netlist: line %d: %s", e.Line, e.Msg)
}

// Parse reads a netlist description in time linear in its length. A
// line that does not fit bufio.MaxScanTokenSize fails with a ParseError
// on that line.
func Parse(r io.Reader) (*Netlist, error) {
	n := &Netlist{Muxes: 1}
	units := map[string]bool{}   // declared unit names
	grouped := map[string]bool{} // units already in a parallel group
	sc := bufio.NewScanner(r)
	lineNo := 0
	fail := func(msg string, args ...any) error {
		return &ParseError{Line: lineNo, Msg: fmt.Sprintf(msg, args...)}
	}
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		switch fields[0] {
		case "design":
			if len(fields) != 2 {
				return nil, fail("design takes exactly one name")
			}
			n.Name = fields[1]
		case "muxes":
			if len(fields) != 2 {
				return nil, fail("muxes takes exactly one number")
			}
			v, err := strconv.Atoi(fields[1])
			if err != nil || (v != 1 && v != 2) {
				return nil, fail("muxes must be 1 or 2, got %q", fields[1])
			}
			n.Muxes = v
		case "unit":
			u, err := parseUnit(fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			if units[u.Name] {
				return nil, fail("duplicate unit %q", u.Name)
			}
			units[u.Name] = true
			n.Units = append(n.Units, u)
		case "connect":
			if len(fields) != 3 {
				return nil, fail("connect takes exactly two endpoints")
			}
			eps, err := parseEndpoints(units, fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			n.Nets = append(n.Nets, Net{Endpoints: eps})
		case "net":
			if len(fields) < 3 {
				return nil, fail("net takes at least two endpoints")
			}
			eps, err := parseEndpoints(units, fields[1:])
			if err != nil {
				return nil, fail("%v", err)
			}
			n.Nets = append(n.Nets, Net{Endpoints: eps})
		case "parallel":
			if len(fields) < 3 {
				return nil, fail("parallel takes at least two unit names")
			}
			group := fields[1:]
			for _, name := range group {
				if !units[name] {
					return nil, fail("parallel references unknown unit %q", name)
				}
				if grouped[name] {
					return nil, fail("unit %q already in a parallel group", name)
				}
			}
			for _, name := range group {
				grouped[name] = true
			}
			n.Parallel = append(n.Parallel, group)
		default:
			return nil, fail("unknown directive %q", fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		if errors.Is(err, bufio.ErrTooLong) {
			return nil, &ParseError{Line: lineNo + 1, Msg: fmt.Sprintf("line too long (limit %d bytes)", bufio.MaxScanTokenSize)}
		}
		return nil, err
	}
	if n.Name == "" {
		return nil, &ParseError{Line: lineNo, Msg: "missing design directive"}
	}
	if len(n.Units) == 0 {
		return nil, &ParseError{Line: lineNo, Msg: "netlist declares no units"}
	}
	return n, nil
}

// ParseString parses a netlist from a string.
func ParseString(s string) (*Netlist, error) { return Parse(strings.NewReader(s)) }

func parseUnit(fields []string) (Unit, error) {
	if len(fields) < 2 {
		return Unit{}, fmt.Errorf("unit takes a name and a type")
	}
	u := Unit{Name: fields[0]}
	switch fields[1] {
	case "mixer":
		u.Type = Mixer
	case "chamber":
		u.Type = Chamber
	default:
		return Unit{}, fmt.Errorf("unknown unit type %q", fields[1])
	}
	for _, f := range fields[2:] {
		switch {
		case f == "sieve":
			if u.Type != Mixer {
				return Unit{}, fmt.Errorf("sieve option only applies to mixers")
			}
			u.Opt = Sieve
		case f == "celltrap":
			if u.Type != Mixer {
				return Unit{}, fmt.Errorf("celltrap option only applies to mixers")
			}
			u.Opt = CellTrap
		case strings.HasPrefix(f, "w="):
			v, err := strconv.ParseFloat(f[2:], 64)
			if err != nil || v <= 0 {
				return Unit{}, fmt.Errorf("bad width %q", f)
			}
			u.W = v
		case strings.HasPrefix(f, "h="):
			v, err := strconv.ParseFloat(f[2:], 64)
			if err != nil || v <= 0 {
				return Unit{}, fmt.Errorf("bad height %q", f)
			}
			u.H = v
		default:
			return Unit{}, fmt.Errorf("unknown unit option %q", f)
		}
	}
	return u, nil
}

func parseEndpoints(units map[string]bool, fields []string) ([]Endpoint, error) {
	var eps []Endpoint
	for _, f := range fields {
		switch {
		case strings.HasPrefix(f, "in:"):
			name := f[len("in:"):]
			if name == "" {
				return nil, fmt.Errorf("empty inlet name")
			}
			eps = append(eps, Endpoint{Terminal: name, Inlet: true})
		case strings.HasPrefix(f, "out:"):
			name := f[len("out:"):]
			if name == "" {
				return nil, fmt.Errorf("empty outlet name")
			}
			eps = append(eps, Endpoint{Terminal: name, Inlet: false})
		default:
			if !units[f] {
				return nil, fmt.Errorf("unknown unit %q (units must be declared before use)", f)
			}
			eps = append(eps, Endpoint{Unit: f})
		}
	}
	return eps, nil
}

// Format renders the netlist back into its textual form; Parse(Format(n))
// round-trips.
func (n *Netlist) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "design %s\n", n.Name)
	fmt.Fprintf(&b, "muxes %d\n", n.Muxes)
	for _, u := range n.Units {
		fmt.Fprintf(&b, "unit %s %s", u.Name, u.Type)
		if u.Type == Mixer && u.Opt != Plain {
			fmt.Fprintf(&b, " %s", u.Opt)
		}
		if u.W > 0 {
			fmt.Fprintf(&b, " w=%g", u.W)
		}
		if u.H > 0 {
			fmt.Fprintf(&b, " h=%g", u.H)
		}
		b.WriteByte('\n')
	}
	for _, net := range n.Nets {
		if len(net.Endpoints) == 2 {
			fmt.Fprintf(&b, "connect %s %s\n", net.Endpoints[0], net.Endpoints[1])
			continue
		}
		b.WriteString("net")
		for _, e := range net.Endpoints {
			b.WriteByte(' ')
			b.WriteString(e.String())
		}
		b.WriteByte('\n')
	}
	for _, g := range n.Parallel {
		fmt.Fprintf(&b, "parallel %s\n", strings.Join(g, " "))
	}
	return b.String()
}

// Validate performs semantic checks beyond parsing: pin budgets and
// parallel-group shape. It returns nil when the netlist is synthesizable.
// It runs in time linear in the size of the netlist.
func (n *Netlist) Validate() error {
	degree := make(map[string]int, len(n.Units))
	for _, net := range n.Nets {
		for _, e := range net.Endpoints {
			degree[e.Unit]++
		}
	}
	for _, u := range n.Units {
		if degree[u.Name] == 0 {
			return fmt.Errorf("netlist: unit %q has no connections", u.Name)
		}
	}
	for gi, g := range n.Parallel {
		if len(g) < 2 {
			return fmt.Errorf("netlist: parallel group %d has fewer than two units", gi)
		}
	}
	for ni, net := range n.Nets {
		if len(net.Endpoints) < 2 {
			return fmt.Errorf("netlist: net %d has fewer than two endpoints", ni)
		}
		terminalOnly := true
		for _, e := range net.Endpoints {
			if !e.IsTerminal() {
				terminalOnly = false
			}
		}
		if terminalOnly {
			return fmt.Errorf("netlist: net %d connects only terminals", ni)
		}
	}
	return nil
}
