// Package digital is a small gate-level logic simulator with the fault
// models the decoder macro's defect-oriented analysis needs: stuck-at
// faults (from opens and supply shorts) and bridging faults between
// signal nets (from extra-material defects), the latter flagging an IDDQ
// violation whenever the bridged nets are driven to opposite values — the
// classic quiescent-current detection mechanism for digital CMOS.
package digital

import (
	"fmt"
	"sort"
	"sync"
)

// GateType enumerates the supported gate functions.
type GateType int

// Gate functions. Inputs beyond the gate's arity are ignored.
const (
	Buf GateType = iota
	Not
	And
	Or
	Nand
	Nor
	Xor
)

// String implements fmt.Stringer.
func (g GateType) String() string {
	switch g {
	case Buf:
		return "buf"
	case Not:
		return "not"
	case And:
		return "and"
	case Or:
		return "or"
	case Nand:
		return "nand"
	case Nor:
		return "nor"
	case Xor:
		return "xor"
	}
	return fmt.Sprintf("gate(%d)", int(g))
}

// Gate drives one output net from input nets.
type Gate struct {
	Name string
	Type GateType
	Out  string
	In   []string
}

// FaultKind selects the digital fault model.
type FaultKind int

const (
	// FaultNone: fault-free evaluation.
	FaultNone FaultKind = iota
	// StuckAt forces net Net to Val.
	StuckAt
	// Bridge wire-ANDs nets Net and Net2 and raises the IDDQ flag when
	// they are driven to opposite values.
	Bridge
)

// Fault is a digital fault instance.
type Fault struct {
	Kind FaultKind
	Net  string
	Net2 string
	Val  bool
	// IDDQOnly marks a defect (junction pinhole, parasitic device) that
	// raises quiescent current without any logic effect.
	IDDQOnly bool
}

// Circuit is a feed-forward gate network. Once built, a Circuit is safe
// for concurrent Eval calls: the lazily computed topological order and
// compiled index program are mutex-guarded (the decoder macro shares
// one Circuit across parallel fault-class analyses).
type Circuit struct {
	Inputs  []string
	Outputs []string
	Gates   []*Gate

	mu      sync.Mutex
	ordered []*Gate
	prog    *program
}

// AddGate appends a gate.
func (c *Circuit) AddGate(name string, t GateType, out string, in ...string) {
	c.Gates = append(c.Gates, &Gate{Name: name, Type: t, Out: out, In: in})
	c.mu.Lock()
	c.ordered = nil
	c.prog = nil
	c.mu.Unlock()
}

// Nets returns the sorted names of all nets (inputs and gate outputs).
func (c *Circuit) Nets() []string {
	set := map[string]bool{}
	for _, in := range c.Inputs {
		set[in] = true
	}
	for _, g := range c.Gates {
		set[g.Out] = true
		for _, in := range g.In {
			set[in] = true
		}
	}
	out := make([]string, 0, len(set))
	for n := range set {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// topo orders gates so that every gate follows its drivers and returns
// the order. Returns an error on combinational loops (which cannot occur
// in a well-formed decoder but can be created by severe faults
// elsewhere).
func (c *Circuit) topo() ([]*Gate, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.ordered != nil {
		return c.ordered, nil
	}
	driver := map[string]*Gate{}
	for _, g := range c.Gates {
		driver[g.Out] = g
	}
	state := map[*Gate]int{} // 0 unseen, 1 visiting, 2 done
	var order []*Gate
	var visit func(g *Gate) error
	visit = func(g *Gate) error {
		switch state[g] {
		case 1:
			return fmt.Errorf("digital: combinational loop at %s", g.Name)
		case 2:
			return nil
		}
		state[g] = 1
		for _, in := range g.In {
			if d, ok := driver[in]; ok {
				if err := visit(d); err != nil {
					return err
				}
			}
		}
		state[g] = 2
		order = append(order, g)
		return nil
	}
	for _, g := range c.Gates {
		if err := visit(g); err != nil {
			return nil, err
		}
	}
	c.ordered = order
	return order, nil
}

// program is the compiled, index-addressed form of the network — the
// gate-level analogue of the analog side's compile-once/revalue-many
// split. Net names resolve to dense slot indices once; evaluation then
// runs over slices with no map traffic and no name formatting.
type program struct {
	index map[string]int // net name → slot
	nets  []string       // slot → net name (Values reconstruction)
	in    []int          // slot per Circuit.Inputs entry, in order
	gates []pgate        // topological order, index-resolved
}

type pgate struct {
	typ GateType
	out int32
	in  []int32
}

// compiled returns the circuit's index program, building it on first
// use (invalidated by AddGate, like the topological order).
func (c *Circuit) compiled() (*program, error) {
	ordered, err := c.topo()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.prog != nil {
		return c.prog, nil
	}
	p := &program{index: map[string]int{}}
	slot := func(name string) int32 {
		i, ok := p.index[name]
		if !ok {
			i = len(p.nets)
			p.index[name] = i
			p.nets = append(p.nets, name)
		}
		return int32(i)
	}
	for _, name := range c.Inputs {
		p.in = append(p.in, int(slot(name)))
	}
	p.gates = make([]pgate, len(ordered))
	for gi, g := range ordered {
		pg := pgate{typ: g.Type, out: slot(g.Out), in: make([]int32, len(g.In))}
		for i, in := range g.In {
			pg.in[i] = slot(in)
		}
		p.gates[gi] = pg
	}
	c.prog = p
	return p, nil
}

// NetIndex resolves a net name to its evaluation slot (-1, false when
// the circuit has no such net). The index is stable until AddGate.
func (c *Circuit) NetIndex(name string) (int, bool) {
	p, err := c.compiled()
	if err != nil {
		return -1, false
	}
	i, ok := p.index[name]
	if !ok {
		return -1, false
	}
	return i, ok
}

// Scratch is reusable single-goroutine evaluation state for EvalInto,
// holding lanes independent input patterns bit-parallel: lane l of slot
// idx is bit l%64 of word idx*words + l/64. Reset it, set the input
// lanes, evaluate, read output lanes — no allocation after construction.
type Scratch struct {
	words int
	live  []uint64 // per word, the bits that are lanes (the last word's top bits pad)
	val   []uint64 // slot-major: slot idx owns words [idx*words, (idx+1)*words)
	def   []uint64
}

// NewScratch returns a scratch of lanes patterns sized for the
// circuit's current net set.
func (c *Circuit) NewScratch(lanes int) (*Scratch, error) {
	p, err := c.compiled()
	if err != nil {
		return nil, err
	}
	words := (lanes + 63) / 64
	live := make([]uint64, words)
	for w := range live {
		live[w] = ^uint64(0) >> max(0, 64*(w+1)-lanes)
	}
	n := len(p.nets) * words
	return &Scratch{words: words, live: live, val: make([]uint64, n), def: make([]uint64, n)}, nil
}

// Reset clears every lane of every slot to undefined/false.
func (s *Scratch) Reset() {
	clear(s.val)
	clear(s.def)
}

// Set assigns one lane of slot idx (use before EvalInto for input nets).
func (s *Scratch) Set(idx, lane int, v bool) {
	i, bit := idx*s.words+lane/64, uint64(1)<<(lane%64)
	s.val[i] &^= bit
	if v {
		s.val[i] |= bit
	}
	s.def[i] |= bit
}

// SetWord assigns lanes 64w..64w+63 of slot idx at once, bit l%64 of
// bits being lane l.
func (s *Scratch) SetWord(idx, w int, bits uint64) {
	s.val[idx*s.words+w] = bits
	s.def[idx*s.words+w] = ^uint64(0)
}

// Val reads one lane of slot idx after EvalInto.
func (s *Scratch) Val(idx, lane int) bool {
	return s.val[idx*s.words+lane/64]>>(lane%64)&1 == 1
}

// eval computes word w of the gate's output from its input slots' words.
func (p *pgate) eval(val []uint64, w, words int) uint64 {
	switch p.typ {
	case Buf:
		return val[int(p.in[0])*words+w]
	case Not:
		return ^val[int(p.in[0])*words+w]
	case And, Nand:
		out := ^uint64(0)
		for _, in := range p.in {
			out &= val[int(in)*words+w]
		}
		if p.typ == Nand {
			return ^out
		}
		return out
	case Or, Nor:
		out := uint64(0)
		for _, in := range p.in {
			out |= val[int(in)*words+w]
		}
		if p.typ == Nor {
			return ^out
		}
		return out
	case Xor:
		out := uint64(0)
		for _, in := range p.in {
			out ^= val[int(in)*words+w]
		}
		return out
	}
	return 0
}

// EvalInto evaluates the circuit under fault f over every lane of the
// scratch at once, each gate one bitwise operation per word: the
// allocation-free core of Eval. Input lanes must be Set by the caller
// (an unset input reads false, as Eval's missing map key does); gate
// outputs land in the scratch for Val. iddq is the OR over lanes of
// Result.IDDQ and unstable the OR of Result.Unstable. Fault nets absent
// from the circuit read false and absorb writes, matching the map
// semantics for every observable output.
//
// Every lane follows the single-pattern pass sequence exactly: passes
// repeat while any lane changed, and a lane that settled is a fixed
// point the further passes leave alone. The bridge's wired-AND write
// touches only the lanes in conflict, and the dead lanes padding the
// last word are masked out of the change and IDDQ tests.
func (c *Circuit) EvalInto(s *Scratch, f Fault) (iddq, unstable bool, err error) {
	p, err := c.compiled()
	if err != nil {
		return false, false, err
	}
	slot := func(name string) int {
		if i, ok := p.index[name]; ok {
			return i
		}
		return -1
	}
	W := s.words
	fNet, fNet2 := -1, -1
	if f.Kind != FaultNone {
		fNet = slot(f.Net)
		if f.Kind == Bridge {
			fNet2 = slot(f.Net2)
		}
	}
	iddq = f.IDDQOnly
	var stuck uint64
	if f.Val {
		stuck = ^uint64(0)
	}
	if f.Kind == StuckAt && fNet >= 0 {
		for w := 0; w < W; w++ {
			s.SetWord(fNet, w, stuck)
		}
	}
	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		var changed uint64
		for gi := range p.gates {
			g := &p.gates[gi]
			out := int(g.out) * W
			for w := 0; w < W; w++ {
				nv := g.eval(s.val, w, W)
				if f.Kind == StuckAt && g.out == int32(fNet) {
					nv = stuck
				}
				changed |= (^s.def[out+w] | (s.val[out+w] ^ nv)) & s.live[w]
				s.val[out+w] = nv
				s.def[out+w] = ^uint64(0)
			}
		}
		if f.Kind == Bridge {
			for w := 0; w < W; w++ {
				var a, b uint64
				if fNet >= 0 {
					a = s.val[fNet*W+w]
				}
				if fNet2 >= 0 {
					b = s.val[fNet2*W+w]
				}
				// Wired-AND resolution, in the conflicting lanes only:
				// there a AND b is false.
				x := (a ^ b) & s.live[w]
				for _, n := range [2]int{fNet, fNet2} {
					if n >= 0 {
						s.val[n*W+w] &^= x
						s.def[n*W+w] |= x
					}
				}
				iddq = iddq || x != 0
				changed |= x
			}
		}
		if changed == 0 {
			return iddq, false, nil
		}
	}
	return iddq, true, nil
}

// Result of one faulty evaluation.
type Result struct {
	// Values maps every net to its settled value.
	Values map[string]bool
	// IDDQ reports an elevated quiescent current (bridge driven to
	// opposite values, or an IDDQ-only defect).
	IDDQ bool
	// Unstable reports that the bridge created an unresolvable conflict
	// (values did not settle); outputs are then unreliable.
	Unstable bool
}

// Eval computes the circuit response to the given input assignment under
// fault f (pass Fault{} for fault-free). Bridges are wired-AND and
// evaluated to a fixpoint. Eval is the map-shaped convenience wrapper
// over a one-lane EvalInto; hot paths (the decoder's all-levels sweep)
// hold a many-lane Scratch and call EvalInto directly.
func (c *Circuit) Eval(in map[string]bool, f Fault) (*Result, error) {
	s, err := c.NewScratch(1)
	if err != nil {
		return nil, err
	}
	p, _ := c.compiled()
	for _, idx := range p.in {
		s.Set(idx, 0, in[p.nets[idx]])
	}
	iddq, unstable, err := c.EvalInto(s, f)
	if err != nil {
		return nil, err
	}
	res := &Result{Values: map[string]bool{}, IDDQ: iddq, Unstable: unstable}
	for idx, def := range s.def {
		if def&1 == 1 {
			res.Values[p.nets[idx]] = s.val[idx]&1 == 1
		}
	}
	// A stuck-at on a net the circuit does not contain still lands in
	// the value map (it just drives nothing), as it always has.
	if f.Kind == StuckAt {
		if _, ok := p.index[f.Net]; !ok {
			res.Values[f.Net] = f.Val
		}
	}
	return res, nil
}
