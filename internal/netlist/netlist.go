// Package netlist represents analog circuits at the element level: nodes,
// two-terminal elements (resistors, capacitors, independent sources) and
// MOSFETs with a level-1 model. Circuits are built programmatically by the
// macro-cell library and mutated by the fault modeller (element insertion
// for shorts, terminal retargeting for opens).
//
// The package defines the element Stamp interface the MNA engine in
// internal/spice consumes; elements stamp their linearised companion models
// into a Context supplied by the engine.
package netlist

import (
	"fmt"
	"sort"
)

// NodeID identifies a circuit node. Ground is node 0 and is always named
// "0"; its voltage is the reference and it carries no MNA unknown.
type NodeID int

// Ground is the reference node.
const Ground NodeID = 0

// Circuit is a flat netlist.
type Circuit struct {
	names  []string
	byName map[string]NodeID
	Elems  []Element

	// elemIdx lazily indexes Elems by name for Element; idxLen is how
	// many of Elems it has absorbed. The index is only materialised on
	// first use, so circuits that are never searched by name pay
	// nothing.
	elemIdx map[string]Element
	idxLen  int
}

// New returns an empty circuit containing only the ground node "0".
func New() *Circuit {
	c := &Circuit{byName: map[string]NodeID{}}
	c.names = append(c.names, "0")
	c.byName["0"] = Ground
	return c
}

// Node returns the node with the given name, creating it if necessary.
func (c *Circuit) Node(name string) NodeID {
	if id, ok := c.byName[name]; ok {
		return id
	}
	id := NodeID(len(c.names))
	c.names = append(c.names, name)
	c.byName[name] = id
	return id
}

// NodeByName returns the node and whether it exists, without creating it.
func (c *Circuit) NodeByName(name string) (NodeID, bool) {
	id, ok := c.byName[name]
	return id, ok
}

// NodeName returns the name of node n.
func (c *Circuit) NodeName(n NodeID) string { return c.names[n] }

// NumNodes returns the node count including ground.
func (c *Circuit) NumNodes() int { return len(c.names) }

// Add appends an element.
func (c *Circuit) Add(e Element) { c.Elems = append(c.Elems, e) }

// Element returns the element with the given name, or nil. It looks
// the name up through the lazy index, extending it over any elements
// appended since the last lookup (fault injection adds elements after
// construction). Duplicate labels keep the first occurrence.
func (c *Circuit) Element(name string) Element {
	if c.idxLen < len(c.Elems) {
		if c.elemIdx == nil {
			c.elemIdx = make(map[string]Element, len(c.Elems))
		}
		for _, e := range c.Elems[c.idxLen:] {
			if _, dup := c.elemIdx[e.Name()]; !dup {
				c.elemIdx[e.Name()] = e
			}
		}
		c.idxLen = len(c.Elems)
	}
	return c.elemIdx[name]
}

// NodeNames returns the sorted names of all non-ground nodes.
func (c *Circuit) NodeNames() []string {
	out := append([]string(nil), c.names[1:]...)
	sort.Strings(out)
	return out
}

// StampMode selects the analysis context for stamping.
type StampMode int

const (
	// DCOp: capacitors are open circuits, sources at their t=0 value.
	DCOp StampMode = iota
	// Transient: capacitors use a backward-Euler companion model.
	Transient
)

// Context is the engine-provided stamping target for one Newton iteration.
// Stamps read the iterate through dense views and write through AddA and
// AddB, which either accumulate into the dense matrix and right-hand side
// or, when Rec is set, append to a recording.
type Context struct {
	Mode StampMode
	// Time is the current analysis time; Dt the timestep (Transient only).
	Time, Dt float64
	// SrcScale scales all independent sources (source-stepping homotopy).
	SrcScale float64
	// Gmin is the convergence-aid conductance applied by nonlinear
	// elements from their terminals to ground.
	Gmin float64

	// ADense/BDense are a dense row-major N×N matrix and length-N
	// right-hand side that AddA/AddB accumulate into when Rec is nil.
	// Node n has MNA index n-1; aux variables have indices assigned by
	// the engine.
	ADense, BDense []float64
	N              int

	// XDense/XPrevDense are the present iterate and the previous accepted
	// timestep (Transient), node n at index n-1, read by XAt/XPrevAt. A
	// recording context leaves XDense nil: linear stamps do not depend on
	// the iterate, and one that read it would replay a stale value.
	XDense, XPrevDense []float64

	// Rec, when non-nil, receives every AddA/AddB as a recorded op
	// instead of the dense views.
	Rec *Recording
}

// Op is one recorded stamp operation: accumulate V into cell K, the
// flattened matrix index i*N+j of an A op or the row of a B op.
type Op struct {
	K int
	V float64
}

// Recording holds the ops a recording Context captured, in stamp order.
type Recording struct {
	A, B []Op
}

// XAt returns the present iterate's voltage at a node.
func (ctx *Context) XAt(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return ctx.XDense[int(n)-1]
}

// XPrevAt returns the previous accepted timestep's voltage at a node.
func (ctx *Context) XPrevAt(n NodeID) float64 {
	if n == Ground {
		return 0
	}
	return ctx.XPrevDense[int(n)-1]
}

// AddA accumulates v into matrix entry (i, j), or records it.
func (ctx *Context) AddA(i, j int, v float64) {
	if ctx.Rec != nil {
		ctx.Rec.A = append(ctx.Rec.A, Op{i*ctx.N + j, v})
		return
	}
	ctx.ADense[i*ctx.N+j] += v
}

// AddB accumulates v into right-hand-side row i, or records it.
func (ctx *Context) AddB(i int, v float64) {
	if ctx.Rec != nil {
		ctx.Rec.B = append(ctx.Rec.B, Op{i, v})
		return
	}
	ctx.BDense[i] += v
}

// idx converts a node to its MNA index (-1 for ground).
func idx(n NodeID) int { return int(n) - 1 }

// StampG stamps a conductance g between nodes a and b.
func (ctx *Context) StampG(a, b NodeID, g float64) {
	ia, ib := idx(a), idx(b)
	if ia >= 0 {
		ctx.AddA(ia, ia, g)
	}
	if ib >= 0 {
		ctx.AddA(ib, ib, g)
	}
	if ia >= 0 && ib >= 0 {
		ctx.AddA(ia, ib, -g)
		ctx.AddA(ib, ia, -g)
	}
}

// StampI stamps a constant current i flowing from node a through the
// element to node b (leaving a, entering b).
func (ctx *Context) StampI(a, b NodeID, i float64) {
	if ia := idx(a); ia >= 0 {
		ctx.AddB(ia, -i)
	}
	if ib := idx(b); ib >= 0 {
		ctx.AddB(ib, i)
	}
}

// StampVS stamps an ideal voltage source v between a (+) and b (-) using
// the aux unknown (branch current) at index aux.
func (ctx *Context) StampVS(a, b NodeID, aux int, v float64) {
	ia, ib := idx(a), idx(b)
	if ia >= 0 {
		ctx.AddA(ia, aux, 1)
		ctx.AddA(aux, ia, 1)
	}
	if ib >= 0 {
		ctx.AddA(ib, aux, -1)
		ctx.AddA(aux, ib, -1)
	}
	ctx.AddB(aux, v)
}

// StampTransG stamps a transconductance: current g*(Vc-Vd) flowing from
// node a to node b.
func (ctx *Context) StampTransG(a, b, cp, cn NodeID, g float64) {
	ia, ib, ic, id := idx(a), idx(b), idx(cp), idx(cn)
	if ia >= 0 && ic >= 0 {
		ctx.AddA(ia, ic, g)
	}
	if ia >= 0 && id >= 0 {
		ctx.AddA(ia, id, -g)
	}
	if ib >= 0 && ic >= 0 {
		ctx.AddA(ib, ic, -g)
	}
	if ib >= 0 && id >= 0 {
		ctx.AddA(ib, id, g)
	}
}

// Element is anything that can stamp itself into the MNA system.
type Element interface {
	// Name returns the unique element name.
	Name() string
	// Nodes returns the element's terminal nodes in a fixed order.
	Nodes() []NodeID
	// Retarget reconnects terminal i (index into Nodes()) to node n;
	// used by the open-fault model.
	Retarget(i int, n NodeID)
	// NumAux returns how many MNA auxiliary unknowns (branch currents)
	// the element needs.
	NumAux() int
	// Stamp writes the element's linearised contribution for the current
	// iterate into ctx. auxBase is the index of the element's first aux
	// unknown (meaningless if NumAux() == 0).
	Stamp(ctx *Context, auxBase int)
}

// LinearElement is an element whose stamp is independent of the present
// iterate X; implementing StampB is what makes an element linear. Its
// matrix stamps depend only on the stamp mode, Dt, Gmin and SrcScale,
// never on Time or the previous timestep, which reach only the
// right-hand side. StampB must perform exactly the AddB calls Stamp
// would perform — same values, same order — and no AddA call. The engine
// invokes it instead of Stamp when it re-records only the right-hand
// side under a still-valid matrix recording.
type LinearElement interface {
	Element
	StampB(ctx *Context, auxBase int)
}

// GStamper is an optional interface for elements whose entire stamp in
// a given mode is a single two-node conductance — i.e. Stamp performs
// exactly StampG(a, b, g) and nothing else (no right-hand side, no aux
// rows). The low-rank fault-update path uses it to express an injected
// element as a rank-1 delta against the nominal matrix; an element that
// cannot make that promise for the mode returns ok == false and the
// caller falls back to a full refactor.
type GStamper interface {
	ConductanceStamp(mode StampMode) (a, b NodeID, g float64, ok bool)
}

// badTerminal formats the panic message for Retarget misuse.
func badTerminal(name string, i int) string {
	return fmt.Sprintf("netlist: element %s has no terminal %d", name, i)
}
