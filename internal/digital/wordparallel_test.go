package digital

import (
	"fmt"
	"math/rand"
	"testing"
)

// refGate is the single-pattern gate function of the scalar evaluator.
func refGate(p *pgate, val []bool) bool {
	switch p.typ {
	case Buf:
		return val[p.in[0]]
	case Not:
		return !val[p.in[0]]
	case And, Nand:
		out := true
		for _, in := range p.in {
			out = out && val[in]
		}
		if p.typ == Nand {
			return !out
		}
		return out
	case Or, Nor:
		out := false
		for _, in := range p.in {
			out = out || val[in]
		}
		if p.typ == Nor {
			return !out
		}
		return out
	case Xor:
		out := false
		for _, in := range p.in {
			out = out != val[in]
		}
		return out
	}
	return false
}

// refEval is the scalar evaluator EvalInto replaced, one input pattern
// over bool slots: the reference the word-parallel lanes must match.
// in holds one value per Circuit.Inputs entry.
func refEval(c *Circuit, in []bool, f Fault) (val, def []bool, iddq, unstable bool, err error) {
	p, err := c.compiled()
	if err != nil {
		return nil, nil, false, false, err
	}
	val, def = make([]bool, len(p.nets)), make([]bool, len(p.nets))
	for i, idx := range p.in {
		val[idx], def[idx] = in[i], true
	}
	slot := func(name string) int {
		if i, ok := p.index[name]; ok {
			return i
		}
		return -1
	}
	read := func(idx int) bool { return idx >= 0 && val[idx] }
	write := func(idx int, v bool) {
		if idx >= 0 {
			val[idx] = v
			def[idx] = true
		}
	}
	fNet, fNet2 := -1, -1
	if f.Kind != FaultNone {
		fNet = slot(f.Net)
		if f.Kind == Bridge {
			fNet2 = slot(f.Net2)
		}
	}
	if f.IDDQOnly {
		iddq = true
	}
	if f.Kind == StuckAt {
		write(fNet, f.Val)
	}
	const maxPasses = 4
	for pass := 0; pass < maxPasses; pass++ {
		changed := false
		for gi := range p.gates {
			g := &p.gates[gi]
			nv := refGate(g, val)
			if f.Kind == StuckAt && g.out == int32(fNet) {
				nv = f.Val
			}
			if !def[g.out] || val[g.out] != nv {
				val[g.out] = nv
				def[g.out] = true
				changed = true
			}
		}
		if f.Kind == Bridge {
			a, b := read(fNet), read(fNet2)
			if a != b {
				iddq = true
				write(fNet, a && b)
				write(fNet2, a && b)
				changed = true
			}
		}
		if !changed {
			return val, def, iddq, false, nil
		}
	}
	return val, def, iddq, true, nil
}

// randomCircuit builds an acyclic network of 1–14 gates of every type
// with 1–3 inputs each. Gates read up to 8 primary inputs, earlier
// gates' outputs and a few nets nothing drives.
func randomCircuit(rng *rand.Rand) *Circuit {
	c := &Circuit{}
	for i := rng.Intn(8) + 1; i > 0; i-- {
		c.Inputs = append(c.Inputs, fmt.Sprintf("i%d", len(c.Inputs)))
	}
	readable := append([]string{"u0", "u1"}, c.Inputs...)
	for g := rng.Intn(14) + 1; g > 0; g-- {
		in := make([]string, rng.Intn(3)+1)
		for i := range in {
			in[i] = readable[rng.Intn(len(readable))]
		}
		out := fmt.Sprintf("g%d", len(c.Gates))
		c.AddGate(out+"x", GateType(rng.Intn(int(Xor)+1)), out, in...)
		readable = append(readable, out)
	}
	return c
}

// randomFault draws a fault over the circuit's nets: stuck-ats, bridges
// (often between a gate's input and its output, so the bridge feeds
// back), nets the circuit lacks, and the IDDQ-only flag.
func randomFault(rng *rand.Rand, c *Circuit) Fault {
	nets := append(c.Nets(), "absent")
	net := func() string { return nets[rng.Intn(len(nets))] }
	f := Fault{IDDQOnly: rng.Intn(5) == 0}
	switch rng.Intn(4) {
	case 1:
		f.Kind, f.Net, f.Val = StuckAt, net(), rng.Intn(2) == 1
	case 2:
		f.Kind, f.Net, f.Net2 = Bridge, net(), net()
	case 3:
		g := c.Gates[rng.Intn(len(c.Gates))]
		f.Kind, f.Net, f.Net2 = Bridge, g.In[rng.Intn(len(g.In))], g.Out
	}
	return f
}

// TestWordParallelMatchesScalar is the differential property test of
// the word-parallel evaluator: on random circuits, faults and lane
// counts (1–150, so partial last words too), every lane's settled
// values and defined bits must equal the scalar reference's run of that
// lane's pattern, the flags must be the OR of the reference's, and the
// one-lane Eval must rebuild the reference's value map.
func TestWordParallelMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 400; trial++ {
		c := randomCircuit(rng)
		f := randomFault(rng, c)
		lanes := rng.Intn(150) + 1
		s, err := c.NewScratch(lanes)
		if err != nil {
			t.Fatal(err)
		}
		p, _ := c.compiled()
		// Each word draws its lanes' input bits at a density of its own,
		// so different words settle after different numbers of passes.
		pats := make([][]bool, lanes)
		var density float64
		for l := range pats {
			if l%64 == 0 {
				density = []float64{0, 0.1, 0.5, 0.9, 1}[rng.Intn(5)]
			}
			pats[l] = make([]bool, len(c.Inputs))
			for i, idx := range p.in {
				pats[l][i] = rng.Float64() < density
				s.Set(idx, l, pats[l][i])
			}
		}
		iddq, unstable, err := c.EvalInto(s, f)
		if err != nil {
			t.Fatal(err)
		}
		var wantIDDQ, wantUnstable bool
		for l, pat := range pats {
			val, def, li, lu, err := refEval(c, pat, f)
			if err != nil {
				t.Fatal(err)
			}
			wantIDDQ, wantUnstable = wantIDDQ || li, wantUnstable || lu
			for idx := range val {
				gotDef := s.def[idx*s.words+l/64]>>(l%64)&1 == 1
				if s.Val(idx, l) != val[idx] || gotDef != def[idx] {
					t.Fatalf("trial %d, %d lanes, %+v: lane %d net %s = %v (def %v), scalar %v (def %v)",
						trial, lanes, f, l, p.nets[idx], s.Val(idx, l), gotDef, val[idx], def[idx])
				}
			}
		}
		if iddq != wantIDDQ || unstable != wantUnstable {
			t.Fatalf("trial %d, %d lanes, %+v: flags iddq=%v unstable=%v, scalar %v %v",
				trial, lanes, f, iddq, unstable, wantIDDQ, wantUnstable)
		}

		in := map[string]bool{}
		for i, name := range c.Inputs {
			in[name] = pats[0][i]
		}
		res, err := c.Eval(in, f)
		if err != nil {
			t.Fatal(err)
		}
		val, def, li, lu, _ := refEval(c, pats[0], f)
		want := map[string]bool{}
		for idx, d := range def {
			if d {
				want[p.nets[idx]] = val[idx]
			}
		}
		if _, ok := p.index[f.Net]; f.Kind == StuckAt && !ok {
			want[f.Net] = f.Val
		}
		if res.IDDQ != li || res.Unstable != lu || fmt.Sprint(res.Values) != fmt.Sprint(want) {
			t.Fatalf("trial %d, %+v: Eval = %v iddq=%v unstable=%v, scalar %v %v %v",
				trial, f, res.Values, res.IDDQ, res.Unstable, want, li, lu)
		}
	}
}
