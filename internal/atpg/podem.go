// Package atpg implements automatic test pattern generation for the
// gate-level modules of package circuits: a random-pattern phase with
// fault dropping followed by PODEM path sensitization for the
// random-resistant remainder.
//
// It stands in for the commercial ATPG tool the paper uses to build the
// TPGEN and SFU_IMM PTPs; the generated patterns feed the
// pattern-to-instruction parsers of package ptpgen.
package atpg

import (
	"cmp"
	"slices"

	"gpustl/internal/circuits"
	"gpustl/internal/netlist"
)

// Three-valued logic constants for the good/faulty circuit pair.
const (
	v0 byte = 0
	v1 byte = 1
	vX byte = 2
)

// tval is a net's value in the composite (good, faulty) circuit. The five
// classic PODEM values map as: 0=(0,0), 1=(1,1), D=(1,0), D'=(0,1),
// X=anything containing vX.
type tval struct{ g, f byte }

func (t tval) isD() bool { return t.g != vX && t.f != vX && t.g != t.f }

// podem is one worker's PODEM engine. Its scratch is sized to the
// netlist once and reused across faults: run retargets it.
type podem struct {
	nl    *netlist.Netlist
	fault netlist.FaultSite

	pi   []byte  // primary-input assignments (v0/v1/vX), indexed like Inputs
	val  []tval  // per-net composite values, a pure function of pi
	inIx []int32 // primary-input index per net (-1 for other nets)

	// Event-driven implication: gates awaiting re-evaluation, bucketed
	// by topological level. lo is the lowest possibly non-empty bucket.
	buckets [][]int32
	queued  []bool
	lo      int

	// cone is the fault gate's transitive fan-out (the gate included) in
	// Order() order: the only gates a D or D' can reach.
	cone   []int32
	inCone []bool
	df     []int32 // dFrontier result buffer

	stack []decision

	backtracks    int
	maxBacktracks int
	aborted       bool // the last run exhausted its backtrack budget
}

// newPodem allocates a PODEM engine for nl.
func newPodem(nl *netlist.Netlist, maxBacktracks int) *podem {
	p := &podem{
		nl:            nl,
		pi:            make([]byte, len(nl.Inputs)),
		val:           make([]tval, len(nl.Gates)),
		inIx:          make([]int32, len(nl.Gates)),
		buckets:       make([][]int32, nl.Levels()+1),
		queued:        make([]bool, len(nl.Gates)),
		inCone:        make([]bool, len(nl.Gates)),
		maxBacktracks: maxBacktracks,
	}
	for i := range p.inIx {
		p.inIx[i] = -1
	}
	for i, net := range nl.Inputs {
		p.inIx[net] = int32(i)
	}
	return p
}

// reset retargets the engine at fault f: every input back to X, values
// re-implied from scratch, the fault cone rebuilt.
func (p *podem) reset(f netlist.FaultSite) {
	p.fault = f
	for i := range p.pi {
		p.pi[i] = vX
	}
	// An aborted run may leave events queued; the full imply below
	// supersedes them.
	for l := range p.buckets {
		for _, id := range p.buckets[l] {
			p.queued[id] = false
		}
		p.buckets[l] = p.buckets[l][:0]
	}
	p.lo = len(p.buckets)
	p.imply()
	p.buildCone()
	p.stack = p.stack[:0]
	p.backtracks = 0
	p.aborted = false
}

// buildCone collects the fault gate's transitive fan-out and sorts it
// into Order() order (level, then gate id).
func (p *podem) buildCone() {
	p.cone = append(p.cone[:0], p.fault.Gate)
	p.inCone[p.fault.Gate] = true
	for k := 0; k < len(p.cone); k++ {
		for _, c := range p.nl.Fanout(p.cone[k]) {
			if !p.inCone[c] {
				p.inCone[c] = true
				p.cone = append(p.cone, c)
			}
		}
	}
	for _, id := range p.cone {
		p.inCone[id] = false
	}
	slices.SortFunc(p.cone, func(a, b int32) int {
		if la, lb := p.nl.Level(a), p.nl.Level(b); la != lb {
			return cmp.Compare(la, lb)
		}
		return cmp.Compare(a, b)
	})
}

func not3(a byte) byte {
	switch a {
	case v0:
		return v1
	case v1:
		return v0
	}
	return vX
}

func and3(a, b byte) byte {
	if a == v0 || b == v0 {
		return v0
	}
	if a == v1 && b == v1 {
		return v1
	}
	return vX
}

func or3(a, b byte) byte {
	if a == v1 || b == v1 {
		return v1
	}
	if a == v0 && b == v0 {
		return v0
	}
	return vX
}

func xor3(a, b byte) byte {
	if a == vX || b == vX {
		return vX
	}
	if a == b {
		return v0
	}
	return v1
}

func mux3(s, lo, hi byte) byte {
	switch s {
	case v0:
		return lo
	case v1:
		return hi
	}
	if lo == hi && lo != vX {
		return lo
	}
	return vX
}

func eval3(k netlist.Kind, a, b, s byte) byte {
	switch k {
	case netlist.KBuf:
		return a
	case netlist.KNot:
		return not3(a)
	case netlist.KAnd:
		return and3(a, b)
	case netlist.KOr:
		return or3(a, b)
	case netlist.KXor:
		return xor3(a, b)
	case netlist.KNand:
		return not3(and3(a, b))
	case netlist.KNor:
		return not3(or3(a, b))
	case netlist.KXnor:
		return not3(xor3(a, b))
	case netlist.KMux:
		return mux3(a, b, s)
	case netlist.KConst1:
		return v1
	}
	return v0 // KConst0
}

// eval computes a net's composite value from its fan-in values.
func (p *podem) eval(id int32) tval {
	g := &p.nl.Gates[id]
	var t tval
	switch g.Kind {
	case netlist.KInput:
		v := p.pi[p.inIx[id]]
		t = tval{v, v}
	case netlist.KConst0:
		t = tval{v0, v0}
	case netlist.KConst1:
		t = tval{v1, v1}
	default:
		var ig, fg [3]byte
		for pin, n := 0, g.NumIn(); pin < n; pin++ {
			in := p.val[g.In[pin]]
			ig[pin], fg[pin] = in.g, in.f
		}
		if id == p.fault.Gate && p.fault.Pin >= 0 {
			fg[p.fault.Pin] = p.sa()
		}
		t = tval{eval3(g.Kind, ig[0], ig[1], ig[2]), eval3(g.Kind, fg[0], fg[1], fg[2])}
	}
	if id == p.fault.Gate && p.fault.Pin < 0 {
		t.f = p.sa()
	}
	return t
}

// imply forward-simulates the whole composite circuit from the current PI
// assignments. It sets up a run's initial state; decisions after that go
// through setPI.
func (p *podem) imply() {
	for _, id := range p.nl.Order() {
		p.val[id] = p.eval(id)
	}
}

// setPI assigns primary input i and re-implies only what changed.
func (p *podem) setPI(i int, v byte) {
	p.assign(i, v)
	p.propagate()
}

// assign changes primary input i and schedules its net for
// re-evaluation; propagate applies the pending changes.
func (p *podem) assign(i int, v byte) {
	if p.pi[i] == v {
		return
	}
	p.pi[i] = v
	p.schedule(p.nl.Inputs[i])
}

func (p *podem) schedule(id int32) {
	if p.queued[id] {
		return
	}
	p.queued[id] = true
	l := int(p.nl.Level(id))
	p.buckets[l] = append(p.buckets[l], id)
	if l < p.lo {
		p.lo = l
	}
}

// propagate re-evaluates the scheduled gates level by level, scheduling
// the fan-out of every net whose value changed. Fan-out always sits at a
// higher level, so each bucket is complete when its level is reached.
func (p *podem) propagate() {
	for l := p.lo; l < len(p.buckets); l++ {
		for _, id := range p.buckets[l] {
			p.queued[id] = false
			t := p.eval(id)
			if t == p.val[id] {
				continue
			}
			p.val[id] = t
			for _, c := range p.nl.Fanout(id) {
				p.schedule(c)
			}
		}
		p.buckets[l] = p.buckets[l][:0]
	}
	p.lo = len(p.buckets)
}

// sa returns the stuck value in three-valued encoding.
func (p *podem) sa() byte {
	if p.fault.SA1 {
		return v1
	}
	return v0
}

// siteNet returns the net whose fault-free value activates the fault: the
// gate output for stem faults, the driving net of the pin for pin faults.
func (p *podem) siteNet() int32 {
	if p.fault.Pin < 0 {
		return p.fault.Gate
	}
	return p.nl.Gates[p.fault.Gate].In[p.fault.Pin]
}

// siteGood returns the current fault-free value at the fault site.
func (p *podem) siteGood() byte { return p.val[p.siteNet()].g }

// detected reports whether a D/D' reaches a primary output.
func (p *podem) detected() bool {
	for _, o := range p.nl.Outputs {
		if p.val[o].isD() {
			return true
		}
	}
	return false
}

// dFrontier returns gates whose output is X in the good or faulty circuit
// while at least one input carries a D, in Order() order. For input-pin
// faults the faulted gate itself joins the frontier as soon as the pin is
// activated (the pin discrepancy is a D that exists on no net). Only the
// fault cone can hold such gates. The result is reused by the next call.
func (p *podem) dFrontier() []int32 {
	out := p.df[:0]
	for _, id := range p.cone {
		g := &p.nl.Gates[id]
		if g.NumIn() == 0 {
			continue
		}
		v := p.val[id]
		if v.g != vX && v.f != vX {
			continue
		}
		if p.fault.Pin >= 0 && id == p.fault.Gate {
			if sg := p.siteGood(); sg != vX && sg != p.sa() {
				out = append(out, id)
				continue
			}
		}
		for pin := 0; pin < g.NumIn(); pin++ {
			if p.val[g.In[pin]].isD() {
				out = append(out, id)
				break
			}
		}
	}
	p.df = out
	return out
}

// objective returns the next (net, value) goal: justify the activation
// value at the fault site, then advance the D-frontier.
func (p *podem) objective() (int32, byte, bool) {
	switch p.siteGood() {
	case vX:
		return p.siteNet(), not3(p.sa()), true
	case p.sa():
		return 0, 0, false // activation impossible under current assignments
	}
	df := p.dFrontier()
	for _, id := range df {
		g := &p.nl.Gates[id]
		// Find an X input and demand the non-controlling value.
		for pin := 0; pin < g.NumIn(); pin++ {
			in := g.In[pin]
			if p.val[in].g != vX {
				continue
			}
			var want byte
			switch g.Kind {
			case netlist.KAnd, netlist.KNand:
				want = v1
			case netlist.KOr, netlist.KNor:
				want = v0
			case netlist.KXor, netlist.KXnor:
				want = v0
			case netlist.KMux:
				if pin == 0 {
					// Select the side carrying the D.
					if p.val[g.In[2]].isD() {
						want = v1
					} else {
						want = v0
					}
				} else {
					want = v0
				}
			default:
				want = v1
			}
			return in, want, true
		}
	}
	return 0, 0, false
}

// backtrace maps an objective to a primary-input assignment by walking
// X-paths backwards, accounting for inversions.
func (p *podem) backtrace(net int32, v byte) (int, byte, bool) {
	for hops := 0; hops < len(p.nl.Gates); hops++ {
		g := &p.nl.Gates[net]
		if g.Kind == netlist.KInput {
			return int(p.inIx[net]), v, true
		}
		if g.NumIn() == 0 {
			return 0, 0, false // constant: cannot justify
		}
		// Pick the first X input.
		next := int32(-1)
		for pin := 0; pin < g.NumIn(); pin++ {
			if p.val[g.In[pin]].g == vX {
				next = g.In[pin]
				break
			}
		}
		if next < 0 {
			return 0, 0, false
		}
		switch g.Kind {
		case netlist.KNot, netlist.KNand, netlist.KNor:
			v = not3(v)
		}
		net = next
	}
	return 0, 0, false
}

// decision is one PI assignment on the implicit decision stack.
type decision struct {
	pi      int
	value   byte
	flipped bool
}

// run executes the PODEM search for fault f. It returns the generated
// pattern and true on success; (zero, false) when the fault is untestable
// or the backtrack budget is exhausted (p.aborted tells which).
func (p *podem) run(f netlist.FaultSite) (circuits.Pattern, bool) {
	p.reset(f)
	for {
		if p.detected() {
			return p.pattern(), true
		}
		net, want, ok := p.objective()
		feasible := ok
		var pi int
		var v byte
		if feasible {
			pi, v, feasible = p.backtrace(net, want)
		}
		if feasible {
			p.stack = append(p.stack, decision{pi: pi, value: v})
			p.setPI(pi, v)
			continue
		}
		// Backtrack: reset exhausted decisions to X, flip the newest
		// unflipped one, then re-imply once.
		for {
			if len(p.stack) == 0 {
				return circuits.Pattern{}, false
			}
			d := &p.stack[len(p.stack)-1]
			if !d.flipped {
				d.flipped = true
				d.value = not3(d.value)
				p.assign(d.pi, d.value)
				p.backtracks++
				if p.backtracks > p.maxBacktracks {
					p.aborted = true
					return circuits.Pattern{}, false
				}
				p.propagate()
				break
			}
			p.assign(d.pi, vX)
			p.stack = p.stack[:len(p.stack)-1]
		}
		if p.detected() {
			return p.pattern(), true
		}
	}
}

// pattern freezes the current PI assignment, filling X's with 0.
func (p *podem) pattern() circuits.Pattern {
	var pat circuits.Pattern
	for i, v := range p.pi {
		if v == v1 {
			pat.W[i/64] |= 1 << (uint(i) % 64)
		}
	}
	return pat
}
