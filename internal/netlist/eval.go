package netlist

import (
	"errors"
	"fmt"
)

// FaultSite identifies a single stuck-at fault: the output (Pin == -1) or
// an input pin of a gate, stuck at 1 (SA1) or 0.
type FaultSite struct {
	Gate int32
	Pin  int8 // -1 for the output net, 0..2 for input pins
	SA1  bool
}

// String renders the fault in the usual pin/polarity notation.
func (f FaultSite) String() string {
	v := 0
	if f.SA1 {
		v = 1
	}
	if f.Pin < 0 {
		return fmt.Sprintf("g%d.out/sa%d", f.Gate, v)
	}
	return fmt.Sprintf("g%d.in%d/sa%d", f.Gate, f.Pin, v)
}

// Evaluator computes blocks of 64×W patterns at once over a Netlist (one
// pattern per bit of W machine words per net) and evaluates single-
// stuck-at faulty circuits by propagating differences through the
// fault's fan-out cone only. The fault-free sweep runs over the
// netlist's compiled SoA plan: per-level, per-kind tight loops with no
// per-gate dispatch in the inner body.
//
// W (BlockWords) is fixed at construction; net n's good values occupy
// good[n*W : (n+1)*W], pattern p at word p/64, bit p%64 — bit order is
// stream order, so first detections are identical at every width. The
// faulty-cone machinery is deliberately word-granular at every width:
// the SiteOp scans work word by word and ObsW fills observability one
// chunk of at most eight words at a time, so a caller scanning words in
// order stops paying the moment a detection (or a proven zero) appears —
// most faults die in their first active word, and the block's later
// words are only ever touched for the survivors. The offset-free scalar
// methods (SiteDelta, FaultDetect, Obs, Output, Value) are the W == 1
// specialization the reference engine, ATPG and tests use; they require
// a width-1 evaluator.
type Evaluator struct {
	nl   *Netlist
	w    int // words per net value; 64*w patterns per block
	plan *EvalPlan
	gf   []uint64 // combined good|faulty backing: good = gf[:ng*w], faulty = gf[ng*w:]
	good []uint64 // len(Gates)*w, stride w

	// Faulty-cone scratch, reset lazily via epoch stamps. faulty is
	// stride-w: a wide stem propagation (stemObsW) writes whole rows in
	// one cone walk so the scheduling cost amortizes over all W words,
	// while the scalar propagation (W == 1) addresses the same array
	// one word per net.
	faulty []uint64 // stride w
	stamp  []uint32
	sched  []uint32
	epoch  uint32
	bucket [][]int32
	lvls   []int32

	// Per-block observability memo (see Obs/ObsW), one W-word row per
	// net, invalidated by Run via its own epoch. Rows are memoized in
	// obsChunks chunks of up to obsChunkWords words, each with its own
	// stamp: net n's chunk c is valid when obsStamp[n*obsChunks+c] ==
	// obsEpoch.
	obsVal    []uint64 // stride w
	obsStamp  []uint32 // stride obsChunks
	obsChunks int
	obsEpoch  uint32
	obsChain  []int32
	isOut     []bool

	// Primary-output nets marked in the current faulty epoch; lets the
	// detect scan visit only touched outputs instead of all of them.
	touchedOuts []int32

	flipBuf []uint64 // sensFlipW's flipped-input chunk, obsChunkWords words

	// stems caches the netlist's static stem cones (fetched on first wide
	// stem fill); see StemCones.
	stems []StemCone
}

// ErrSequential reports that a combinational-only entry point was handed
// a netlist with flip-flops.
var ErrSequential = errors.New("netlist: sequential netlist; use NewSeqEvaluator")

// NewEvaluator creates a width-1 (64 patterns per block) evaluator for a
// combinational netlist. It returns ErrSequential on netlists with
// flip-flops — use NewSeqEvaluator for those.
func NewEvaluator(nl *Netlist) (*Evaluator, error) {
	return NewEvaluatorWide(nl, 1)
}

// MaxBlockWords bounds the evaluator block width: 16 words sweep 1024
// patterns per fault-free evaluation, the widest batch the fault
// engine's auto-tuner selects.
const MaxBlockWords = 16

// NewEvaluatorWide creates an evaluator computing w words (64×w
// patterns) per net per block. w must be in [1, MaxBlockWords].
func NewEvaluatorWide(nl *Netlist, w int) (*Evaluator, error) {
	if nl.NumDFFs() > 0 {
		return nil, fmt.Errorf("netlist: NewEvaluator on %s: %w", nl.Name, ErrSequential)
	}
	if w < 1 || w > MaxBlockWords {
		return nil, fmt.Errorf("netlist: block width %d words outside [1, %d]", w, MaxBlockWords)
	}
	ng := len(nl.Gates)
	// good and faulty share one backing array so compiled stem-cone ops
	// can address either copy as a slot into a single buffer (stemcone.go).
	gf := make([]uint64, 2*ng*w)
	chunks := (w + obsChunkWords - 1) / obsChunkWords
	e := &Evaluator{
		nl:        nl,
		w:         w,
		plan:      nl.Plan(),
		gf:        gf,
		good:      gf[: ng*w : ng*w],
		faulty:    gf[ng*w:],
		stamp:     make([]uint32, ng),
		sched:     make([]uint32, ng),
		bucket:    make([][]int32, nl.maxLvl+1),
		obsVal:    make([]uint64, ng*w),
		obsStamp:  make([]uint32, ng*chunks),
		obsChunks: chunks,
		isOut:     make([]bool, ng),
		flipBuf:   make([]uint64, obsChunkWords),
	}
	for _, o := range nl.Outputs {
		e.isOut[o] = true
	}
	// Constants never change: load their rows once instead of per Run.
	for id, g := range nl.Gates {
		if g.Kind == KConst1 {
			row := e.row(e.good, int32(id))
			for j := range row {
				row[j] = ^uint64(0)
			}
		}
	}
	return e, nil
}

// AcquireEvaluator returns an evaluator of the given block width for this
// netlist, recycled from the netlist's pool when one is available and
// freshly built otherwise. Evaluator scratch is epoch-guarded, so a
// recycled evaluator behaves exactly like a fresh one; pass it back with
// ReleaseEvaluator when done to keep the warm arrays circulating.
func (n *Netlist) AcquireEvaluator(w int) (*Evaluator, error) {
	if w >= 1 && w <= MaxBlockWords {
		if v := n.evPool[w-1].Get(); v != nil {
			return v.(*Evaluator), nil
		}
	}
	return NewEvaluatorWide(n, w)
}

// ReleaseEvaluator returns an evaluator to its netlist's pool. Evaluators
// of other netlists (or nil) are ignored. The caller must not use the
// evaluator after releasing it.
func (n *Netlist) ReleaseEvaluator(e *Evaluator) {
	if e == nil || e.nl != n {
		return
	}
	n.evPool[e.w-1].Put(e)
}

// Netlist returns the circuit under evaluation.
func (e *Evaluator) Netlist() *Netlist { return e.nl }

// BlockWords returns the evaluator's block width in 64-pattern words.
func (e *Evaluator) BlockWords() int { return e.w }

// PatternsPerBlock returns how many patterns one Run sweeps (64×W).
func (e *Evaluator) PatternsPerBlock() int { return 64 * e.w }

// row returns net's w-word value row inside one of the stride-w arrays.
func (e *Evaluator) row(a []uint64, net int32) []uint64 {
	i := int(net) * e.w
	return a[i : i+e.w : i+e.w]
}

func gateFn(k Kind, a, b, s uint64) uint64 {
	switch k {
	case KBuf:
		return a
	case KNot:
		return ^a
	case KAnd:
		return a & b
	case KOr:
		return a | b
	case KXor:
		return a ^ b
	case KNand:
		return ^(a & b)
	case KNor:
		return ^(a | b)
	case KXnor:
		return ^(a ^ b)
	case KMux:
		// In[0]=sel (passed as a), In[1]=lo (b), In[2]=hi (s).
		return (a & s) | (^a & b)
	case KConst1:
		return ^uint64(0)
	}
	return 0 // KConst0, KInput handled by caller
}

// Run evaluates the fault-free circuit for one block of patterns.
// inputs holds W words per primary input, input-major: input i occupies
// inputs[i*W : (i+1)*W], pattern p at word p/64 bit p%64 (with W == 1
// this is the classic one-word-per-input layout). It returns an error
// (leaving the previous evaluation intact) when the input length does
// not match the circuit and block width.
func (e *Evaluator) Run(inputs []uint64) error {
	if len(inputs) != len(e.nl.Inputs)*e.w {
		return fmt.Errorf("netlist: Run got %d input words, circuit %s has %d inputs × %d block words",
			len(inputs), e.nl.Name, len(e.nl.Inputs), e.w)
	}
	e.obsEpoch++
	if e.obsEpoch == 0 { // uint32 wrap: drop every memoized mask for real
		for i := range e.obsStamp {
			e.obsStamp[i] = 0
		}
		e.obsEpoch = 1
	}
	if e.w == 1 {
		for i, net := range e.nl.Inputs {
			e.good[net] = inputs[i]
		}
		e.runScalar()
	} else {
		w := e.w
		for i, net := range e.nl.Inputs {
			copy(e.row(e.good, net), inputs[i*w:(i+1)*w])
		}
		e.runWide()
	}
	return nil
}

// runScalar sweeps the compiled plan at W == 1: one kind dispatch per
// run, then a tight loop with direct good-array indexing.
func (e *Evaluator) runScalar() {
	p := e.plan
	good := e.good
	for ri := range p.runs {
		r := &p.runs[ri]
		out := p.out[r.Start:r.End]
		in0 := p.in0[r.Start:r.End]
		in1 := p.in1[r.Start:r.End]
		in2 := p.in2[r.Start:r.End]
		switch r.Kind {
		case KBuf:
			for i, o := range out {
				good[o] = good[in0[i]]
			}
		case KNot:
			for i, o := range out {
				good[o] = ^good[in0[i]]
			}
		case KAnd:
			for i, o := range out {
				good[o] = good[in0[i]] & good[in1[i]]
			}
		case KOr:
			for i, o := range out {
				good[o] = good[in0[i]] | good[in1[i]]
			}
		case KXor:
			for i, o := range out {
				good[o] = good[in0[i]] ^ good[in1[i]]
			}
		case KNand:
			for i, o := range out {
				good[o] = ^(good[in0[i]] & good[in1[i]])
			}
		case KNor:
			for i, o := range out {
				good[o] = ^(good[in0[i]] | good[in1[i]])
			}
		case KXnor:
			for i, o := range out {
				good[o] = ^(good[in0[i]] ^ good[in1[i]])
			}
		case KMux:
			for i, o := range out {
				s := good[in0[i]]
				good[o] = (s & good[in2[i]]) | (^s & good[in1[i]])
			}
		}
	}
}

// runWide sweeps the compiled plan at W > 1: per run, per gate, a
// branch-free loop over the W words of the operand rows.
func (e *Evaluator) runWide() {
	p := e.plan
	w := e.w
	good := e.good
	for ri := range p.runs {
		r := &p.runs[ri]
		out := p.out[r.Start:r.End]
		in0 := p.in0[r.Start:r.End]
		in1 := p.in1[r.Start:r.End]
		in2 := p.in2[r.Start:r.End]
		switch r.Kind {
		case KBuf:
			for i, o := range out {
				oi, ai := int(o)*w, int(in0[i])*w
				copy(good[oi:oi+w], good[ai:ai+w])
			}
		case KNot:
			for i, o := range out {
				oi, ai := int(o)*w, int(in0[i])*w
				ov, av := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w]
				for j := range ov {
					ov[j] = ^av[j]
				}
			}
		case KAnd:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = av[j] & bv[j]
				}
			}
		case KOr:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = av[j] | bv[j]
				}
			}
		case KXor:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = av[j] ^ bv[j]
				}
			}
		case KNand:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = ^(av[j] & bv[j])
				}
			}
		case KNor:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = ^(av[j] | bv[j])
				}
			}
		case KXnor:
			for i, o := range out {
				oi, ai, bi := int(o)*w, int(in0[i])*w, int(in1[i])*w
				ov, av, bv := good[oi:oi+w:oi+w], good[ai:ai+w:ai+w], good[bi:bi+w:bi+w]
				for j := range ov {
					ov[j] = ^(av[j] ^ bv[j])
				}
			}
		case KMux:
			for i, o := range out {
				oi, si, li, hi := int(o)*w, int(in0[i])*w, int(in1[i])*w, int(in2[i])*w
				ov := good[oi : oi+w : oi+w]
				sv, lv, hv := good[si:si+w:si+w], good[li:li+w:li+w], good[hi:hi+w:hi+w]
				for j := range ov {
					ov[j] = (sv[j] & hv[j]) | (^sv[j] & lv[j])
				}
			}
		}
	}
}

// Output returns the packed good value of primary output i after Run
// (W == 1; wide evaluators use OutputW).
func (e *Evaluator) Output(i int) uint64 { return e.good[e.nl.Outputs[i]] }

// OutputW returns the W-word good value row of primary output i after
// Run. The returned slice must not be mutated.
func (e *Evaluator) OutputW(i int) []uint64 { return e.row(e.good, e.nl.Outputs[i]) }

// Value returns the packed good value of an arbitrary net after Run
// (W == 1; wide evaluators use ValueW).
func (e *Evaluator) Value(net int32) uint64 { return e.good[net] }

// ValueW returns the W-word good value row of an arbitrary net after
// Run. The returned slice must not be mutated.
func (e *Evaluator) ValueW(net int32) []uint64 { return e.row(e.good, net) }

// get reads a net's value under the current faulty epoch (W == 1).
func (e *Evaluator) get(net int32) uint64 {
	if e.stamp[net] == e.epoch {
		return e.faulty[net]
	}
	return e.good[net]
}

// markTouch stamps a net as faulty-valued this epoch (first time only)
// and schedules its consumers; the caller stores the value itself —
// one word for the scalar propagation, a whole row for the wide one.
func (e *Evaluator) markTouch(net int32) {
	if e.stamp[net] == e.epoch {
		return
	}
	e.stamp[net] = e.epoch
	if e.isOut[net] {
		e.touchedOuts = append(e.touchedOuts, net)
	}
	for _, c := range e.nl.fanout[net] {
		if e.sched[c] != e.epoch {
			e.sched[c] = e.epoch
			l := e.nl.level[c]
			if len(e.bucket[l]) == 0 {
				e.pushLvl(l)
			}
			e.bucket[l] = append(e.bucket[l], c)
		}
	}
}

// mark records a faulty value on a net and schedules its consumers
// (W == 1).
func (e *Evaluator) mark(net int32, val uint64) {
	e.markTouch(net)
	e.faulty[net] = val
}

// evalFaulty computes gate id under the current faulty values (W == 1).
// A single switch with direct operand reads: this is the innermost call
// of every scalar cone propagation, so it avoids the generic arity loop
// and scratch array of the gateFn path.
func (e *Evaluator) evalFaulty(id int32) uint64 {
	g := &e.nl.Gates[id]
	switch g.Kind {
	case KBuf:
		return e.get(g.In[0])
	case KNot:
		return ^e.get(g.In[0])
	case KAnd:
		return e.get(g.In[0]) & e.get(g.In[1])
	case KOr:
		return e.get(g.In[0]) | e.get(g.In[1])
	case KXor:
		return e.get(g.In[0]) ^ e.get(g.In[1])
	case KNand:
		return ^(e.get(g.In[0]) & e.get(g.In[1]))
	case KNor:
		return ^(e.get(g.In[0]) | e.get(g.In[1]))
	case KXnor:
		return ^(e.get(g.In[0]) ^ e.get(g.In[1]))
	case KMux:
		s := e.get(g.In[0])
		return (s & e.get(g.In[2])) | (^s & e.get(g.In[1]))
	}
	return e.get(id) // KInput, KConst0, KConst1: sources keep their value
}

// faultyRow returns net's current W-word value row: its faulty row when
// marked this epoch, its fault-free row otherwise.
func (e *Evaluator) faultyRow(net int32) []uint64 {
	if e.stamp[net] == e.epoch {
		return e.row(e.faulty, net)
	}
	return e.row(e.good, net)
}

// gateFnW is gateFn over W-word rows. rows[p] is input pin p's value
// row; dst must not alias any of them.
func gateFnW(k Kind, rows [3][]uint64, dst []uint64) {
	a, b, s := rows[0], rows[1], rows[2]
	switch k {
	case KBuf:
		copy(dst, a)
	case KNot:
		for j := range dst {
			dst[j] = ^a[j]
		}
	case KAnd:
		for j := range dst {
			dst[j] = a[j] & b[j]
		}
	case KOr:
		for j := range dst {
			dst[j] = a[j] | b[j]
		}
	case KXor:
		for j := range dst {
			dst[j] = a[j] ^ b[j]
		}
	case KNand:
		for j := range dst {
			dst[j] = ^(a[j] & b[j])
		}
	case KNor:
		for j := range dst {
			dst[j] = ^(a[j] | b[j])
		}
	case KXnor:
		for j := range dst {
			dst[j] = ^(a[j] ^ b[j])
		}
	case KMux:
		for j := range dst {
			dst[j] = (a[j] & s[j]) | (^a[j] & b[j])
		}
	}
}

// evalFaultyW computes gate id's W-word row under the current faulty
// values into dst, returning the OR of its per-word differences from the
// gate's fault-free row grow (non-zero iff the gate diverged). dst may be
// the gate's own faulty row: a combinational gate never feeds itself, so
// no operand row aliases it. The kind switch fetches exactly the operand
// rows each kind needs and the divergence test rides the same pass that
// writes dst — this is the innermost call of every wide cone propagation,
// and a separate compare loop would re-read both rows.
func (e *Evaluator) evalFaultyW(id int32, dst, grow []uint64) uint64 {
	g := &e.nl.Gates[id]
	var d uint64
	switch g.Kind {
	case KBuf:
		a := e.faultyRow(g.In[0])
		for j := range dst {
			dst[j] = a[j]
			d |= a[j] ^ grow[j]
		}
	case KNot:
		a := e.faultyRow(g.In[0])
		for j := range dst {
			v := ^a[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KAnd:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := a[j] & b[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KOr:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := a[j] | b[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KXor:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := a[j] ^ b[j]
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KNand:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := ^(a[j] & b[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KNor:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := ^(a[j] | b[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KXnor:
		a, b := e.faultyRow(g.In[0]), e.faultyRow(g.In[1])
		for j := range dst {
			v := ^(a[j] ^ b[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	case KMux:
		s, l, h := e.faultyRow(g.In[0]), e.faultyRow(g.In[1]), e.faultyRow(g.In[2])
		for j := range dst {
			v := (s[j] & h[j]) | (^s[j] & l[j])
			dst[j] = v
			d |= v ^ grow[j]
		}
	default: // sources keep their value
		a := e.faultyRow(id)
		for j := range dst {
			dst[j] = a[j]
			d |= a[j] ^ grow[j]
		}
	}
	return d
}

// SiteDelta returns the packed mask of patterns on which the stuck-at
// fault's site output differs from the fault-free value of the last Run —
// the local activation of the fault (W == 1; wide evaluators use
// SiteDeltaAt per word). Gate functions are bitwise, so a bit that is
// zero here stays zero on every downstream net: SiteDelta == 0 proves
// FaultDetect would return 0 without propagating anything, and the
// detection mask is always a bitwise subset of the site delta.
func (e *Evaluator) SiteDelta(f FaultSite) uint64 { return e.SiteDeltaAt(f, 0) }

// SiteDeltaAt is SiteDelta for word offset off of the current wide
// block: the activation mask of patterns off×64 .. off×64+63.
func (e *Evaluator) SiteDeltaAt(f FaultSite, off int) uint64 {
	var sa uint64
	if f.SA1 {
		sa = ^uint64(0)
	}
	w := e.w
	if f.Pin < 0 {
		return sa ^ e.good[int(f.Gate)*w+off]
	}
	// Evaluate the gate under good inputs with the faulty pin forced. This
	// deliberately bypasses getAt(): outside an epoch it would read stale
	// faulty values from the previous propagation.
	g := &e.nl.Gates[f.Gate]
	var v [3]uint64
	for p := 0; p < g.NumIn(); p++ {
		if int8(p) == f.Pin {
			v[p] = sa
		} else {
			v[p] = e.good[int(g.In[p])*w+off]
		}
	}
	return gateFn(g.Kind, v[0], v[1], v[2]) ^ e.good[int(f.Gate)*w+off]
}

// SiteOpKind enumerates the primitive activation functions a compiled
// fault site reduces to (see CompileSiteOp).
type SiteOpKind uint8

const (
	SopBuf     SiteOpKind = iota // delta = good[A]
	SopNot                       // delta = ^good[A]
	SopXor                       // delta = good[A] ^ good[B]
	SopXnor                      // delta = ^(good[A] ^ good[B])
	SopAndXor                    // delta = (good[A] & good[B]) ^ good[C]
	SopAndnXor                   // delta = (^good[A] & good[B]) ^ good[C]
	SopOrXor                     // delta = (good[A] | good[B]) ^ good[C]
	SopOrnXor                    // delta = (^good[A] | good[B]) ^ good[C]
)

// SiteOp is a fault site's activation function compiled to a primitive
// over fault-free net values: evaluating the site's gate with the stuck
// pin forced, then XOR-ing with the fault-free output, algebraically
// simplifies against the constant — an AND with a pin stuck at 0 is
// constant 0, stuck at 1 passes the other input through, and so on. The
// result is one to three loads and a couple of ALU ops per word instead
// of a gate-kind dispatch with a forced-operand loop, which matters
// because the activation pre-screen runs for every fault×word visit of
// the simulation inner loop.
type SiteOp struct {
	A, B, C int32
	Op      SiteOpKind
}

// CompileSiteOp compiles a fault site against its netlist. It must only
// be called with sites that are valid for nl (the fault enumerator's
// output); out-of-range sites panic, exactly as SiteDelta would.
func CompileSiteOp(nl *Netlist, f FaultSite) SiteOp {
	g := f.Gate
	cv := func(one bool) SiteOp { // site output forced to a constant
		if one {
			return SiteOp{Op: SopNot, A: g}
		}
		return SiteOp{Op: SopBuf, A: g}
	}
	if f.Pin < 0 {
		return cv(f.SA1) // delta = sa ^ good[g]
	}
	gt := &nl.Gates[g]
	in := gt.In
	pass := func(src int32, inv bool) SiteOp { // site output = (^)good[src]
		if inv {
			return SiteOp{Op: SopXnor, A: src, B: g}
		}
		return SiteOp{Op: SopXor, A: src, B: g}
	}
	other := int32(-1)
	if gt.NumIn() == 2 {
		other = in[1-f.Pin]
	}
	switch gt.Kind {
	case KBuf:
		return cv(f.SA1) // forced input passes straight through
	case KNot:
		return cv(!f.SA1)
	case KAnd:
		if !f.SA1 {
			return cv(false)
		}
		return pass(other, false)
	case KOr:
		if f.SA1 {
			return cv(true)
		}
		return pass(other, false)
	case KNand:
		if !f.SA1 {
			return cv(true)
		}
		return pass(other, true)
	case KNor:
		if f.SA1 {
			return cv(false)
		}
		return pass(other, true)
	case KXor:
		return pass(other, f.SA1)
	case KXnor:
		return pass(other, !f.SA1)
	case KMux:
		sel, lo, hi := in[0], in[1], in[2]
		switch f.Pin {
		case 0: // forced select picks one data input
			if f.SA1 {
				return pass(hi, false)
			}
			return pass(lo, false)
		case 1: // lo forced: sa0 → sel&hi, sa1 → ^sel|hi
			if f.SA1 {
				return SiteOp{Op: SopOrnXor, A: sel, B: hi, C: g}
			}
			return SiteOp{Op: SopAndXor, A: sel, B: hi, C: g}
		default: // hi forced: sa0 → ^sel&lo, sa1 → sel|lo
			if f.SA1 {
				return SiteOp{Op: SopOrXor, A: sel, B: lo, C: g}
			}
			return SiteOp{Op: SopAndnXor, A: sel, B: lo, C: g}
		}
	}
	// Pin faults cannot exist on source gates (no input pins); fall back
	// to the constant form so a malformed site still yields SiteDelta's
	// answer for an un-evaluated source (good[g] itself).
	return cv(f.SA1)
}

// SiteOpDeltaAt evaluates a compiled site op for word offset off of the
// current block: the activation mask SiteDeltaAt would return for the
// fault the op was compiled from.
func (e *Evaluator) SiteOpDeltaAt(op SiteOp, off int) uint64 {
	w := e.w
	good := e.good
	switch op.Op {
	case SopBuf:
		return good[int(op.A)*w+off]
	case SopNot:
		return ^good[int(op.A)*w+off]
	case SopXor:
		return good[int(op.A)*w+off] ^ good[int(op.B)*w+off]
	case SopXnor:
		return ^(good[int(op.A)*w+off] ^ good[int(op.B)*w+off])
	case SopAndXor:
		return (good[int(op.A)*w+off] & good[int(op.B)*w+off]) ^ good[int(op.C)*w+off]
	case SopAndnXor:
		return (^good[int(op.A)*w+off] & good[int(op.B)*w+off]) ^ good[int(op.C)*w+off]
	case SopOrXor:
		return (good[int(op.A)*w+off] | good[int(op.B)*w+off]) ^ good[int(op.C)*w+off]
	default: // SopOrnXor
		return (^good[int(op.A)*w+off] | good[int(op.B)*w+off]) ^ good[int(op.C)*w+off]
	}
}

// SiteOpFirstActive scans words from..words-1 of the current block for
// the first word where the compiled site op's activation, masked by the
// block's valid-pattern mask, is non-zero, and returns its index and
// masked value (or -1, 0 when the site never activates there — from 0,
// the activation pre-screen outcome). The op switch is hoisted out of the
// word loop, so the common all-zero scan runs as one tight loop per site
// shape.
func (e *Evaluator) SiteOpFirstActive(op SiteOp, mask []uint64, from, words int) (int, uint64) {
	w := e.w
	good := e.good
	switch op.Op {
	case SopBuf:
		a := int(op.A) * w
		for j := from; j < words; j++ {
			if d := good[a+j] & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopNot:
		a := int(op.A) * w
		for j := from; j < words; j++ {
			if d := ^good[a+j] & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopXor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := from; j < words; j++ {
			if d := (good[a+j] ^ good[b+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopXnor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := from; j < words; j++ {
			if d := ^(good[a+j] ^ good[b+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopAndXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := (good[a+j]&good[b+j] ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopAndnXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := (^good[a+j]&good[b+j] ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	case SopOrXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := ((good[a+j] | good[b+j]) ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	default: // SopOrnXor
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := ((^good[a+j] | good[b+j]) ^ good[c+j]) & mask[j]; d != 0 {
				return j, d
			}
		}
	}
	return -1, 0
}

// SiteOpDetectFrom scans words from..words-1 for the first word where the
// compiled site op's activation, masked by the block's valid-pattern mask
// AND the site gate's observability row, is non-zero — the detection scan
// that follows a successful activation pre-screen. Like SiteOpFirstActive
// the op switch is hoisted out of the word loop, so the scan decodes the
// op once instead of once per word.
func (e *Evaluator) SiteOpDetectFrom(op SiteOp, mask, obs []uint64, from, words int) (int, uint64) {
	w := e.w
	good := e.good
	switch op.Op {
	case SopBuf:
		a := int(op.A) * w
		for j := from; j < words; j++ {
			if d := good[a+j] & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopNot:
		a := int(op.A) * w
		for j := from; j < words; j++ {
			if d := ^good[a+j] & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopXor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := from; j < words; j++ {
			if d := (good[a+j] ^ good[b+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopXnor:
		a, b := int(op.A)*w, int(op.B)*w
		for j := from; j < words; j++ {
			if d := ^(good[a+j] ^ good[b+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopAndXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := (good[a+j]&good[b+j] ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopAndnXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := (^good[a+j]&good[b+j] ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	case SopOrXor:
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := ((good[a+j] | good[b+j]) ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	default: // SopOrnXor
		a, b, c := int(op.A)*w, int(op.B)*w, int(op.C)*w
		for j := from; j < words; j++ {
			if d := ((^good[a+j] | good[b+j]) ^ good[c+j]) & mask[j] & obs[j]; d != 0 {
				return j, d
			}
		}
	}
	return -1, 0
}

// FaultDetect evaluates the circuit with the given stuck-at fault against
// the pattern block loaded by the last Run (W == 1). It returns a packed
// mask with bit i set when pattern i produces a primary-output
// discrepancy.
func (e *Evaluator) FaultDetect(f FaultSite) uint64 {
	return e.FaultDetectDelta(f, e.SiteDelta(f))
}

// FaultDetectDelta is FaultDetect with the fault site's local delta
// (SiteDelta, possibly masked down to the valid patterns of a partial
// block) already in hand (W == 1): it propagates the delta through the
// fan-out cone and returns the detection mask, a bitwise subset of
// delta. A zero delta returns 0 immediately without consuming an epoch.
func (e *Evaluator) FaultDetectDelta(f FaultSite, delta uint64) uint64 {
	if delta == 0 {
		return 0
	}
	e.bumpEpoch()
	e.mark(f.Gate, e.good[f.Gate]^delta)

	// Propagate level by level. mark pushes a level onto the e.lvls
	// min-heap when its bucket first becomes non-empty; consumers always
	// sit at strictly higher levels, so popping the minimum processes each
	// touched level exactly once and a drained bucket never regrows.
	for len(e.lvls) > 0 {
		l := e.popLvl()
		gates := e.bucket[l]
		for k := 0; k < len(gates); k++ {
			id := gates[k]
			v := e.evalFaulty(id)
			if v != e.good[id] {
				e.mark(id, v)
			} else if e.stamp[id] == e.epoch {
				// A previously marked gate converged back to good.
				e.faulty[id] = v
			}
		}
		e.bucket[l] = gates[:0]
	}

	// Only outputs actually marked this epoch can differ; a marked output
	// that converged back to good contributes zero either way.
	var detect uint64
	for _, out := range e.touchedOuts {
		detect |= e.faulty[out] ^ e.good[out]
	}
	return detect
}

// bumpEpoch starts a fresh faulty-propagation epoch.
func (e *Evaluator) bumpEpoch() {
	e.epoch++
	if e.epoch == 0 { // uint32 wrap: clear stamps once every 2^32 faults
		for i := range e.stamp {
			e.stamp[i] = 0
			e.sched[i] = 0
		}
		e.epoch = 1
	}
	e.lvls = e.lvls[:0]
	e.touchedOuts = e.touchedOuts[:0]
}

// Obs returns the packed observability mask of a gate's output net for
// the block loaded by the last Run (W == 1; wide evaluators use ObsW):
// bit s is set when flipping the net on pattern s alone produces a
// primary-output discrepancy. Gate functions are bitwise, so the
// patterns are independent and the detection mask of any single-site
// fault factors exactly:
//
//	FaultDetectDelta(f, delta) == delta & Obs(f.Gate)
//
// bit s of the detection depends only on whether the site flipped on
// pattern s (delta bit s) and on whether a flip there reaches an output
// on pattern s (Obs bit s).
//
// Masks are memoized per net per Run block. A net with a single
// consuming pin inherits the consumer's mask filtered by the consumer's
// local flip-sensitivity — exact, because the flip reaches the consumer
// through that one edge and every side input holds its fault-free
// value — so whole fanout-free chains resolve with one gate evaluation
// per link. A fanout stem's mask is computed once per block by
// propagating an all-ones flip through its cone and is then shared by
// every fault in the fanout-free region feeding the stem.
func (e *Evaluator) Obs(gate int32) uint64 {
	g := gate
	for e.obsStamp[g] != e.obsEpoch {
		fo := e.nl.fanout[g]
		if len(fo) == 1 {
			e.obsChain = append(e.obsChain, g)
			g = fo[0]
			continue
		}
		var v uint64
		if e.isOut[g] { // a primary output observes any flip directly
			v = ^uint64(0)
		} else if len(fo) > 1 { // fanout stem: one explicit cone propagation
			v = e.FaultDetectDelta(FaultSite{Gate: g, Pin: -1}, ^uint64(0))
		}
		e.obsVal[g], e.obsStamp[g] = v, e.obsEpoch
	}
	obs := e.obsVal[g]
	for i := len(e.obsChain) - 1; i >= 0; i-- {
		gi := e.obsChain[i]
		obs &= e.sensFlip(gi, e.nl.fanout[gi][0])
		if e.isOut[gi] { // directly observed, whatever happens downstream
			obs = ^uint64(0)
		}
		e.obsVal[gi], e.obsStamp[gi] = obs, e.obsEpoch
	}
	e.obsChain = e.obsChain[:0]
	return e.obsVal[gate]
}

// obsChunkWords is the granularity of the wide observability memo: ObsW
// fills and memoizes a row in chunks of at most this many words (512
// patterns), so a W=16 block keeps its two halves apart. A fault loop
// scanning words in order usually settles in the half that holds the
// fault's first active word, and then never pays for the other half's
// stem fills.
const obsChunkWords = 8

// ObsW is Obs for wide evaluators: the gate's observability mask for the
// chunk of the current block that holds word, pattern p at word p/64 bit
// p%64. It returns the gate's whole W-word row (which must not be
// mutated) and the end of that chunk: only the chunk's words — word
// rounded down to a multiple of obsChunkWords, up to end — are
// guaranteed filled. At W ≤ obsChunkWords the chunk is the whole row.
// The memoization scheme is Obs's, kept per chunk; a stem's chunk is
// filled by one pass over its compiled cone (stemObsW).
func (e *Evaluator) ObsW(gate int32, word int) ([]uint64, int) {
	c := word / obsChunkWords
	lo := c * obsChunkWords
	hi := min(lo+obsChunkWords, e.w)
	nc := e.obsChunks
	g := gate
	for e.obsStamp[int(g)*nc+c] != e.obsEpoch {
		fo := e.nl.fanout[g]
		if len(fo) == 1 {
			e.obsChain = append(e.obsChain, g)
			g = fo[0]
			continue
		}
		dst := e.row(e.obsVal, g)[lo:hi]
		if e.isOut[g] { // a primary output observes any flip directly
			for j := range dst {
				dst[j] = ^uint64(0)
			}
		} else if len(fo) > 1 { // fanout stem: one explicit cone propagation
			e.stemObsW(g, lo, hi)
		} else {
			clear(dst)
		}
		e.obsStamp[int(g)*nc+c] = e.obsEpoch
	}
	obs := e.row(e.obsVal, g)[lo:hi]
	for i := len(e.obsChain) - 1; i >= 0; i-- {
		gi := e.obsChain[i]
		dst := e.row(e.obsVal, gi)[lo:hi]
		if e.isOut[gi] { // directly observed, whatever happens downstream
			for j := range dst {
				dst[j] = ^uint64(0)
			}
		} else {
			e.sensFlipW(gi, e.nl.fanout[gi][0], dst, lo, hi)
			for j := range dst {
				dst[j] &= obs[j]
			}
		}
		e.obsStamp[int(gi)*nc+c] = e.obsEpoch
		obs = dst
	}
	e.obsChain = e.obsChain[:0]
	return e.row(e.obsVal, gate), hi
}

// stemObsW fills words lo..hi-1 of fanout stem g's observability row:
// the detection mask of an all-ones flip at g.
//
// Flipping a stem for a whole block diverges essentially its entire
// static cone — across 64×W patterns some pattern sensitizes almost
// every path — so the fill runs the stem's precompiled kind runs
// (StemCones) in one flat pass over the chunk's words: every cone gate is
// evaluated exactly once, with no per-gate scheduling (fan-out scans,
// level buckets, divergence tests) at all. Stems whose cone exceeded the
// netlist's cache budget use the event-driven walk of FaultDetectDelta on
// whole rows instead, and memoize every chunk at once.
func (e *Evaluator) stemObsW(g int32, lo, hi int) {
	if e.stems == nil {
		e.stems = e.nl.StemCones()
	}
	dst := e.row(e.obsVal, g)
	frow, grow := e.row(e.faulty, g), e.row(e.good, g)

	if sc := &e.stems[g]; sc.Code != nil {
		// The compiled cone resolves every operand to the good or faulty
		// half of the combined buffer at build time, so the flat walk
		// needs no epoch, no stamps, and no per-operand source checks.
		for j := lo; j < hi; j++ {
			frow[j] = ^grow[j]
		}
		evalCone(e.gf, sc.Code, e.w, lo, hi-lo)
		clear(dst[lo:hi])
		for _, out := range sc.Outs {
			fr, gr := e.row(e.faulty, out), e.row(e.good, out)
			for j := lo; j < hi; j++ {
				dst[j] |= fr[j] ^ gr[j]
			}
		}
		return
	}

	for j := range frow {
		frow[j] = ^grow[j]
	}
	e.bumpEpoch()
	e.markTouch(g)
	// Same level-ordered walk as FaultDetectDelta, on whole rows.
	for len(e.lvls) > 0 {
		l := e.popLvl()
		gates := e.bucket[l]
		for k := 0; k < len(gates); k++ {
			id := gates[k]
			if e.evalFaultyW(id, e.row(e.faulty, id), e.row(e.good, id)) != 0 {
				e.markTouch(id)
			}
			// A gate already marked this epoch that converged back to good
			// keeps its (now equal) row — reads stay consistent either way.
		}
		e.bucket[l] = gates[:0]
	}

	clear(dst)
	for _, out := range e.touchedOuts {
		fr, gr := e.row(e.faulty, out), e.row(e.good, out)
		for j := range dst {
			dst[j] |= fr[j] ^ gr[j]
		}
	}
	for c := 0; c < e.obsChunks; c++ {
		e.obsStamp[int(g)*e.obsChunks+c] = e.obsEpoch
	}
}

// sensFlip returns the mask of patterns on which gate c's fault-free
// output flips when net from flips, every other input held at its
// fault-free value (W == 1). Pins are matched by net, so a net feeding
// several pins of c flips all of them together, exactly as a real flip
// would.
func (e *Evaluator) sensFlip(from, c int32) uint64 {
	g := &e.nl.Gates[c]
	var v [3]uint64
	for p := 0; p < g.NumIn(); p++ {
		v[p] = e.good[g.In[p]]
		if g.In[p] == from {
			v[p] = ^v[p]
		}
	}
	return gateFn(g.Kind, v[0], v[1], v[2]) ^ e.good[c]
}

// sensFlipW is sensFlip on words lo..hi-1 of W-word rows, written into
// dst (hi-lo words, which must not alias a good row).
func (e *Evaluator) sensFlipW(from, c int32, dst []uint64, lo, hi int) {
	g := &e.nl.Gates[c]
	var rows [3][]uint64
	flipped := false
	for p := 0; p < g.NumIn(); p++ {
		r := e.row(e.good, g.In[p])[lo:hi]
		if g.In[p] == from {
			if !flipped {
				for j := range r {
					e.flipBuf[j] = ^r[j]
				}
				flipped = true
			}
			r = e.flipBuf[:len(r)]
		}
		rows[p] = r
	}
	gateFnW(g.Kind, rows, dst)
	grow := e.row(e.good, c)[lo:hi]
	for j := range dst {
		dst[j] ^= grow[j]
	}
}

// pushLvl inserts a level into the e.lvls min-heap.
func (e *Evaluator) pushLvl(l int32) {
	e.lvls = append(e.lvls, l)
	i := len(e.lvls) - 1
	for i > 0 {
		p := (i - 1) / 2
		if e.lvls[p] <= e.lvls[i] {
			break
		}
		e.lvls[p], e.lvls[i] = e.lvls[i], e.lvls[p]
		i = p
	}
}

// popLvl removes and returns the smallest level from the e.lvls min-heap.
func (e *Evaluator) popLvl() int32 {
	top := e.lvls[0]
	n := len(e.lvls) - 1
	e.lvls[0] = e.lvls[n]
	e.lvls = e.lvls[:n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if c+1 < n && e.lvls[c+1] < e.lvls[c] {
			c++
		}
		if e.lvls[i] <= e.lvls[c] {
			break
		}
		e.lvls[i], e.lvls[c] = e.lvls[c], e.lvls[i]
		i = c
	}
	return top
}

// EvalOnce evaluates the fault-free circuit on a single pattern given as
// booleans and returns the outputs. It is a convenience for tests and the
// ATPG engine; bulk work should use Run.
func (e *Evaluator) EvalOnce(pattern []bool) ([]bool, error) {
	in := make([]uint64, len(pattern)*e.w)
	for i, b := range pattern {
		if b {
			in[i*e.w] = 1
		}
	}
	if err := e.Run(in); err != nil {
		return nil, err
	}
	out := make([]bool, len(e.nl.Outputs))
	for i := range out {
		out[i] = e.OutputW(i)[0]&1 == 1
	}
	return out, nil
}

// PackInputsU64 packs word-level pattern values into per-bit input vectors
// for a width-1 block. words[p] holds the pattern-p value of a bus whose
// bit i feeds input busStart+i; the packed vectors are OR-ed into dst.
func PackInputsU64(dst []uint64, busStart int, width int, words []uint64) {
	PackInputsWide(dst, 1, busStart, width, words)
}

// PackInputsWide is PackInputsU64 for W-word blocks: dst holds W words
// per input, input-major (the layout Evaluator.Run consumes), and
// words[p] lands in word p/64 bit p%64 of each touched input row. It
// accepts up to 64×W patterns.
func PackInputsWide(dst []uint64, w int, busStart int, width int, words []uint64) {
	for p, word := range words {
		bit := uint64(1) << uint(p%64)
		wd := p / 64
		for i := 0; i < width; i++ {
			if word>>uint(i)&1 == 1 {
				dst[(busStart+i)*w+wd] |= bit
			}
		}
	}
}
