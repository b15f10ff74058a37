package netlist

import "math/bits"

// StemCone is the static downstream cone of one fanout stem, compiled to
// runs of same-kind gate ops in non-decreasing level order (so a single
// forward pass evaluates producers before consumers), plus the
// primary-output nets the stem reaches — including the stem itself when
// it is an output.
//
// The wide observability fill flips a stem to the complement of its
// fault-free row across a whole block (64×W patterns). Such a flip
// diverges essentially the entire cone — across hundreds of patterns
// some pattern sensitizes almost every path — so an event-driven walk
// re-discovers the same static cone every block while paying scheduling
// (stamps, fan-out scans, level buckets) per gate per fill. Evaluating
// the precompiled runs instead makes the fill a flat loop whose only
// per-gate work is the gate function itself.
//
// Code packs the cone's kind runs back to back. Each run is a header
// word, n<<coneKindBits | kind, followed by n row slots: one operand
// tuple of 1+arity slots per gate, the destination, then the gate's
// inputs in pin order. The gates of one level are independent of each
// other, so grouping each level's ops by kind reorders nothing that
// matters and lets a fill dispatch once per run instead of once per gate
// — the same per-level, per-kind sweep the fault-free plan uses
// (plan.go). Tuples carry only the pins their kind has, so unary gates
// cost two slots and binary gates three.
//
// Row slots are resolved at build time: slot s addresses the row of net
// s in the good half of the evaluator's combined good|faulty buffer, and
// slot len(Gates)+s the row of net s in its faulty half. An operand
// inside the cone (or the stem itself) reads the faulty half, anything
// else the good half, and a destination is always in the faulty half.
// That removes the per-operand stamp check (a data-dependent load) the
// event-driven walk needs to decide which copy holds the operand.
type StemCone struct {
	Code []int32 // kind runs in level order; nil when over budget
	Outs []int32 // reachable primary-output nets (stem included when an output)
}

// coneKindBits is the width of the kind field of a run header.
const coneKindBits = 4

// stemConeBudget bounds the total number of cone ops cached per netlist.
// Stems past the budget keep nil code and the observability fill falls
// back to the event-driven walk for them.
const stemConeBudget = 1 << 23

// StemCones returns the per-gate static cone cache, indexed by gate id;
// non-stem gates (fanout below two) hold empty entries. Built once per
// netlist on first use and immutable afterwards, so it is safe to share
// across evaluators and goroutines.
func (n *Netlist) StemCones() []StemCone {
	n.stemOnce.Do(func() { n.stemCones = buildStemCones(n, stemConeBudget) })
	return n.stemCones
}

// buildStemCones compiles every stem's cone in gate order; a stem whose
// cone would take the running op total past budget keeps nil code.
func buildStemCones(n *Netlist, budget int) []StemCone {
	ng := len(n.Gates)
	cones := make([]StemCone, ng)

	isOut := make([]bool, ng)
	for _, o := range n.Outputs {
		isOut[o] = true
	}

	// Gates that reach no primary output can never influence an
	// observability row; leaving them out of the lists skips their
	// evaluation on every fill. Their consumers are equally unreachable,
	// so no retained gate ever reads a dropped gate's row.
	reach := n.Cone().firstOut

	// Per-stem reachability with epoch-stamped visits; level buckets are
	// reused across stems to emit each cone in level order without a
	// sort, and kinds[l] marks which gate kinds level l holds, so the
	// code length (one header per kind run) is known before emitting.
	seen := make([]uint32, ng)
	epoch := uint32(0)
	buckets := make([][]int32, n.maxLvl+1)
	kinds := make([]uint16, n.maxLvl+1)
	var byKind [NumKinds][]int32
	queue := make([]int32, 0, 256)

	for g := int32(0); g < int32(ng); g++ {
		if len(n.fanout[g]) < 2 {
			continue
		}
		epoch++
		queue = queue[:0]
		seen[g] = epoch
		total, slots := 0, 0
		for _, c := range n.fanout[g] {
			if seen[c] != epoch && reach[c] >= 0 {
				seen[c] = epoch
				queue = append(queue, c)
			}
		}
		for qi := 0; qi < len(queue); qi++ {
			id := queue[qi]
			l := n.level[id]
			k := n.Gates[id].Kind
			buckets[l] = append(buckets[l], id)
			kinds[l] |= 1 << k
			total++
			slots += 1 + arity(k)
			for _, c := range n.fanout[id] {
				if seen[c] != epoch && reach[c] >= 0 {
					seen[c] = epoch
					queue = append(queue, c)
				}
			}
		}
		if total > budget {
			for l := range buckets {
				buckets[l], kinds[l] = buckets[l][:0], 0
			}
			continue // over budget: this stem falls back to the event walk
		}
		budget -= total
		for _, m := range kinds {
			slots += bits.OnesCount16(m)
		}
		sc := &cones[g]
		sc.Code = make([]int32, 0, slots)
		for l := range buckets {
			for _, id := range buckets[l] {
				k := n.Gates[id].Kind
				byKind[k] = append(byKind[k], id)
				if isOut[id] {
					sc.Outs = append(sc.Outs, id)
				}
			}
			for k := range byKind {
				if len(byKind[k]) == 0 {
					continue
				}
				run := len(byKind[k]) * (1 + arity(Kind(k)))
				sc.Code = append(sc.Code, int32(run)<<coneKindBits|int32(k))
				for _, id := range byKind[k] {
					sc.Code = appendConeOp(sc.Code, n, seen, epoch, id)
				}
				byKind[k] = byKind[k][:0]
			}
			buckets[l], kinds[l] = buckets[l][:0], 0
		}
		if isOut[g] {
			sc.Outs = append(sc.Outs, g)
		}
	}
	return cones
}

// appendConeOp appends gate id's operand tuple for the stem whose cone
// membership is marked in seen with the given epoch: member operands
// (including the stem) read the faulty half, everything else the good
// half. Operands always sit at strictly lower levels than their consumer,
// so member operands are written before any op reads them. Cones only
// hold combinational gates: sources have no fan-in, so they are never
// enqueued as a consumer.
func appendConeOp(code []int32, n *Netlist, seen []uint32, epoch uint32, id int32) []int32 {
	ng := int32(len(n.Gates))
	g := &n.Gates[id]
	code = append(code, ng+id)
	for _, net := range g.In[:g.NumIn()] {
		if seen[net] == epoch {
			net += ng
		}
		code = append(code, net)
	}
	return code
}

// coneRow is the set of narrow row chunks the generic cone kernel is
// instantiated at: a fill evaluates one chunk of at most obsChunkWords
// words of every row, and a pointer-to-array operand gives each width
// its own bounds-check-free word loop with a constant trip count. Full
// chunks, the W=8 and W=16 case, run evalConeRuns8 instead.
type coneRow interface {
	*[1]uint64 | *[2]uint64 | *[3]uint64 | *[4]uint64 |
		*[5]uint64 | *[6]uint64 | *[7]uint64
}

// evalCone runs a compiled cone over words off..off+cw-1 of every row of
// the evaluator's combined good|faulty buffer gf (row stride w), where
// cw is the chunk width 1..obsChunkWords.
func evalCone(gf []uint64, code []int32, w, off, cw int) {
	switch cw {
	case 1:
		evalConeRuns[*[1]uint64](gf, code, w, off)
	case 2:
		evalConeRuns[*[2]uint64](gf, code, w, off)
	case 3:
		evalConeRuns[*[3]uint64](gf, code, w, off)
	case 4:
		evalConeRuns[*[4]uint64](gf, code, w, off)
	case 5:
		evalConeRuns[*[5]uint64](gf, code, w, off)
	case 6:
		evalConeRuns[*[6]uint64](gf, code, w, off)
	case 7:
		evalConeRuns[*[7]uint64](gf, code, w, off)
	case obsChunkWords:
		evalConeRuns8(gf, code, w, off)
	default:
		panic("netlist: cone chunk width out of range")
	}
}

// evalConeRuns is evalCone at one chunk width R below obsChunkWords: one
// kind dispatch per run, then a loop over the run's operand tuples whose
// word loop the compiler specializes to R's length.
func evalConeRuns[R coneRow](gf []uint64, code []int32, w, off int) {
	row := func(slot int32) R { return R(gf[int(slot)*w+off:]) }
	for len(code) > 0 {
		h := code[0]
		ops := code[1 : 1+int(h>>coneKindBits)]
		code = code[1+len(ops):]
		switch Kind(h & (1<<coneKindBits - 1)) {
		case KBuf:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a := row(ops[0]), row(ops[1])
				for j := 0; j < len(d); j++ {
					d[j] = a[j]
				}
			}
		case KNot:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a := row(ops[0]), row(ops[1])
				for j := 0; j < len(d); j++ {
					d[j] = ^a[j]
				}
			}
		case KAnd:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				for j := 0; j < len(d); j++ {
					d[j] = a[j] & b[j]
				}
			}
		case KOr:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				for j := 0; j < len(d); j++ {
					d[j] = a[j] | b[j]
				}
			}
		case KXor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				for j := 0; j < len(d); j++ {
					d[j] = a[j] ^ b[j]
				}
			}
		case KNand:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				for j := 0; j < len(d); j++ {
					d[j] = ^(a[j] & b[j])
				}
			}
		case KNor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				for j := 0; j < len(d); j++ {
					d[j] = ^(a[j] | b[j])
				}
			}
		case KXnor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				for j := 0; j < len(d); j++ {
					d[j] = ^(a[j] ^ b[j])
				}
			}
		case KMux: // In[0]=sel, In[1]=lo, In[2]=hi
			for ; len(ops) >= 4; ops = ops[4:] {
				d, s, lo, hi := row(ops[0]), row(ops[1]), row(ops[2]), row(ops[3])
				for j := 0; j < len(d); j++ {
					d[j] = (s[j] & hi[j]) | (^s[j] & lo[j])
				}
			}
		}
	}
}

// evalConeRuns8 is evalConeRuns for full 8-word chunks, the W=8 and W=16
// case, with the word loops written out: Go does not unroll loops, and
// each tuple assignment reads all its operand words before it stores
// any. On the SP and SFU cones an op costs a fifth to a third less than
// in the loop form.
func evalConeRuns8(gf []uint64, code []int32, w, off int) {
	row := func(slot int32) *[8]uint64 { return (*[8]uint64)(gf[int(slot)*w+off:]) }
	for len(code) > 0 {
		h := code[0]
		ops := code[1 : 1+int(h>>coneKindBits)]
		code = code[1+len(ops):]
		switch Kind(h & (1<<coneKindBits - 1)) {
		case KBuf:
			for ; len(ops) >= 2; ops = ops[2:] {
				*row(ops[0]) = *row(ops[1])
			}
		case KNot:
			for ; len(ops) >= 2; ops = ops[2:] {
				d, a := row(ops[0]), row(ops[1])
				d[0], d[1], d[2], d[3] = ^a[0], ^a[1], ^a[2], ^a[3]
				d[4], d[5], d[6], d[7] = ^a[4], ^a[5], ^a[6], ^a[7]
			}
		case KAnd:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				d[0], d[1], d[2], d[3] = a[0]&b[0], a[1]&b[1], a[2]&b[2], a[3]&b[3]
				d[4], d[5], d[6], d[7] = a[4]&b[4], a[5]&b[5], a[6]&b[6], a[7]&b[7]
			}
		case KOr:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				d[0], d[1], d[2], d[3] = a[0]|b[0], a[1]|b[1], a[2]|b[2], a[3]|b[3]
				d[4], d[5], d[6], d[7] = a[4]|b[4], a[5]|b[5], a[6]|b[6], a[7]|b[7]
			}
		case KXor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				d[0], d[1], d[2], d[3] = a[0]^b[0], a[1]^b[1], a[2]^b[2], a[3]^b[3]
				d[4], d[5], d[6], d[7] = a[4]^b[4], a[5]^b[5], a[6]^b[6], a[7]^b[7]
			}
		case KNand:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				d[0], d[1], d[2], d[3] = ^(a[0] & b[0]), ^(a[1] & b[1]), ^(a[2] & b[2]), ^(a[3] & b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] & b[4]), ^(a[5] & b[5]), ^(a[6] & b[6]), ^(a[7] & b[7])
			}
		case KNor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				d[0], d[1], d[2], d[3] = ^(a[0] | b[0]), ^(a[1] | b[1]), ^(a[2] | b[2]), ^(a[3] | b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] | b[4]), ^(a[5] | b[5]), ^(a[6] | b[6]), ^(a[7] | b[7])
			}
		case KXnor:
			for ; len(ops) >= 3; ops = ops[3:] {
				d, a, b := row(ops[0]), row(ops[1]), row(ops[2])
				d[0], d[1], d[2], d[3] = ^(a[0] ^ b[0]), ^(a[1] ^ b[1]), ^(a[2] ^ b[2]), ^(a[3] ^ b[3])
				d[4], d[5], d[6], d[7] = ^(a[4] ^ b[4]), ^(a[5] ^ b[5]), ^(a[6] ^ b[6]), ^(a[7] ^ b[7])
			}
		case KMux: // In[0]=sel, In[1]=lo, In[2]=hi
			for ; len(ops) >= 4; ops = ops[4:] {
				d, s, lo, hi := row(ops[0]), row(ops[1]), row(ops[2]), row(ops[3])
				for j := range d {
					d[j] = (s[j] & hi[j]) | (^s[j] & lo[j])
				}
			}
		}
	}
}
