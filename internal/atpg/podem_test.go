package atpg

import (
	"math/rand"
	"slices"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

// refImply is the full-netlist reference for implication: every gate
// re-evaluated in topological order from the PI assignment alone.
func refImply(nl *netlist.Netlist, f netlist.FaultSite, pi []byte) []tval {
	sa := v0
	if f.SA1 {
		sa = v1
	}
	inIx := make(map[int32]int, len(nl.Inputs))
	for i, net := range nl.Inputs {
		inIx[net] = i
	}
	val := make([]tval, len(nl.Gates))
	for _, id := range nl.Order() {
		g := &nl.Gates[id]
		var t tval
		switch g.Kind {
		case netlist.KInput:
			v := pi[inIx[id]]
			t = tval{v, v}
		case netlist.KConst0:
			t = tval{v0, v0}
		case netlist.KConst1:
			t = tval{v1, v1}
		default:
			var ig, fg [3]byte
			for pin := 0; pin < g.NumIn(); pin++ {
				in := val[g.In[pin]]
				ig[pin], fg[pin] = in.g, in.f
				if id == f.Gate && int8(pin) == f.Pin {
					fg[pin] = sa
				}
			}
			t = tval{eval3(g.Kind, ig[0], ig[1], ig[2]), eval3(g.Kind, fg[0], fg[1], fg[2])}
		}
		if id == f.Gate && f.Pin < 0 {
			t.f = sa
		}
		val[id] = t
	}
	return val
}

// refDFrontier is the full-netlist reference for the D-frontier: every
// gate of Order() scanned.
func refDFrontier(nl *netlist.Netlist, f netlist.FaultSite, val []tval) []int32 {
	sa := v0
	if f.SA1 {
		sa = v1
	}
	var out []int32
	for _, id := range nl.Order() {
		g := &nl.Gates[id]
		if g.NumIn() == 0 {
			continue
		}
		if v := val[id]; v.g != vX && v.f != vX {
			continue
		}
		if f.Pin >= 0 && id == f.Gate {
			if sg := val[g.In[f.Pin]].g; sg != vX && sg != sa {
				out = append(out, id)
				continue
			}
		}
		for pin := 0; pin < g.NumIn(); pin++ {
			if val[g.In[pin]].isD() {
				out = append(out, id)
				break
			}
		}
	}
	return out
}

// TestImplyEventDrivenMatchesFull drives one reused PODEM engine through
// random sequences of assignments, flips and resets to X on SP and SFU,
// for random stem and pin faults. After every step the event-driven net
// values must equal a full-netlist implication and the cone-bounded
// D-frontier a full-netlist scan.
func TestImplyEventDrivenMatchesFull(t *testing.T) {
	for _, kind := range []circuits.ModuleKind{circuits.ModuleSP, circuits.ModuleSFU} {
		m, err := circuits.Build(kind, 1)
		if err != nil {
			t.Fatal(err)
		}
		nl := m.NL
		var stems, pins []netlist.FaultSite
		for _, s := range fault.AllSites(nl) {
			if s.Pin < 0 {
				stems = append(stems, s)
			} else {
				pins = append(pins, s)
			}
		}
		rng := rand.New(rand.NewSource(int64(kind)))
		pd := newPodem(nl, 0)
		check := func(f netlist.FaultSite, step int) {
			t.Helper()
			want := refImply(nl, f, pd.pi)
			for id := range want {
				if pd.val[id] != want[id] {
					t.Fatalf("%v fault %+v step %d: net %d = %+v, full imply %+v",
						kind, f, step, id, pd.val[id], want[id])
				}
			}
			if got, want := pd.dFrontier(), refDFrontier(nl, f, want); !slices.Equal(got, want) {
				t.Fatalf("%v fault %+v step %d: D-frontier %v, full scan %v", kind, f, step, got, want)
			}
		}
		for n := 0; n < 24; n++ {
			sites := stems
			if n%2 == 1 {
				sites = pins
			}
			f := sites[rng.Intn(len(sites))]
			pd.reset(f)
			check(f, 0)
			var assigned []int
			for step := 1; step <= 60; step++ {
				switch op := rng.Intn(8); {
				case op < 5 || len(assigned) == 0: // assign an X input
					i := rng.Intn(len(pd.pi))
					if pd.pi[i] == vX {
						assigned = append(assigned, i)
					}
					pd.setPI(i, byte(rng.Intn(2)))
				case op < 7: // flip an assigned input
					i := assigned[rng.Intn(len(assigned))]
					pd.setPI(i, not3(pd.pi[i]))
				default: // backtrack: reset the newest inputs to X, one propagation
					k := 1 + rng.Intn(len(assigned))
					for _, i := range assigned[len(assigned)-k:] {
						pd.assign(i, vX)
					}
					assigned = assigned[:len(assigned)-k]
					pd.propagate()
				}
				check(f, step)
			}
			// Leave an event pending, as an aborted run does; the next
			// reset must discard it.
			pd.assign(rng.Intn(len(pd.pi)), v1)
		}
	}
}
