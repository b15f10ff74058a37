package netlist

import (
	"math/rand"
	"testing"
)

// numOps returns the number of gate ops in a compiled cone.
func (sc *StemCone) numOps() int {
	n := 0
	for p := 0; p < len(sc.Code); {
		h := sc.Code[p]
		slots := int(h >> coneKindBits)
		n += slots / (1 + arity(Kind(h&(1<<coneKindBits-1))))
		p += 1 + slots
	}
	return n
}

// TestStemConeRunsMatchEventWalk checks the compiled kind-run cone
// kernels and the chunked wide observability memo against the scalar
// event-driven walk: for every fanout stem of random circuits, word j of
// ObsW's row must equal the detection mask FaultDetectDelta computes for
// an all-ones flip of the stem on a width-1 evaluator loaded with word
// j's patterns. It runs at W = 3, 4, 8 and 16 — at 16 with the two
// 8-word halves requested in both orders, each in a fresh block so no
// half inherits the other's memo — and on netlists whose cone budget is
// so small that most stems fall back to the event-driven wide walk.
func TestStemConeRunsMatchEventWalk(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	for trial := 0; trial < 12; trial++ {
		nl := randomCircuit(t, r, 4+r.Intn(12), 40+r.Intn(200))
		tiny := trial%3 == 2
		if tiny {
			// Claim the cache before any evaluator does: a budget of a few
			// ops leaves most stems to the event-driven fallback.
			nl.stemOnce.Do(func() { nl.stemCones = buildStemCones(nl, 6) })
		}
		var stems []int32
		compiled, fallback := 0, 0
		for g, sc := range nl.StemCones() {
			if len(nl.Fanout(int32(g))) < 2 {
				continue
			}
			stems = append(stems, int32(g))
			if sc.Code != nil {
				compiled++
			} else {
				fallback++
			}
		}
		if compiled == 0 || (tiny && fallback == 0) {
			t.Fatalf("trial %d: %d compiled and %d fallback stems; the circuit does not exercise both paths",
				trial, compiled, fallback)
		}

		ref := mustEval(t, nl)
		col := make([]uint64, len(nl.Inputs))
		for _, w := range []int{3, 4, 8, 16} {
			ev, err := NewEvaluatorWide(nl, w)
			if err != nil {
				t.Fatal(err)
			}
			in := make([]uint64, len(nl.Inputs)*w)
			for i := range in {
				in[i] = r.Uint64()
			}
			// want[g][j]: the event walk's observability of stem g at word j.
			want := make(map[int32][]uint64, len(stems))
			for j := 0; j < w; j++ {
				for i := range col {
					col[i] = in[i*w+j]
				}
				mustRun(t, ref, col)
				for _, g := range stems {
					want[g] = append(want[g], ref.FaultDetectDelta(FaultSite{Gate: g, Pin: -1}, ^uint64(0)))
				}
			}

			orders := [][]int{{0}}
			if w > obsChunkWords {
				orders = [][]int{{0, 1}, {1, 0}}
			}
			for _, order := range orders {
				mustRun(t, ev, in)
				for _, chunk := range order {
					for _, g := range stems {
						word := chunk*obsChunkWords + r.Intn(min(obsChunkWords, w-chunk*obsChunkWords))
						row, end := ev.ObsW(g, word)
						if wantEnd := min((chunk+1)*obsChunkWords, w); end != wantEnd {
							t.Fatalf("trial %d w=%d stem %d word %d: chunk end %d, want %d",
								trial, w, g, word, end, wantEnd)
						}
						for j := chunk * obsChunkWords; j < end; j++ {
							if row[j] != want[g][j] {
								t.Fatalf("trial %d w=%d order %v stem %d (compiled %v) word %d: ObsW %#x, event walk %#x",
									trial, w, order, g, nl.StemCones()[g].Code != nil, j, row[j], want[g][j])
							}
						}
					}
				}
			}
		}
	}
}

// TestStemConeCodeShape checks the run encoding itself: every run holds
// whole operand tuples of one gate kind, no gate is evaluated twice, and
// no op reads a cone gate before the op that writes it.
func TestStemConeCodeShape(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	nl := randomCircuit(t, r, 12, 400)
	ng := int32(len(nl.Gates))
	for g, sc := range nl.StemCones() {
		if sc.Code == nil {
			continue
		}
		written := map[int32]bool{int32(g) + ng: true}
		ops := 0
		for p := 0; p < len(sc.Code); {
			h := sc.Code[p]
			k, slots := Kind(h&(1<<coneKindBits-1)), int(h>>coneKindBits)
			if slots == 0 || slots%(1+arity(k)) != 0 {
				t.Fatalf("stem %d: run of %d slots at %d for %v gates", g, slots, p, k)
			}
			cnt := slots / (1 + arity(k))
			p++
			for i := 0; i < cnt; i++ {
				dst := sc.Code[p]
				if dst < ng || nl.Gates[dst-ng].Kind != k {
					t.Fatalf("stem %d: op writes slot %d in a %v run", g, dst, k)
				}
				if written[dst] {
					t.Fatalf("stem %d: gate %d evaluated twice", g, dst-ng)
				}
				for _, src := range sc.Code[p+1 : p+1+arity(k)] {
					if src >= ng && !written[src] {
						t.Fatalf("stem %d: gate %d reads cone gate %d before it is written", g, dst-ng, src-ng)
					}
				}
				written[dst] = true
				p += 1 + arity(k)
				ops++
			}
		}
		if ops != sc.numOps() {
			t.Fatalf("stem %d: numOps %d, decoded %d", g, sc.numOps(), ops)
		}
	}
}
