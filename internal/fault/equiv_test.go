package fault

import (
	"context"
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
)

// dupStream doubles a stream so every pattern occurs at least twice
// (fresh clock cycles), forcing the unique-pattern dictionary to do real
// work during the equivalence runs.
func dupStream(stream []TimedPattern) []TimedPattern {
	out := make([]TimedPattern, 0, 2*len(stream))
	var cc uint64
	for _, p := range stream {
		q := p
		q.CC = cc
		out = append(out, q)
		cc += 2
	}
	for _, p := range stream {
		q := p
		q.CC = cc
		out = append(out, q)
		cc += 2
	}
	return out
}

// TestOptimizedMatchesReference is the engine equivalence harness: for
// every option combination the optimized path supports, the detections,
// per-pattern counts and campaign drop state must be byte-identical to
// the NoOptimize reference engine — same fault, same first-detecting
// pattern index, same clock cycle.
func TestOptimizedMatchesReference(t *testing.T) {
	cases := []struct {
		name string
		mod  func(testing.TB) *circuits.Module
		opt  SimOptions
		n    int // stream length before doubling, dealt round-robin over the lanes
	}{
		{"du_serial", duModule, SimOptions{}, 300},
		{"du_reverse", duModule, SimOptions{Reverse: true}, 300},
		{"sp_serial", spModule, SimOptions{}, 300},
		{"sp_reverse", spModule, SimOptions{Reverse: true}, 300},
		{"sp_workers4", spModule, SimOptions{Workers: 4}, 300},
		{"sp_reverse_workers3", spModule, SimOptions{Reverse: true, Workers: 3}, 300},
		// Every supported block width, serial and sharded: detections must
		// be byte-identical to the scalar reference at any W.
		{"du_w1", duModule, SimOptions{BlockWords: 1}, 300},
		{"du_w4", duModule, SimOptions{BlockWords: 4}, 300},
		{"du_w8", duModule, SimOptions{BlockWords: 8}, 300},
		{"du_w16", duModule, SimOptions{BlockWords: 16}, 300},
		{"sp_w4", spModule, SimOptions{BlockWords: 4}, 300},
		{"sp_w8_workers4", spModule, SimOptions{BlockWords: 8, Workers: 4}, 300},
		{"sp_w16_reverse", spModule, SimOptions{BlockWords: 16, Reverse: true}, 300},
		// Past 512 unique patterns per lane a W=16 block spans both 8-word
		// observability chunks, so faults that survive the first half are
		// resolved from separately filled upper halves (700 per lane).
		{"du_long_w16", duModule, SimOptions{BlockWords: 16}, 700},
		{"du_long_auto_reverse_workers4", duModule, SimOptions{Reverse: true, Workers: 4}, 700},
		{"sp_long_w16_reverse", spModule, SimOptions{BlockWords: 16, Reverse: true}, 8 * 700},
		{"sp_long_auto_workers4", spModule, SimOptions{Workers: 4}, 8 * 700},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := tc.mod(t)
			r := rand.New(rand.NewSource(99))
			var stream []TimedPattern
			if m.Lanes > 1 {
				stream = dupStream(randomSPStream(r, m.Lanes, tc.n))
			} else {
				stream = dupStream(randomDUStream(r, tc.n))
			}

			run := func(noOpt bool) (*Report, []ID) {
				c := NewCampaign(m)
				c.SampleFaults(1500, 11)
				opt := tc.opt
				opt.NoOptimize = noOpt
				opt.Warnf = t.Logf // reference runs ignore BlockWords with a warning
				rep, err := c.SimulateCtx(context.Background(), stream, opt)
				if err != nil {
					t.Fatal(err)
				}
				return rep, c.DetectedIDs()
			}
			ref, refDet := run(true)
			opt, optDet := run(false)

			if len(ref.Detections) != len(opt.Detections) {
				t.Fatalf("detection counts differ: reference %d, optimized %d",
					len(ref.Detections), len(opt.Detections))
			}
			for i := range ref.Detections {
				if ref.Detections[i] != opt.Detections[i] {
					t.Fatalf("detection %d differs: reference %+v, optimized %+v",
						i, ref.Detections[i], opt.Detections[i])
				}
			}
			for i := range ref.DetectedPerPattern {
				if ref.DetectedPerPattern[i] != opt.DetectedPerPattern[i] {
					t.Fatalf("per-pattern count differs at %d: reference %d, optimized %d",
						i, ref.DetectedPerPattern[i], opt.DetectedPerPattern[i])
				}
			}
			if len(refDet) != len(optDet) {
				t.Fatalf("campaign drop state differs: reference %d detected, optimized %d",
					len(refDet), len(optDet))
			}
			for i := range refDet {
				if refDet[i] != optDet[i] {
					t.Fatalf("detected id %d differs: reference %d, optimized %d",
						i, refDet[i], optDet[i])
				}
			}
			// The optimized engine must actually have optimized: on a
			// doubled stream at least half the patterns are duplicates.
			if hr := opt.Stats.DedupHitRate(); hr < 0.5 {
				t.Fatalf("optimized run deduplicated only %.2f of a doubled stream", hr)
			}
			if ref.Stats.DedupHitRate() != 0 {
				t.Fatalf("reference engine reported dedup %v, want 0", ref.Stats.DedupHitRate())
			}
		})
	}
}

// TestSimulateSubsetMatchesReference verifies the subset entry point (the
// one distributed shards use) against the reference engine run over an
// equivalent explicit-fault campaign.
func TestSimulateSubsetMatchesReference(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(41))
	stream := dupStream(randomSPStream(r, m.Lanes, 256))

	c := NewCampaign(m)
	c.SampleFaults(1200, 13)
	all := c.Faults()
	ids := make([]ID, 0, len(all)/2)
	for id := 0; id < len(all); id += 2 {
		ids = append(ids, ID(id))
	}
	dets, stats, err := c.SimulateSubsetStats(context.Background(), stream, ids)
	if err != nil {
		t.Fatal(err)
	}
	if stats.FaultEvals == 0 || stats.DedupHitRate() < 0.5 {
		t.Fatalf("subset run did not exercise the optimized engine: %+v", stats)
	}

	// Reference: a throwaway campaign holding exactly the subset faults,
	// run through the naive engine. Detection ids map through the subset.
	sub := make([]Fault, len(ids))
	for i, id := range ids {
		sub[i] = all[id]
	}
	refCamp := NewCampaignWithFaults(m, sub)
	ref, err := refCamp.SimulateCtx(context.Background(), stream, SimOptions{NoOptimize: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(ref.Detections) != len(dets) {
		t.Fatalf("detection counts differ: reference %d, subset %d", len(ref.Detections), len(dets))
	}
	for i, rd := range ref.Detections {
		want := Detection{Fault: ids[rd.Fault], Pattern: rd.Pattern, CC: rd.CC}
		if dets[i] != want {
			t.Fatalf("detection %d differs: subset %+v, reference-mapped %+v", i, dets[i], want)
		}
	}
}
