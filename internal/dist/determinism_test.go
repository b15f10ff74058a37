package dist

import (
	"context"
	"math/rand"
	"reflect"
	"testing"

	"gpustl/internal/fault"
)

// TestAnyPartitionMatchesSerial is the distribution-safety property the
// whole package rests on: for ANY partition of the remaining fault list
// into k shards — not just the lane-grouped one the coordinator uses —
// merging the per-shard SimulateSubset detections yields the same
// detected-ID set and a Report with identical Detections ordering as one
// serial Simulate run. First detections are per-fault, so shard
// placement cannot matter.
func TestAnyPartitionMatchesSerial(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(61)), m.Lanes, 768)

	serial := newSPCampaign(t, m, 1000, 67)
	wantRep := serial.Simulate(stream, fault.SimOptions{Workers: 1})
	wantIDs := serial.DetectedIDs()

	camp := newSPCampaign(t, m, 1000, 67)
	for trial, k := range []int{1, 2, 3, 5, 8} {
		r := rand.New(rand.NewSource(int64(100 + trial)))
		// A uniformly random partition: each fault lands in a random
		// shard, with no lane grouping and no balancing whatsoever.
		shards := make([][]fault.ID, k)
		for i := 0; i < camp.Total(); i++ {
			s := r.Intn(k)
			shards[s] = append(shards[s], fault.ID(i))
		}
		var merged []fault.Detection
		for _, ids := range shards {
			dets, err := camp.SimulateSubset(context.Background(), stream, ids)
			if err != nil {
				t.Fatalf("k=%d: %v", k, err)
			}
			merged = append(merged, dets...)
		}
		rep := BuildReport(stream, merged)
		if !reflect.DeepEqual(rep.Detections, wantRep.Detections) {
			t.Fatalf("k=%d: merged Detections differ from serial (%d vs %d)",
				k, len(rep.Detections), len(wantRep.Detections))
		}
		if !reflect.DeepEqual(rep.DetectedPerPattern, wantRep.DetectedPerPattern) {
			t.Fatalf("k=%d: per-pattern counts differ", k)
		}
		ids := make([]fault.ID, 0, len(merged))
		for _, d := range merged {
			ids = append(ids, d.Fault)
		}
		if got := sortedIDs(ids); !reflect.DeepEqual(got, wantIDs) {
			t.Fatalf("k=%d: detected-ID sets differ (%d vs %d)", k, len(got), len(wantIDs))
		}
		// SimulateSubset must not have mutated the campaign.
		if camp.Detected() != 0 {
			t.Fatalf("k=%d: SimulateSubset mutated campaign state", k)
		}
	}
}

func sortedIDs(ids []fault.ID) []fault.ID {
	out := append([]fault.ID(nil), ids...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// TestPartitionRemainingCovers checks the coordinator's actual
// partitioner: every remaining fault appears in exactly one shard,
// detected faults in none, and the faults of one (lane, fanout-free
// region) group all in the same shard, so no two workers fill the same
// stem for the same block.
func TestPartitionRemainingCovers(t *testing.T) {
	m := spModule(t)
	stream := randomSPStream(rand.New(rand.NewSource(62)), m.Lanes, 256)
	camp := newSPCampaign(t, m, 600, 71)
	camp.Simulate(stream, fault.SimOptions{Workers: 1}) // drop a few faults first

	ci := m.NL.Cone()
	faults := camp.Faults()
	for _, k := range []int{1, 2, 4, 9} {
		parts := camp.PartitionRemaining(k)
		if len(parts) != k {
			t.Fatalf("k=%d: %d shards for %d remaining faults", k, len(parts), camp.Remaining())
		}
		seen := map[fault.ID]bool{}
		type group struct{ lane, root int32 }
		shardOf := map[group]int{}
		for si, ids := range parts {
			if len(ids) == 0 {
				t.Fatalf("k=%d: empty shard emitted", k)
			}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("k=%d: fault %d in two shards", k, id)
				}
				if camp.IsDetected(id) {
					t.Fatalf("k=%d: detected fault %d partitioned", k, id)
				}
				seen[id] = true
				f := faults[id]
				g := group{int32(f.Lane), ci.FFRRoot(f.Site.Gate)}
				if prev, ok := shardOf[g]; ok && prev != si {
					t.Fatalf("k=%d: lane %d region %d split over shards %d and %d",
						k, g.lane, g.root, prev, si)
				}
				shardOf[g] = si
			}
		}
		if len(seen) != camp.Remaining() {
			t.Fatalf("k=%d: partition covers %d faults, campaign has %d remaining",
				k, len(seen), camp.Remaining())
		}
	}
}
