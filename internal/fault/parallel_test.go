package fault

import (
	"math/rand"
	"runtime"
	"testing"

	"gpustl/internal/netlist"
)

// TestParallelMatchesSerial verifies that worker count never changes the
// outcome: same detections, same first-detection patterns, same campaign
// state.
func TestParallelMatchesSerial(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(21))
	stream := randomSPStream(r, m.Lanes, 2048)

	run := func(workers int) (*Report, int) {
		c := NewCampaign(m)
		c.SampleFaults(1500, 9)
		rep := c.Simulate(stream, SimOptions{Workers: workers})
		return rep, c.Detected()
	}

	refRep, refDet := run(1)
	for _, w := range []int{2, 4, 7} {
		rep, det := run(w)
		if det != refDet {
			t.Fatalf("workers=%d: detected %d != serial %d", w, det, refDet)
		}
		if len(rep.Detections) != len(refRep.Detections) {
			t.Fatalf("workers=%d: %d detections != %d", w, len(rep.Detections), len(refRep.Detections))
		}
		for i := range rep.Detections {
			if rep.Detections[i] != refRep.Detections[i] {
				t.Fatalf("workers=%d: detection %d = %+v, want %+v",
					w, i, rep.Detections[i], refRep.Detections[i])
			}
		}
		for i := range rep.DetectedPerPattern {
			if rep.DetectedPerPattern[i] != refRep.DetectedPerPattern[i] {
				t.Fatalf("workers=%d: per-pattern count %d differs", w, i)
			}
		}
	}
}

// TestParallelDroppingAcrossRuns checks that a parallel run updates the
// shared campaign exactly like a serial one (cross-PTP dropping intact).
func TestParallelDroppingAcrossRuns(t *testing.T) {
	m := spModule(t)
	r := rand.New(rand.NewSource(22))
	s1 := randomSPStream(r, m.Lanes, 1024)
	s2 := randomSPStream(r, m.Lanes, 1024)

	serial := NewCampaign(m)
	serial.SampleFaults(1000, 3)
	serial.Simulate(s1, SimOptions{})
	repS := serial.Simulate(s2, SimOptions{})

	par := NewCampaign(m)
	par.SampleFaults(1000, 3)
	par.Simulate(s1, SimOptions{Workers: 4})
	repP := par.Simulate(s2, SimOptions{Workers: 4})

	if repS.DetectedThisRun() != repP.DetectedThisRun() {
		t.Fatalf("second-run detections differ: %d vs %d",
			repS.DetectedThisRun(), repP.DetectedThisRun())
	}
	if serial.Detected() != par.Detected() {
		t.Fatalf("campaign state differs: %d vs %d", serial.Detected(), par.Detected())
	}
}

// TestPartitionGroupsRegions checks the in-process partitioner: every
// live fault lands in exactly one shard, under its own lane, in cone
// order; each (lane, fanout-free region) group sits whole in one shard;
// and no shard is empty. A site outside the netlist must not trip the
// partitioner — it is dealt like any fault and panics later, inside a
// worker (TestSimulateCtxWorkerPanicRecovered).
func TestPartitionGroupsRegions(t *testing.T) {
	m := spModule(t)
	c := NewCampaign(m)
	c.SampleFaults(800, 5)
	c.Simulate(randomSPStream(rand.New(rand.NewSource(6)), m.Lanes, 64), SimOptions{})
	ci := m.NL.Cone()
	_, rank := c.coneOrdering()
	for _, k := range []int{2, 4, 9} {
		shards := c.partitionByLane(k)
		if len(shards) != k {
			t.Fatalf("k=%d: %d shards", k, len(shards))
		}
		type group struct{ lane, root int32 }
		shardOf := map[group]int{}
		seen := map[ID]bool{}
		for w, lanes := range shards {
			n := 0
			for lane, ids := range lanes {
				for i, id := range ids {
					f := c.faults[id]
					if int(f.Lane) != lane || c.detected[id] || seen[id] {
						t.Fatalf("k=%d shard %d lane %d: misplaced fault %d (%v)", k, w, lane, id, f)
					}
					if i > 0 && rank[ids[i-1]] > rank[id] {
						t.Fatalf("k=%d shard %d lane %d: not in cone order at %d", k, w, lane, i)
					}
					seen[id] = true
					g := group{int32(lane), ci.FFRRoot(f.Site.Gate)}
					if prev, ok := shardOf[g]; ok && prev != w {
						t.Fatalf("k=%d: lane %d region %d split over shards %d and %d", k, lane, g.root, prev, w)
					}
					shardOf[g] = w
				}
				n += len(ids)
			}
			if n == 0 {
				t.Fatalf("k=%d: shard %d is empty", k, w)
			}
		}
		if len(seen) != c.Remaining() {
			t.Fatalf("k=%d: shards hold %d faults, %d remain", k, len(seen), c.Remaining())
		}
	}

	bogus := NewCampaignWithFaults(m, []Fault{
		{Lane: 0, Site: c.faults[0].Site},
		{Lane: 1, Site: c.faults[0].Site},
		{Lane: 0, Site: netlist.FaultSite{Gate: 1 << 20, Pin: -1}},
		{Lane: 0, Site: netlist.FaultSite{Gate: -3, Pin: -1}},
	})
	total := 0
	for _, lanes := range bogus.partitionByLane(4) {
		for _, ids := range lanes {
			total += len(ids)
		}
	}
	if total != 4 {
		t.Fatalf("corrupt sites: partition holds %d of 4 faults", total)
	}
}

func BenchmarkSimulateSPParallel(b *testing.B) {
	m := spModule(b)
	r := rand.New(rand.NewSource(1))
	stream := randomSPStream(r, m.Lanes, 8192)
	workers := runtime.GOMAXPROCS(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := NewCampaign(m)
		c.SampleFaults(5000, 1)
		c.Simulate(stream, SimOptions{Workers: workers})
	}
}
