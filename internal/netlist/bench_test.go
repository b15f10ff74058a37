package netlist

import (
	"math/rand"
	"testing"
)

// benchCircuit is the shared workload of the evaluator benchmarks: one
// random 3000-gate DAG, reused across widths so ns/op is comparable
// between BenchmarkEvalRun and every BenchmarkEvalRunWide width.
func benchCircuit(b *testing.B) *Netlist {
	b.Helper()
	return randomCircuit(b, rand.New(rand.NewSource(7)), 96, 3000)
}

func benchEvalRun(b *testing.B, w int) {
	nl := benchCircuit(b)
	ev, err := NewEvaluatorWide(nl, w)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(11))
	in := make([]uint64, len(nl.Inputs)*w)
	for i := range in {
		in[i] = r.Uint64()
	}
	b.SetBytes(int64(len(nl.Gates) * w * 8))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ev.Run(in); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(64*w), "patterns/block")
}

// BenchmarkEvalRun sweeps one 64-pattern block through the compiled
// levelized SoA plan (W = 1).
func BenchmarkEvalRun(b *testing.B) { benchEvalRun(b, 1) }

// BenchmarkEvalRunWide sweeps wide blocks (W words = 64×W patterns per
// sweep) through the same plan; per-pattern throughput should rise with
// W until the value arrays fall out of cache.
func BenchmarkEvalRunWide(b *testing.B) {
	b.Run("w4", func(b *testing.B) { benchEvalRun(b, 4) })
	b.Run("w8", func(b *testing.B) { benchEvalRun(b, 8) })
	b.Run("w16", func(b *testing.B) { benchEvalRun(b, 16) })
}

// benchStemFill fills the observability row of every stem of
// benchCircuit with a non-empty compiled cone, chunk by chunk, once per
// iteration, and reports the cost per cone op: the time of one op over
// all W words of its row, fill overhead included. benchCircuit's cones
// are small, about five ops in nearly as many kind runs, so this is the
// dispatch-bound end of the kernels; the SP and SFU cones average
// 800-1150 ops in runs of about five (docs/PERFORMANCE.md, "Stem fills").
func benchStemFill(b *testing.B, w int) {
	nl := benchCircuit(b)
	ev, err := NewEvaluatorWide(nl, w)
	if err != nil {
		b.Fatal(err)
	}
	r := rand.New(rand.NewSource(13))
	in := make([]uint64, len(nl.Inputs)*w)
	for i := range in {
		in[i] = r.Uint64()
	}
	if err := ev.Run(in); err != nil {
		b.Fatal(err)
	}
	var stems []int32
	ops := 0
	for g, sc := range nl.StemCones() {
		if len(sc.Code) > 0 && !ev.isOut[g] {
			stems = append(stems, int32(g))
			ops += sc.numOps()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, g := range stems {
			for lo := 0; lo < w; lo += obsChunkWords {
				ev.stemObsW(g, lo, min(lo+obsChunkWords, w))
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(ops), "ns/coneop")
	b.ReportMetric(float64(len(stems)), "stems")
}

// BenchmarkStemFill measures the compiled stem-cone kernels at the auto
// widths above one word.
func BenchmarkStemFill(b *testing.B) {
	b.Run("w4", func(b *testing.B) { benchStemFill(b, 4) })
	b.Run("w8", func(b *testing.B) { benchStemFill(b, 8) })
	b.Run("w16", func(b *testing.B) { benchStemFill(b, 16) })
}
