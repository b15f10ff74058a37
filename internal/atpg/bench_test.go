package atpg

import (
	"testing"

	"gpustl/internal/circuits"
)

// BenchmarkATPG measures Generate at the paper-small configuration of the
// golden cases (random phase plus PODEM), one sub-benchmark per module.
func BenchmarkATPG(b *testing.B) {
	for _, c := range goldenCases {
		c := c
		b.Run(c.name, func(b *testing.B) {
			m, err := circuits.Build(c.kind, 1)
			if err != nil {
				b.Fatal(err)
			}
			opt := goldenOptions(c)
			b.ResetTimer()
			var res *Result
			for i := 0; i < b.N; i++ {
				res = Generate(m, opt)
			}
			b.ReportMetric(float64(len(res.Patterns)), "patterns")
			b.ReportMetric(float64(res.Aborted), "aborted")
		})
	}
}
