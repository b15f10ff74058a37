package fault

import (
	"context"
	"math/rand"
	"testing"

	"gpustl/internal/circuits"
)

// FuzzWideBlockEquiv fuzzes the wide-block engine against the NoOptimize
// scalar oracle: for any pattern stream and any block width W the
// optimized detections must be byte-identical — same faults, same first
// detecting pattern index, same clock cycle, same drop set. Bit order
// equals stream order at every width, so any divergence is an engine bug,
// never an accepted reordering.
func FuzzWideBlockEquiv(f *testing.F) {
	mod, err := circuits.Build(circuits.ModuleDU, 0)
	if err != nil {
		f.Fatal(err)
	}

	f.Add(int64(1), uint16(70), uint8(0), false)
	f.Add(int64(2), uint16(1), uint8(1), false)
	f.Add(int64(3), uint16(65), uint8(16), true)
	f.Add(int64(4), uint16(130), uint8(4), false)
	f.Add(int64(5), uint16(9), uint8(8), true)
	// Past 512 patterns a W=16 block spans both observability chunks; at
	// this seed some sampled faults are first detected in words 8-15.
	f.Add(int64(53), uint16(899), uint8(16), false)

	f.Fuzz(func(t *testing.T, seed int64, nPat uint16, w uint8, reverse bool) {
		r := rand.New(rand.NewSource(seed))
		stream := randomDUStream(r, 1+int(nPat)%2048) // up to two W=16 blocks
		width := int(w) % 17                          // 0 = auto, else an explicit W in [1,16]

		run := func(noOpt bool) (*Report, []ID) {
			c := NewCampaign(mod)
			c.SampleFaults(400, seed)
			opt := SimOptions{Reverse: reverse, BlockWords: width, NoOptimize: noOpt}
			opt.Warnf = func(string, ...any) {} // reference ignores BlockWords
			rep, err := c.SimulateCtx(context.Background(), stream, opt)
			if err != nil {
				t.Fatal(err)
			}
			return rep, c.DetectedIDs()
		}
		ref, refIDs := run(true)
		opt, optIDs := run(false)

		if len(opt.Detections) != len(ref.Detections) {
			t.Fatalf("w=%d: %d detections, reference %d",
				width, len(opt.Detections), len(ref.Detections))
		}
		for i := range ref.Detections {
			if opt.Detections[i] != ref.Detections[i] {
				t.Fatalf("w=%d detection %d: %+v, reference %+v",
					width, i, opt.Detections[i], ref.Detections[i])
			}
		}
		if len(optIDs) != len(refIDs) {
			t.Fatalf("w=%d: dropped %d faults, reference %d", width, len(optIDs), len(refIDs))
		}
		for i := range refIDs {
			if optIDs[i] != refIDs[i] {
				t.Fatalf("w=%d drop %d: fault %d, reference %d",
					width, i, optIDs[i], refIDs[i])
			}
		}
		for p := range ref.DetectedPerPattern {
			if opt.DetectedPerPattern[p] != ref.DetectedPerPattern[p] {
				t.Fatalf("w=%d pattern %d: %d detections, reference %d",
					width, p, opt.DetectedPerPattern[p], ref.DetectedPerPattern[p])
			}
		}
	})
}
