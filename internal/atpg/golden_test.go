package atpg

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"gpustl/internal/circuits"
)

// goldenCase is one pinned generation run: the paper-small ATPG
// configuration of experiments.BuildEnv (seed 1) for one module.
type goldenCase struct {
	name   string
	kind   circuits.ModuleKind
	seed   int64
	sample int

	hash                            string // SHA-256 of the pattern set
	patterns, randPatterns          int
	total, randomDet, podemDet, unt int
}

var goldenCases = []goldenCase{
	{name: "SP", kind: circuits.ModuleSP, seed: 21, sample: 1500,
		hash:     "6b3ddbf44abe5a432ccbf13055f2737254001004abc8c8e4472548a4c8846735",
		patterns: 223, randPatterns: 223,
		total: 1500, randomDet: 1455, podemDet: 0, unt: 45},
	{name: "SFU", kind: circuits.ModuleSFU, seed: 23, sample: 1000,
		hash:     "3bc35cb3cdb0c9b50a644b6f4e433b9b4cf40958e9ce0f58fd4fed2dacf452fc",
		patterns: 258, randPatterns: 245,
		total: 1000, randomDet: 759, podemDet: 33, unt: 215},
}

// goldenOptions returns the generation options of a golden case.
func goldenOptions(c goldenCase) Options {
	opt := DefaultOptions(c.seed)
	opt.SampleFaults = c.sample
	opt.RandomBlocks = 96
	opt.KeepAllBlocks = 3
	return opt
}

// patternHash is the SHA-256 of a pattern set: each pattern's W[0] then
// W[1], little-endian, in order.
func patternHash(pats []circuits.Pattern) string {
	h := sha256.New()
	var buf [16]byte
	for _, p := range pats {
		binary.LittleEndian.PutUint64(buf[0:], p.W[0])
		binary.LittleEndian.PutUint64(buf[8:], p.W[1])
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestGenerateGolden pins the exact pattern sets and counts Generate
// produces at the paper-small configuration. Any change to the random
// phase, PODEM's search order or the fault-dropping commit shows up here
// as a hash mismatch.
func TestGenerateGolden(t *testing.T) {
	for _, c := range goldenCases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			m, err := circuits.Build(c.kind, 1)
			if err != nil {
				t.Fatal(err)
			}
			res := Generate(m, goldenOptions(c))
			got := goldenCase{
				name: c.name, kind: c.kind, seed: c.seed, sample: c.sample,
				hash:         patternHash(res.Patterns),
				patterns:     len(res.Patterns),
				randPatterns: res.RandPatterns,
				total:        res.TotalFaults,
				randomDet:    res.RandomDet,
				podemDet:     res.PodemDet,
				unt:          res.Untestable,
			}
			if got != c {
				t.Fatalf("golden mismatch:\n got  %+v\n want %+v", got, c)
			}
		})
	}
}
