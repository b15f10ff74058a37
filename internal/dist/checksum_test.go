package dist

import (
	"math"
	"testing"
)

// TestChecksumDetectionsPinned pins the canonical detection checksum to
// SHA-256 values recorded from the original fmt.Fprintf implementation,
// so a rewrite of ChecksumDetections keeps every checksum — and with it
// every cross-worker Byzantine vote — exactly as it was. The long list
// spans many kilobytes of "fault:pattern:cc" lines.
func TestChecksumDetectionsPinned(t *testing.T) {
	long := make([]Detection, 5000)
	for i := range long {
		long[i] = Detection{Fault: int32(i * 7919), Pattern: int32(i / 3), CC: uint64(i) * 1000003}
	}
	for _, tc := range []struct {
		name string
		dets []Detection
		want string
	}{
		{"empty", nil, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
		{"edges", []Detection{
			{Fault: 0, Pattern: 0, CC: 0},
			{Fault: 7, Pattern: 3, CC: 21},
			{Fault: -1, Pattern: -2, CC: 1},
			{Fault: 1234567, Pattern: 89, CC: 1 << 40},
			{Fault: math.MaxInt32, Pattern: math.MinInt32, CC: math.MaxUint64},
		}, "3c5782ffa556d1acb07d1b9d80a6aa99bed60babb31ec01405cddf5f6dfa8833"},
		{"long", long, "1f2665746987bc421d32fcd86835fe5c079fd9e844f33107e2eb0f7b3f81def0"},
	} {
		if got := ChecksumDetections(tc.dets); got != tc.want {
			t.Errorf("%s: ChecksumDetections = %s, want %s", tc.name, got, tc.want)
		}
	}
}
