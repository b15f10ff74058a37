package dist

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

// fullShardRequest sets every ShardRequest field, with values at the
// edges of each record field's width.
func fullShardRequest() *ShardRequest {
	return &ShardRequest{
		Shard: 12345, Attempt: -3, Module: circuits.ModuleSFU, Lanes: 2,
		Faults: []fault.Fault{
			{Lane: 1, Site: netlist.FaultSite{Gate: 42, Pin: -1, SA1: true}},
			{Lane: math.MinInt16, Site: netlist.FaultSite{Gate: math.MaxInt32, Pin: 2}},
			{Lane: math.MaxInt16, Site: netlist.FaultSite{Gate: -7, Pin: math.MinInt8, SA1: true}},
		},
		Stream: []fault.TimedPattern{
			{CC: 1, Lane: 0, Warp: 3, PC: 0x40, Pat: circuits.Pattern{W: [2]uint64{0xdeadbeef, 1 << 63}}},
			{CC: math.MaxUint64, Lane: -1, Warp: math.MinInt16, PC: math.MinInt32,
				Pat: circuits.Pattern{W: [2]uint64{math.MaxUint64, 0}}},
		},
	}
}

// TestShardCodecRoundTrip: a request and a reply with every field set
// survive encode → decode unchanged. The reply's SimStats fields are
// set through reflection, so a stats counter added later without a wire
// slot fails here instead of silently reading back as zero.
func TestShardCodecRoundTrip(t *testing.T) {
	req := fullShardRequest()
	var gotReq ShardRequest
	if err := decodeRequest(encodeRequest(req), &gotReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotReq, req) {
		t.Fatalf("request round trip:\n got %+v\nwant %+v", &gotReq, req)
	}

	res := &ShardResult{
		Shard: -1, Attempt: math.MaxInt32, Worker: "http://127.0.0.1:9123",
		Detections: []Detection{
			{Fault: 0, Pattern: 1, CC: 17},
			{Fault: math.MaxInt32, Pattern: -1, CC: math.MaxUint64},
		},
		Checksum: strings.Repeat("ab", 32),
	}
	stats := reflect.ValueOf(&res.Stats).Elem()
	for i := 0; i < stats.NumField(); i++ {
		f := stats.Field(i)
		if f.Kind() != reflect.Uint64 {
			t.Fatalf("SimStats.%s is %v: the shard wire format carries only uint64 counters",
				stats.Type().Field(i).Name, f.Kind())
		}
		f.SetUint(uint64(i+1) << (6 * i))
	}
	var gotRes ShardResult
	if err := decodeResult(encodeResult(res), &gotRes); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(&gotRes, res) {
		t.Fatalf("reply round trip:\n got %+v\nwant %+v", &gotRes, res)
	}
}

// TestShardFrameRejects: every malformed frame is an error, never a
// panic or a partially trusted value.
func TestShardFrameRejects(t *testing.T) {
	good := encodeRequest(fullShardRequest())
	mutate := func(f func(b []byte) []byte) []byte {
		return f(append([]byte(nil), good...))
	}
	for name, frame := range map[string][]byte{
		"empty":         nil,
		"bad magic":     mutate(func(b []byte) []byte { b[0] = 'X'; return b }),
		"reply magic":   mutate(func(b []byte) []byte { copy(b, replyMagic[:]); return b }),
		"old version":   mutate(func(b []byte) []byte { b[4] = 0; return b }),
		"truncated":     good[:len(good)-1],
		"trailing byte": append(append([]byte(nil), good...), 0),
		"json body":     []byte(`{"shard":1,"attempt":1}`),
		"padded varint": append(append(append([]byte(nil), requestMagic[:]...), wireVersion), 0x80, 0x00),
		"sa1 byte 2": mutate(func(b []byte) []byte {
			// Three fault records, a one-byte pattern count and two
			// pattern records end the frame; sa1 is a record's last byte.
			first := len(good) - 2*patternRecBytes - 1 - 3*faultRecBytes
			b[first+faultRecBytes-1] = 2
			return b
		}),
		"module out of range": encodeHeaderOnly(func(b []byte) []byte {
			b = binary.AppendVarint(b, 0)
			b = binary.AppendVarint(b, 0)
			return binary.AppendUvarint(b, 256)
		}),
	} {
		var req ShardRequest
		if err := decodeRequest(frame, &req); err == nil {
			t.Errorf("%s: frame accepted", name)
		}
	}
	var res ShardResult
	if err := decodeResult(good, &res); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("request frame decoded as a reply: %v", err)
	}
}

// encodeHeaderOnly returns the request magic and version followed by
// whatever body appends.
func encodeHeaderOnly(body func(b []byte) []byte) []byte {
	return body(append(append([]byte(nil), requestMagic[:]...), wireVersion))
}

// TestShardFrameHostileCount: a 20-byte frame that claims 2^40 patterns
// is rejected before the decoder allocates anything for them — the
// count is checked against the bytes actually left in the frame. A
// claim of 2^20 patterns (32 MB of records, were they trusted) pins the
// no-allocation half: the check runs before make, so the process
// allocates almost nothing decoding it.
func TestShardFrameHostileCount(t *testing.T) {
	claim := func(n uint64) []byte {
		b := encodeHeaderOnly(func(b []byte) []byte {
			b = binary.AppendVarint(b, 1)     // shard
			b = binary.AppendVarint(b, 0)     // attempt
			b = binary.AppendUvarint(b, 0)    // module
			b = binary.AppendVarint(b, 8)     // lanes
			b = binary.AppendUvarint(b, 0)    // faults
			return binary.AppendUvarint(b, n) // patterns
		})
		for len(b) < 20 {
			b = append(b, 0)
		}
		return b
	}
	frame := claim(1 << 40)
	if len(frame) != 20 {
		t.Fatalf("hostile frame is %d bytes, want 20", len(frame))
	}
	var req ShardRequest
	err := decodeRequest(frame, &req)
	if err == nil || !strings.Contains(err.Error(), "1099511627776 pattern records claimed") {
		t.Fatalf("2^40-pattern claim: %v", err)
	}
	if req.Stream != nil {
		t.Fatalf("hostile claim allocated a %d-pattern stream", len(req.Stream))
	}

	frame = claim(1 << 20)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < 10; i++ {
		var req ShardRequest
		if decodeRequest(frame, &req) == nil {
			t.Fatal("2^20-pattern claim accepted")
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 64<<10 {
		t.Fatalf("10 rejected hostile frames allocated %d bytes", got)
	}
}

// TestWorkerRejectsBadFrames: the worker answers a frame of the wrong
// magic or version with the "bad shard request" 400, and a body past
// MaxRequestBytes with 413, declared or not.
func TestWorkerRejectsBadFrames(t *testing.T) {
	srv := httptest.NewServer(NewHandlerMetrics("bf", nil, nil))
	defer srv.Close()
	post := func(body []byte, chunked bool) (int, string) {
		req, err := http.NewRequest(http.MethodPost, srv.URL+simulatePath, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		if chunked {
			req.ContentLength = -1
		}
		req.Header.Set("Content-Type", wireContentType)
		res, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer res.Body.Close()
		var msg bytes.Buffer
		msg.ReadFrom(res.Body)
		return res.StatusCode, msg.String()
	}
	good := encodeRequest(&ShardRequest{Module: circuits.ModuleDU, Lanes: 1})
	wrongVersion := append([]byte(nil), good...)
	wrongVersion[4] = wireVersion + 1
	for name, body := range map[string][]byte{
		"wrong magic":   []byte(`{"shard":0,"attempt":0}`),
		"wrong version": wrongVersion,
	} {
		if code, msg := post(body, false); code != http.StatusBadRequest || !strings.Contains(msg, "bad shard request") {
			t.Errorf("%s: HTTP %d %q, want 400 bad shard request", name, code, msg)
		}
	}
	if code, msg := post(good, false); code != http.StatusOK {
		t.Fatalf("good frame: HTTP %d %q", code, msg)
	}

	old := MaxRequestBytes
	MaxRequestBytes = int64(len(good)) - 1
	defer func() { MaxRequestBytes = old }()
	for _, chunked := range []bool{false, true} {
		if code, msg := post(good, chunked); code != http.StatusRequestEntityTooLarge {
			t.Errorf("oversized request (chunked %v): HTTP %d %q, want 413", chunked, code, msg)
		}
	}
	MaxRequestBytes = int64(len(good))
	if code, msg := post(good, true); code != http.StatusOK {
		t.Errorf("exact-limit request: HTTP %d %q, want 200", code, msg)
	}
}

// FuzzShardRequest: decoding an untrusted request frame never panics,
// and any frame that decodes re-encodes to exactly the same bytes —
// every field has one encoding, so nothing a worker acts on can hide
// in an alternative spelling.
func FuzzShardRequest(f *testing.F) {
	f.Add(encodeRequest(fullShardRequest()))
	f.Add(encodeRequest(&ShardRequest{}))
	f.Add(encodeHeaderOnly(func(b []byte) []byte {
		b = append(b, 0, 0, 0, 0, 0)
		return binary.AppendUvarint(b, 1<<40)
	}))
	f.Fuzz(func(t *testing.T, data []byte) {
		var req ShardRequest
		if err := decodeRequest(data, &req); err != nil {
			return
		}
		if again := encodeRequest(&req); !bytes.Equal(again, data) {
			t.Fatalf("decoded frame re-encodes differently:\n  in %x\n out %x", data, again)
		}
	})
}

// BenchmarkShardCodec: one served-fleet-sized shard (a DU campaign's
// 2,000 faults against a 1,000-pattern stream, a 46 KB request frame)
// through the full wire path — the coordinator's request encode, the
// worker's decode, the worker's reply encode and the coordinator's
// decode.
func BenchmarkShardCodec(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	req := &ShardRequest{Shard: 3, Attempt: 1, Module: circuits.ModuleDU, Lanes: 1,
		Faults: make([]fault.Fault, 2000), Stream: make([]fault.TimedPattern, 1000)}
	for i := range req.Faults {
		req.Faults[i] = fault.Fault{Site: netlist.FaultSite{Gate: r.Int31n(4000), Pin: int8(r.Intn(4) - 1), SA1: r.Intn(2) == 1}}
	}
	for i := range req.Stream {
		req.Stream[i] = fault.TimedPattern{CC: uint64(10 * i), PC: int32(8 * i),
			Pat: circuits.Pattern{W: [2]uint64{r.Uint64(), r.Uint64()}}}
	}
	res := &ShardResult{Shard: 3, Attempt: 1, Worker: "w0", Detections: make([]Detection, 600)}
	for i := range res.Detections {
		res.Detections[i] = Detection{Fault: int32(3 * i), Pattern: int32(i), CC: uint64(10 * i)}
	}
	res.Checksum = ChecksumDetections(res.Detections)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var gotReq ShardRequest
		if err := decodeRequest(encodeRequest(req), &gotReq); err != nil {
			b.Fatal(err)
		}
		var gotRes ShardResult
		if err := decodeResult(encodeResult(res), &gotRes); err != nil {
			b.Fatal(err)
		}
	}
}
