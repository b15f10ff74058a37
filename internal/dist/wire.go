package dist

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/bits"

	"gpustl/internal/circuits"
	"gpustl/internal/fault"
	"gpustl/internal/netlist"
)

// Shard wire format: the bodies of POST /simulate in both directions.
// Every frame opens with a 4-byte magic and a version byte; integers
// are little-endian. Header integers are canonical (shortest-form)
// varints — zigzag for the signed ones — and the bulk arrays are
// fixed-width records, so a frame decodes in one pass with no
// reflection and every record count is checked against the bytes left
// before anything is allocated.
//
//	request: "GSRQ" version
//	         varint shard, varint attempt, uvarint module, varint lanes
//	         uvarint n, n × fault   (8 B: int16 lane, int32 gate, int8 pin, uint8 sa1)
//	         uvarint m, m × pattern (32 B: uint64 cc, int16 lane, int16 warp,
//	                                 int32 pc, uint64 w0, uint64 w1)
//	reply:   "GSRP" version
//	         varint shard, varint attempt, uvarint len + worker bytes
//	         uvarint × 10 SimStats fields, in declaration order
//	         uvarint k, k × detection (16 B: int32 fault, int32 pattern, uint64 cc)
//	         uvarint len + checksum bytes
//
// A frame must end exactly after its last field, and every field has
// one encoding, so any frame that decodes re-encodes to the same bytes.
// There is no negotiation: coordinator and worker ship together, and a
// frame of another magic or version is rejected like any corrupt one.
const (
	wireContentType = "application/x-gpustl-shard"
	wireVersion     = 1

	faultRecBytes     = 8
	patternRecBytes   = 32
	detectionRecBytes = 16
)

var (
	requestMagic = [4]byte{'G', 'S', 'R', 'Q'}
	replyMagic   = [4]byte{'G', 'S', 'R', 'P'}
)

// MaxRequestBytes caps how much of a /simulate request body the worker
// will read, mirroring the client's MaxReplyBytes. A paper-scale shard
// streams about a million patterns (32 MB of records) plus a few
// hundred kilobytes of faults; the cap leaves eight times that, and a
// larger body is answered 413 without being buffered. Variable so tests
// can shrink it.
var MaxRequestBytes int64 = 256 << 20

// errFrameTooLarge is readFrame's over-the-cap error.
var errFrameTooLarge = errors.New("frame exceeds size limit")

// readFrame reads a whole frame body through a hard cap: one byte past
// limit distinguishes "too big" from a frame that exactly fits. A
// declared size within the cap presizes the buffer, so a well-formed
// body is read without regrowing.
func readFrame(r io.Reader, size, limit int64) ([]byte, error) {
	var buf bytes.Buffer
	if size > 0 && size <= limit {
		buf.Grow(int(size) + bytes.MinRead)
	}
	_, err := buf.ReadFrom(&io.LimitedReader{R: r, N: limit + 1})
	if int64(buf.Len()) > limit {
		return nil, errFrameTooLarge
	}
	return buf.Bytes(), err
}

// encodeRequest renders req as a request frame.
func encodeRequest(req *ShardRequest) []byte {
	n := 5 + 6*binary.MaxVarintLen64 + faultRecBytes*len(req.Faults) + patternRecBytes*len(req.Stream)
	b := append(make([]byte, 0, n), requestMagic[:]...)
	b = append(b, wireVersion)
	b = binary.AppendVarint(b, int64(req.Shard))
	b = binary.AppendVarint(b, int64(req.Attempt))
	b = binary.AppendUvarint(b, uint64(req.Module))
	b = binary.AppendVarint(b, int64(req.Lanes))
	b = binary.AppendUvarint(b, uint64(len(req.Faults)))
	le := binary.LittleEndian
	for _, f := range req.Faults {
		b = le.AppendUint16(b, uint16(f.Lane))
		b = le.AppendUint32(b, uint32(f.Site.Gate))
		b = append(b, byte(f.Site.Pin), boolByte(f.Site.SA1))
	}
	b = binary.AppendUvarint(b, uint64(len(req.Stream)))
	for _, p := range req.Stream {
		b = le.AppendUint64(b, p.CC)
		b = le.AppendUint16(b, uint16(p.Lane))
		b = le.AppendUint16(b, uint16(p.Warp))
		b = le.AppendUint32(b, uint32(p.PC))
		b = le.AppendUint64(b, p.Pat.W[0])
		b = le.AppendUint64(b, p.Pat.W[1])
	}
	return b
}

// decodeRequest parses a request frame into req.
func decodeRequest(data []byte, req *ShardRequest) error {
	d := frameDecoder{buf: data}
	d.magic(requestMagic)
	req.Shard = d.int()
	req.Attempt = d.int()
	if mod := d.uvarint(); mod > 0xff {
		d.fail("module kind %d out of range", mod)
	} else {
		req.Module = circuits.ModuleKind(mod)
	}
	req.Lanes = d.int()
	le := binary.LittleEndian
	if n := d.count(faultRecBytes, "fault"); d.err == nil {
		req.Faults = make([]fault.Fault, n)
		for i := range req.Faults {
			r := d.take(faultRecBytes)
			sa1 := r[7]
			if sa1 > 1 {
				d.fail("fault %d: sa1 byte %d", i, sa1)
				break
			}
			req.Faults[i] = fault.Fault{
				Lane: int16(le.Uint16(r)),
				Site: netlist.FaultSite{Gate: int32(le.Uint32(r[2:])), Pin: int8(r[6]), SA1: sa1 == 1},
			}
		}
	}
	if n := d.count(patternRecBytes, "pattern"); d.err == nil {
		req.Stream = make([]fault.TimedPattern, n)
		for i := range req.Stream {
			r := d.take(patternRecBytes)
			req.Stream[i] = fault.TimedPattern{
				CC:   le.Uint64(r),
				Lane: int16(le.Uint16(r[8:])),
				Warp: int16(le.Uint16(r[10:])),
				PC:   int32(le.Uint32(r[12:])),
				Pat:  circuits.Pattern{W: [2]uint64{le.Uint64(r[16:]), le.Uint64(r[24:])}},
			}
		}
	}
	return d.finish("request")
}

// encodeResult renders res as a reply frame.
func encodeResult(res *ShardResult) []byte {
	n := 5 + 15*binary.MaxVarintLen64 + len(res.Worker) + len(res.Checksum) + detectionRecBytes*len(res.Detections)
	b := append(make([]byte, 0, n), replyMagic[:]...)
	b = append(b, wireVersion)
	b = binary.AppendVarint(b, int64(res.Shard))
	b = binary.AppendVarint(b, int64(res.Attempt))
	b = appendString(b, res.Worker)
	for _, v := range statsFields(&res.Stats) {
		b = binary.AppendUvarint(b, *v)
	}
	b = binary.AppendUvarint(b, uint64(len(res.Detections)))
	le := binary.LittleEndian
	for _, det := range res.Detections {
		b = le.AppendUint32(b, uint32(det.Fault))
		b = le.AppendUint32(b, uint32(det.Pattern))
		b = le.AppendUint64(b, det.CC)
	}
	return appendString(b, res.Checksum)
}

// decodeResult parses a reply frame into res.
func decodeResult(data []byte, res *ShardResult) error {
	d := frameDecoder{buf: data}
	d.magic(replyMagic)
	res.Shard = d.int()
	res.Attempt = d.int()
	res.Worker = d.string("worker")
	for _, v := range statsFields(&res.Stats) {
		*v = d.uvarint()
	}
	if n := d.count(detectionRecBytes, "detection"); d.err == nil {
		res.Detections = make([]Detection, n)
		le := binary.LittleEndian
		for i := range res.Detections {
			r := d.take(detectionRecBytes)
			res.Detections[i] = Detection{
				Fault:   int32(le.Uint32(r)),
				Pattern: int32(le.Uint32(r[4:])),
				CC:      le.Uint64(r[8:]),
			}
		}
	}
	res.Checksum = d.string("checksum")
	return d.finish("reply")
}

// statsFields lists every SimStats counter in wire order.
func statsFields(s *fault.SimStats) [10]*uint64 {
	return [10]*uint64{
		&s.Blocks, &s.BlockWords, &s.PlanLevels, &s.PlanRuns, &s.TotalPatterns,
		&s.UniquePatterns, &s.FaultEvals, &s.ConeSkips, &s.PrescreenSkips, &s.Propagations,
	}
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func boolByte(v bool) byte {
	if v {
		return 1
	}
	return 0
}

// frameDecoder walks a frame front to back. The first error sticks:
// later reads return zero values, and finish reports it.
type frameDecoder struct {
	buf []byte
	err error
}

func (d *frameDecoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *frameDecoder) magic(want [4]byte) {
	if len(d.buf) < 5 || !bytes.Equal(d.buf[:4], want[:]) {
		d.fail("bad magic, want %q", want[:])
		return
	}
	if v := d.buf[4]; v != wireVersion {
		d.fail("unsupported wire version %d, want %d", v, wireVersion)
		return
	}
	d.buf = d.buf[5:]
}

// uvarint reads a canonical varint: a padded encoding would decode to
// the same value but re-encode to different bytes, so it is rejected.
func (d *frameDecoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf)
	if n <= 0 || n != uvarintLen(v) {
		d.fail("malformed varint")
		return 0
	}
	d.buf = d.buf[n:]
	return v
}

// int reads a zigzag varint that must fit the platform's int.
func (d *frameDecoder) int() int {
	u := d.uvarint()
	x := int64(u >> 1)
	if u&1 != 0 {
		x = ^x
	}
	if int64(int(x)) != x {
		d.fail("integer %d overflows int", x)
		return 0
	}
	return int(x)
}

// count reads a record count and checks that that many records of size
// bytes each fit in what is left of the frame, so a hostile count can
// never drive an allocation.
func (d *frameDecoder) count(size int, what string) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(len(d.buf)/size) {
		d.fail("%d %s records claimed, only %d bytes left", n, what, len(d.buf))
		return 0
	}
	return int(n)
}

// take returns the next n bytes; count has already checked they exist.
func (d *frameDecoder) take(n int) []byte {
	r := d.buf[:n:n]
	d.buf = d.buf[n:]
	return r
}

func (d *frameDecoder) string(what string) string {
	n := d.count(1, what+" byte")
	if d.err != nil {
		return ""
	}
	return string(d.take(n))
}

func (d *frameDecoder) finish(kind string) error {
	if d.err == nil && len(d.buf) > 0 {
		d.fail("%d trailing bytes", len(d.buf))
	}
	if d.err != nil {
		return fmt.Errorf("dist: shard %s frame: %w", kind, d.err)
	}
	return nil
}

// uvarintLen is the length of v's canonical varint encoding.
func uvarintLen(v uint64) int {
	return max(1, (bits.Len64(v)+6)/7)
}
