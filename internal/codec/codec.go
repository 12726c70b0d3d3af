// Package codec is the one frame and the one strict decoder shared by
// crackstore's two binary formats: the remote-serving protocol
// (internal/wire) and the write-ahead log and checkpoint (internal/wal).
//
// # Frame
//
// Every wire message, every WAL record and the checkpoint file travel as
// one frame:
//
//	+----------------+------------------+----------------+---------------------+
//	| length uint32  | length^echo mask | crc32 uint32   | payload             |
//	| big-endian     | big-endian       | IEEE, payload  | (length bytes)      |
//	+----------------+------------------+----------------+---------------------+
//
// The length counts payload bytes only, and travels twice — once plain,
// once XOR-masked — so a reader validates it before trusting it: a
// corrupted length is the one fault a payload CRC cannot catch, because
// the reader would wait for (or slice) a payload that was never written
// instead of reaching the checksum. The mask also keeps an all-zero
// header, the common torn-write shape, from ever validating. Each format
// has its own mask (Frame), so a frame of one format never validates as
// the other's. Readers cap the announced length before allocating, and
// the CRC turns silent byte corruption into a detectable error instead of
// a wrong answer or a wrong replay.
//
// Writers reserve the header with Begin, encode the payload in place
// after it, and backfill the header with End, so framing copies nothing.
//
// # Decoder
//
// Decoder is a strict, bounds-checked cursor over one payload. The first
// truncated or malformed value latches a failure, after which every read
// returns a zero value; the caller checks Done once at the end, which also
// rejects trailing bytes. Element counts decode through Count, which
// refuses any count whose elements could not fit in the bytes that remain,
// so every preallocation stays proportional to the real input (crackvet's
// wirebounds rule proves this per call site). A Decoder is a plain value:
// decoding a payload allocates nothing beyond the decoded values.
package codec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"crackstore/internal/store"
)

// FrameHeader is the byte size of a frame header.
const FrameHeader = 12

// Frame is one frame format, named by the mask its header XORs into the
// length echo.
type Frame uint32

// Header errors.
var (
	// ErrChecksum reports a header whose length disagrees with its echo,
	// or a payload that does not match its CRC.
	ErrChecksum = errors.New("frame checksum mismatch")
	// ErrTooLarge reports a length above the reader's cap.
	ErrTooLarge = errors.New("frame exceeds maximum size")
)

// Begin reserves a frame header at the end of buf and returns the grown
// buffer and the header's offset; the caller appends the payload and
// passes the offset to End.
func Begin(buf []byte) ([]byte, int) {
	return append(buf, make([]byte, FrameHeader)...), len(buf)
}

// End backfills the header reserved at start over the payload that
// follows it, up to the end of buf.
func (f Frame) End(buf []byte, start int) []byte {
	payload := buf[start+FrameHeader:]
	n := uint32(len(payload))
	binary.BigEndian.PutUint32(buf[start:], n)
	binary.BigEndian.PutUint32(buf[start+4:], n^uint32(f))
	binary.BigEndian.PutUint32(buf[start+8:], crc32.ChecksumIEEE(payload))
	return buf
}

// Append appends payload to buf as one frame.
func (f Frame) Append(buf, payload []byte) []byte {
	buf, start := Begin(buf)
	return f.End(append(buf, payload...), start)
}

// Len validates the header at the start of hdr and returns the payload
// length it announces. A length that disagrees with its echo is
// ErrChecksum; one above limit (>= 0) is ErrTooLarge. Both are detected
// before any payload byte is read.
func (f Frame) Len(hdr []byte, limit int) (int, error) {
	n := binary.BigEndian.Uint32(hdr)
	if binary.BigEndian.Uint32(hdr[4:]) != n^uint32(f) {
		return 0, fmt.Errorf("%w: length %d does not match its echo", ErrChecksum, n)
	}
	// Compare in uint64: converting a cap >= 2^32 to uint32 would wrap.
	if uint64(n) > uint64(limit) {
		return 0, fmt.Errorf("%w: %d > %d", ErrTooLarge, n, limit)
	}
	return int(n), nil
}

// Check verifies payload against the CRC in the header at the start of
// hdr.
func Check(hdr, payload []byte) error {
	if got, want := crc32.ChecksumIEEE(payload), binary.BigEndian.Uint32(hdr[8:]); got != want {
		return fmt.Errorf("%w: crc %08x != %08x over %d bytes", ErrChecksum, got, want, len(payload))
	}
	return nil
}

// Cut returns the payload of the frame at the head of b: Len's and
// Check's errors, or io.ErrUnexpectedEOF when b ends inside the frame.
func (f Frame) Cut(b []byte, limit int) ([]byte, error) {
	if len(b) < FrameHeader {
		return nil, io.ErrUnexpectedEOF
	}
	n, err := f.Len(b, limit)
	if err != nil {
		return nil, err
	}
	if n > len(b)-FrameHeader {
		return nil, io.ErrUnexpectedEOF
	}
	payload := b[FrameHeader : FrameHeader+n]
	if err := Check(b, payload); err != nil {
		return nil, err
	}
	return payload, nil
}

// ---------------------------------------------------------------------------
// Encoding.
//
// Integers are encoding/binary varints, appended with binary.AppendUvarint
// and binary.AppendVarint directly; the helpers below cover the rest.
// Value slices are fixed 8-byte little-endian words rather than varints:
// results carry thousands of values, and a fixed-width loop en/decodes an
// order of magnitude faster than per-value varints.

// AppendString appends s as a uvarint length and its bytes.
func AppendString(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// AppendBool appends b as one 0/1 byte.
func AppendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

// AppendWords appends vals as fixed 8-byte little-endian words, uncounted.
func AppendWords(dst []byte, vals []store.Value) []byte {
	for _, v := range vals {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(v))
	}
	return dst
}

// AppendValues appends vals as a uvarint count followed by its words.
func AppendValues(dst []byte, vals []store.Value) []byte {
	return AppendWords(binary.AppendUvarint(dst, uint64(len(vals))), vals)
}

// ---------------------------------------------------------------------------
// Decoding.

// Decoder is a strict decode cursor over one payload.
type Decoder struct {
	b       []byte
	corrupt error // the format's error for a malformed payload
	err     error // first failure, latched
}

// NewDecoder returns a cursor over payload that reports a malformed
// payload as corrupt.
func NewDecoder(payload []byte, corrupt error) Decoder {
	return Decoder{b: payload, corrupt: corrupt}
}

// Fail latches err as the decode's outcome (unless a failure is already
// latched) and drops the remaining input, so every later read fails too.
func (d *Decoder) Fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

// Failed reports whether a failure is latched.
func (d *Decoder) Failed() bool { return d.err != nil }

// Done reports the decode's outcome: the latched failure, a corrupt error
// if bytes remain unread, or nil.
func (d *Decoder) Done() error {
	if d.err == nil && len(d.b) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", d.corrupt, len(d.b))
	}
	return d.err
}

func (d *Decoder) short() { d.Fail(d.corrupt) }

// Byte decodes one raw byte.
func (d *Decoder) Byte() byte {
	if len(d.b) == 0 {
		d.short()
		return 0
	}
	v := d.b[0]
	d.b = d.b[1:]
	return v
}

// Bool decodes a 0/1 byte; any other value is corrupt.
func (d *Decoder) Bool() bool {
	switch d.Byte() {
	case 0:
		return false
	case 1:
		return true
	}
	d.short()
	return false
}

// Uvarint decodes an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.short()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Varint decodes a signed varint.
func (d *Decoder) Varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.short()
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int decodes a uvarint that must fit a non-negative int.
func (d *Decoder) Int() int {
	v := d.Uvarint()
	if v > math.MaxInt {
		d.short()
		return 0
	}
	return int(v)
}

// Count decodes an element count and refuses one whose elements, at
// minSize bytes each, could not fit in the remaining input — the bound
// that keeps a corrupt count from demanding an arbitrary allocation. It
// divides rather than multiplies, so no count can overflow the check.
func (d *Decoder) Count(minSize int) int {
	v := d.Uvarint()
	if v > uint64(len(d.b)/max(minSize, 1)) {
		d.short()
		return 0
	}
	return int(v)
}

// Bytes decodes n raw bytes, aliasing the payload.
func (d *Decoder) Bytes(n int) []byte {
	if uint(n) > uint(len(d.b)) {
		d.short()
		return nil
	}
	v := d.b[:n:n]
	d.b = d.b[n:]
	return v
}

// Str decodes a uvarint-length-prefixed string.
func (d *Decoder) Str() string { return string(d.Bytes(d.Count(1))) }

// Words decodes n fixed 8-byte little-endian values.
func (d *Decoder) Words(n int) []store.Value {
	if uint(n) > uint(len(d.b)/8) {
		d.short()
		return nil
	}
	vals := make([]store.Value, n)
	for i := range vals {
		vals[i] = store.Value(binary.LittleEndian.Uint64(d.b[i*8:]))
	}
	d.b = d.b[n*8:]
	return vals
}

// Values decodes a uvarint count followed by that many words.
func (d *Decoder) Values() []store.Value { return d.Words(d.Count(8)) }
