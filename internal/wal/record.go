package wal

import (
	"encoding/binary"
	"errors"
	"fmt"

	"crackstore/internal/codec"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// RecType identifies one write-ahead-log record kind.
type RecType byte

// Record types. The enum is covered by crackvet's exhaustive checker: a
// switch over RecType must either handle every constant or carry a default
// arm, so adding a record kind cannot silently fall through a replay loop.
const (
	// RecInsert is an acked insert batch: Width values per tuple, in
	// relation attribute order, replayed as sequential appends (keys are
	// assigned by position, so log order reproduces the original keys).
	RecInsert RecType = 1
	// RecDelete is an acked delete batch of tuple keys.
	RecDelete RecType = 2
	// RecCrack is one entry of the crack tape: the predicate/projection
	// shape of a query that physically reorganized the store. Replaying the
	// tape re-runs those queries against the recovered base data, which
	// re-cracks the same pieces — the reorganization investment survives
	// the restart. Crack records are redo-only optimization: losing an
	// unsynced tail of the tape costs warmth, never correctness.
	RecCrack RecType = 3
	// RecCheckpoint marks the head of a fresh log segment with the
	// checkpoint sequence number that opened it, so recovery can detect a
	// segment that does not belong to the checkpoint next to it.
	RecCheckpoint RecType = 4
)

func (t RecType) String() string {
	switch t {
	case RecInsert:
		return "insert"
	case RecDelete:
		return "delete"
	case RecCrack:
		return "crack"
	case RecCheckpoint:
		return "checkpoint"
	}
	return fmt.Sprintf("rectype(%d)", byte(t))
}

// Record is one decoded WAL record. Only the fields of its Type are
// meaningful.
type Record struct {
	Type RecType

	// RecInsert: Width values per tuple, len(Vals)/Width tuples.
	Width int
	Vals  []Value

	// RecDelete: tuple keys.
	Keys []int

	// RecCrack: the reorganizing query's shape.
	Preds       []store.AttrPred
	Projs       []string
	Disjunctive bool

	// RecCheckpoint: the checkpoint sequence that opened this segment.
	Seq uint64
}

// Every record, and the checkpoint file, is one internal/codec frame — the
// frame the wire protocol uses too, under a different length-echo mask,
// so a frame of one format never validates as the other's. The masked
// length echo lets a reader validate the length before trusting it, the
// payload CRC turns silent byte corruption into a detectable torn tail
// instead of a wrong replay, and the mask keeps an all-zero header (the
// common torn-write shape) from ever validating.
const (
	frame codec.Frame = 0x5AC3A55A

	// MaxRecord caps a single record frame. A length prefix above it is
	// treated as a torn tail, so a corrupt header cannot make recovery
	// allocate gigabytes.
	MaxRecord = 16 << 20
)

// Codec errors.
var (
	// ErrCorrupt reports a CRC-valid payload that does not decode cleanly:
	// not a torn tail (the checksum passed) but a version skew or a bug,
	// which recovery must refuse rather than guess at.
	ErrCorrupt = errors.New("wal: corrupt record payload")
)

// AppendPayload appends the frameless encoding of rec to dst.
func AppendPayload(dst []byte, rec Record) []byte {
	dst = append(dst, byte(rec.Type))
	switch rec.Type {
	case RecInsert:
		dst = binary.AppendUvarint(dst, uint64(rec.Width))
		dst = codec.AppendValues(dst, rec.Vals)
	case RecDelete:
		dst = appendKeys(dst, rec.Keys)
	case RecCrack:
		dst = binary.AppendUvarint(dst, uint64(len(rec.Preds)))
		for _, p := range rec.Preds {
			dst = codec.AppendString(dst, p.Attr)
			dst = binary.AppendVarint(dst, p.Pred.Lo)
			dst = binary.AppendVarint(dst, p.Pred.Hi)
			var flags byte
			if p.Pred.LoIncl {
				flags |= 1
			}
			if p.Pred.HiIncl {
				flags |= 2
			}
			dst = append(dst, flags)
		}
		dst = binary.AppendUvarint(dst, uint64(len(rec.Projs)))
		for _, s := range rec.Projs {
			dst = codec.AppendString(dst, s)
		}
		dst = codec.AppendBool(dst, rec.Disjunctive)
	case RecCheckpoint:
		dst = binary.AppendUvarint(dst, rec.Seq)
	default:
		panic(fmt.Sprintf("wal: encoding unknown record type %d", rec.Type))
	}
	return dst
}

// AppendRecord appends the framed encoding of rec to dst.
func AppendRecord(dst []byte, rec Record) []byte {
	dst, start := codec.Begin(dst)
	return frame.End(AppendPayload(dst, rec), start)
}

// DecodeRecord decodes a frameless record payload. Decoding is strict:
// every read is bounds-checked, trailing garbage is an error, and slice
// preallocations are capped by the bytes actually remaining, so an
// adversarial payload can neither panic the decoder nor force a large
// allocation (FuzzRecordCodec pins both properties).
func DecodeRecord(payload []byte) (Record, error) {
	d := codec.NewDecoder(payload, ErrCorrupt)
	rec := Record{Type: RecType(d.Byte())}
	switch rec.Type {
	case RecInsert:
		rec.Width = d.Int()
		rec.Vals = d.Values()
		if rec.Width <= 0 || len(rec.Vals)%rec.Width != 0 {
			d.Fail(ErrCorrupt)
		}
	case RecDelete:
		rec.Keys = decodeKeys(&d)
	case RecCrack:
		rec.Preds = make([]store.AttrPred, d.Count(4)) // attr len, lo, hi, flags
		for i := range rec.Preds {
			p := &rec.Preds[i]
			p.Attr = d.Str()
			p.Pred.Lo, p.Pred.Hi = d.Varint(), d.Varint()
			flags := d.Byte()
			p.Pred.LoIncl, p.Pred.HiIncl = flags&1 != 0, flags&2 != 0
			if flags&^3 != 0 {
				d.Fail(ErrCorrupt)
			}
		}
		rec.Projs = make([]string, d.Count(1))
		for i := range rec.Projs {
			rec.Projs[i] = d.Str()
		}
		rec.Disjunctive = d.Bool()
	case RecCheckpoint:
		rec.Seq = d.Uvarint()
	default:
		d.Fail(fmt.Errorf("%w: unknown record type %d", ErrCorrupt, byte(rec.Type)))
	}
	if err := d.Done(); err != nil {
		return Record{}, err
	}
	return rec, nil
}

// appendKeys encodes tuple keys (delete records, checkpoint tombstones) as
// a count and one uvarint per key.
func appendKeys(dst []byte, keys []int) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(keys)))
	for _, k := range keys {
		dst = binary.AppendUvarint(dst, uint64(k))
	}
	return dst
}

// decodeKeys is appendKeys' inverse; a key that does not fit a
// non-negative int is corrupt.
func decodeKeys(d *codec.Decoder) []int {
	keys := make([]int, d.Count(1))
	for i := range keys {
		keys[i] = d.Int()
	}
	return keys
}

// Scan iterates the complete records of b, calling fn for each with the
// record's starting offset. It returns the length of the longest valid
// record prefix: a torn or corrupted tail — truncated header, length echo
// mismatch, missing payload bytes, checksum failure — ends the scan there
// without error, which is exactly the crash-recovery contract (nothing
// past a torn record can be trusted). A CRC-valid record that fails strict
// decoding is a hard error, not a torn tail. fn's error aborts the scan.
func Scan(b []byte, fn func(off int64, rec Record) error) (int64, error) {
	off := 0
	for {
		payload, err := frame.Cut(b[off:], MaxRecord)
		if err != nil {
			return int64(off), nil
		}
		rec, err := DecodeRecord(payload)
		if err != nil {
			return int64(off), fmt.Errorf("wal: record at offset %d: %w", off, err)
		}
		if err := fn(int64(off), rec); err != nil {
			return int64(off), err
		}
		off += codec.FrameHeader + len(payload)
	}
}
