package wal

import (
	"bytes"
	"encoding/binary"
	"errors"
	"reflect"
	"testing"

	"crackstore/internal/codec"
	"crackstore/internal/store"
)

func sampleRecords() []Record {
	return []Record{
		{Type: RecInsert, Width: 3, Vals: []Value{1, 2, 3, 40, 50, 60}},
		{Type: RecInsert, Width: 1, Vals: []Value{-9}},
		{Type: RecDelete, Keys: []int{0, 7, 123456}},
		{Type: RecCrack, Preds: []store.AttrPred{
			{Attr: "A", Pred: store.Pred{Lo: -5, Hi: 100, LoIncl: true}},
			{Attr: "B", Pred: store.Pred{Lo: 3, Hi: 3, LoIncl: true, HiIncl: true}},
		}, Projs: []string{"A", "C"}, Disjunctive: true},
		{Type: RecCrack, Preds: []store.AttrPred{{Attr: "A", Pred: store.Range(10, 20)}}},
		{Type: RecCheckpoint, Seq: 42},
	}
}

// recEqual compares records ignoring nil-vs-empty slice representation.
func recEqual(a, b Record) bool {
	norm := func(r Record) Record {
		if len(r.Vals) == 0 {
			r.Vals = nil
		}
		if len(r.Keys) == 0 {
			r.Keys = nil
		}
		if len(r.Preds) == 0 {
			r.Preds = nil
		}
		if len(r.Projs) == 0 {
			r.Projs = nil
		}
		return r
	}
	return reflect.DeepEqual(norm(a), norm(b))
}

func TestRecordRoundTrip(t *testing.T) {
	for _, rec := range sampleRecords() {
		payload := AppendPayload(nil, rec)
		got, err := DecodeRecord(payload)
		if err != nil {
			t.Fatalf("%v: decode: %v", rec.Type, err)
		}
		if !recEqual(got, rec) {
			t.Fatalf("%v: round trip mismatch:\n got %+v\nwant %+v", rec.Type, got, rec)
		}
	}
}

func TestScanTornTailEveryByte(t *testing.T) {
	recs := sampleRecords()
	var buf []byte
	var bounds []int // buffer offset after each record
	for _, rec := range recs {
		buf = AppendRecord(buf, rec)
		bounds = append(bounds, len(buf))
	}
	for k := 0; k <= len(buf); k++ {
		wantValid := 0
		wantRecs := 0
		for i, b := range bounds {
			if b <= k {
				wantValid = b
				wantRecs = i + 1
			}
		}
		var got []Record
		valid, err := Scan(buf[:k], func(_ int64, rec Record) error {
			got = append(got, rec)
			return nil
		})
		if err != nil {
			t.Fatalf("truncate %d: scan error: %v", k, err)
		}
		if valid != int64(wantValid) || len(got) != wantRecs {
			t.Fatalf("truncate %d: got valid=%d recs=%d, want valid=%d recs=%d",
				k, valid, len(got), wantValid, wantRecs)
		}
		for i, rec := range got {
			if !recEqual(rec, recs[i]) {
				t.Fatalf("truncate %d: record %d mismatch", k, i)
			}
		}
	}
}

func TestScanRejectsCorruptPayload(t *testing.T) {
	// Flip a payload byte and refresh nothing: the CRC must catch it and
	// Scan must stop there (torn tail, not an error).
	buf := AppendRecord(nil, Record{Type: RecDelete, Keys: []int{1, 2}})
	buf = AppendRecord(buf, Record{Type: RecCheckpoint, Seq: 9})
	buf[codec.FrameHeader] ^= 0xFF
	n := 0
	valid, err := Scan(buf, func(_ int64, _ Record) error { n++; return nil })
	if err != nil || valid != 0 || n != 0 {
		t.Fatalf("corrupt first record: valid=%d n=%d err=%v, want 0,0,nil", valid, n, err)
	}
}

func TestScanZeroFill(t *testing.T) {
	// An all-zero region (preallocated/torn file tail) must never parse as
	// a record: the masked length echo cannot be satisfied by zeros.
	valid, err := Scan(make([]byte, 4096), func(_ int64, _ Record) error { return nil })
	if err != nil || valid != 0 {
		t.Fatalf("zero fill: valid=%d err=%v, want 0,nil", valid, err)
	}
}

func TestDecodeRejectsOversizeCounts(t *testing.T) {
	// A delete record claiming 2^40 keys in a 3-byte payload must fail
	// cleanly (and, per the fuzz no-large-alloc property, without
	// allocating for the claimed count).
	payload := []byte{byte(RecDelete), 0x80, 0x80, 0x80, 0x80, 0x80, 0x40}
	if _, err := DecodeRecord(payload); err == nil {
		t.Fatal("oversize key count decoded without error")
	}
}

// overflowPayloads are CRC-valid-looking payloads whose counts or keys
// overflow: an insert announcing 2^61 values (whose byte size, 2^64,
// wraps a multiplied bound to zero) and a delete key of 2^63 (which does
// not fit a non-negative int).
func overflowPayloads() map[string][]byte {
	return map[string][]byte{
		"insert of 2^61 values": binary.AppendUvarint(binary.AppendUvarint([]byte{byte(RecInsert)}, 1), 1<<61),
		"delete key 2^63":       binary.AppendUvarint(binary.AppendUvarint([]byte{byte(RecDelete)}, 1), 1<<63),
	}
}

func TestDecodeRejectsOverflow(t *testing.T) {
	for name, payload := range overflowPayloads() {
		if rec, err := DecodeRecord(payload); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %+v, %v; want ErrCorrupt", name, rec, err)
		}
		// Framed, the record passes its CRC, so recovery must refuse it
		// as a hard error rather than treat it as a torn tail.
		if _, err := Scan(frame.Append(nil, payload), func(int64, Record) error { return nil }); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: Scan returned %v, want ErrCorrupt", name, err)
		}
	}
}

// FuzzRecordCodec pins the codec's safety contract on arbitrary bytes:
// DecodeRecord never panics, and when it accepts a payload, re-encoding
// the decoded record is a fixed point (decode∘encode is the identity on
// decoder outputs, and encode∘decode is the identity on encoder outputs —
// arbitrary accepted inputs may differ from their re-encoding only by
// non-canonical varints, which strictness mostly forbids anyway).
func FuzzRecordCodec(f *testing.F) {
	for _, rec := range sampleRecords() {
		f.Add(AppendPayload(nil, rec))
	}
	for _, payload := range overflowPayloads() {
		f.Add(payload)
	}
	f.Add([]byte{})
	f.Add([]byte{byte(RecInsert)})
	f.Fuzz(func(t *testing.T, payload []byte) {
		rec, err := DecodeRecord(payload)
		if err != nil {
			return
		}
		enc := AppendPayload(nil, rec)
		rec2, err := DecodeRecord(enc)
		if err != nil {
			t.Fatalf("re-decode of re-encoding failed: %v", err)
		}
		if !recEqual(rec, rec2) {
			t.Fatalf("decode/encode/decode not stable:\n first %+v\nsecond %+v", rec, rec2)
		}
		if enc2 := AppendPayload(nil, rec2); !bytes.Equal(enc, enc2) {
			t.Fatalf("encoder not deterministic")
		}
	})
}

// FuzzScanTornTail pins torn-tail truncation: for a log built from fuzzed
// record parameters, truncating at every byte boundary recovers exactly
// the records whose frames are complete — never fewer, never a phantom.
func FuzzScanTornTail(f *testing.F) {
	f.Add(int64(1), uint8(3), uint8(4))
	f.Add(int64(-77), uint8(1), uint8(9))
	f.Fuzz(func(t *testing.T, v int64, nrec, width uint8) {
		n := int(nrec%6) + 1
		w := int(width%4) + 1
		var buf []byte
		var bounds []int
		for i := 0; i < n; i++ {
			var rec Record
			switch i % 3 {
			case 0:
				vals := make([]Value, w)
				for j := range vals {
					vals[j] = v + Value(i*j)
				}
				rec = Record{Type: RecInsert, Width: w, Vals: vals}
			case 1:
				rec = Record{Type: RecDelete, Keys: []int{i, i * 7}}
			default:
				rec = Record{Type: RecCrack, Preds: []store.AttrPred{{Attr: "A", Pred: store.Range(v, v+Value(i))}}}
			}
			buf = AppendRecord(buf, rec)
			bounds = append(bounds, len(buf))
		}
		for k := 0; k <= len(buf); k++ {
			want := 0
			for _, b := range bounds {
				if b <= k {
					want = b
				}
			}
			valid, err := Scan(buf[:k], func(int64, Record) error { return nil })
			if err != nil {
				t.Fatalf("truncate %d: %v", k, err)
			}
			if valid != int64(want) {
				t.Fatalf("truncate %d: valid=%d want %d", k, valid, want)
			}
		}
	})
}
