package codec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"testing"

	"crackstore/internal/store"
)

const (
	maskA Frame = 0x5AA5C33C
	maskB Frame = 0x5AC3A55A
)

var errBad = errors.New("bad payload")

func TestFrameRoundTrip(t *testing.T) {
	payload := []byte("the crack tape")
	framed := maskA.Append([]byte("prefix"), payload)
	buf, start := Begin([]byte("prefix"))
	if inPlace := maskA.End(append(buf, payload...), start); !bytes.Equal(inPlace, framed) {
		t.Fatalf("Begin/End framed %x, Append %x", inPlace, framed)
	}
	got, err := maskA.Cut(framed[len("prefix"):], 1<<10)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("Cut = %q, %v", got, err)
	}
	if _, err := maskB.Cut(framed[len("prefix"):], 1<<10); !errors.Is(err, ErrChecksum) {
		t.Fatalf("frame validated under another format's mask: %v", err)
	}
	if _, err := maskA.Cut(framed[len("prefix"):], len(payload)-1); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("frame over the cap: %v", err)
	}
}

// TestFrameDetectsCorruption: a flipped bit anywhere — length, echo, CRC
// or payload — is ErrChecksum, and every truncation is a short frame.
func TestFrameDetectsCorruption(t *testing.T) {
	framed := maskA.Append(nil, []byte{1, 2, 3, 4, 5})
	for i := range framed {
		bad := append([]byte(nil), framed...)
		bad[i] ^= 0x10
		if _, err := maskA.Cut(bad, 1<<10); !errors.Is(err, ErrChecksum) {
			t.Fatalf("flip at %d: %v, want ErrChecksum", i, err)
		}
	}
	for n := 0; n < len(framed); n++ {
		if _, err := maskA.Cut(framed[:n], 1<<10); err != io.ErrUnexpectedEOF {
			t.Fatalf("truncated to %d: %v, want io.ErrUnexpectedEOF", n, err)
		}
	}
	if _, err := maskA.Cut(make([]byte, 64), 1<<10); !errors.Is(err, ErrChecksum) {
		t.Fatalf("all-zero header validated: %v", err)
	}
}

func TestDecoderRoundTrip(t *testing.T) {
	var b []byte
	b = binary.AppendUvarint(b, 300)
	b = binary.AppendVarint(b, -7)
	b = AppendString(b, "attr")
	b = AppendBool(b, true)
	b = AppendValues(b, []store.Value{-1, 1 << 40})
	b = append(b, 0xAB)
	d := NewDecoder(b, errBad)
	if v := d.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if v := d.Varint(); v != -7 {
		t.Fatalf("Varint = %d", v)
	}
	if s := d.Str(); s != "attr" {
		t.Fatalf("Str = %q", s)
	}
	if !d.Bool() {
		t.Fatal("Bool = false")
	}
	if vals := d.Values(); len(vals) != 2 || vals[0] != -1 || vals[1] != 1<<40 {
		t.Fatalf("Values = %v", vals)
	}
	if err := d.Done(); !errors.Is(err, errBad) {
		t.Fatalf("trailing byte: Done = %v", err)
	}
	if v := d.Byte(); v != 0xAB || d.Done() != nil {
		t.Fatalf("Byte = %x, Done = %v", v, d.Done())
	}
}

// TestDecoderRejectsOverflow: counts and ints that do not fit are
// failures, never wrapped sizes or negative values.
func TestDecoderRejectsOverflow(t *testing.T) {
	count := binary.AppendUvarint(nil, 1<<61)
	for name, read := range map[string]func(*Decoder){
		"count of 2^61 words": func(d *Decoder) { d.Values() },
		"count over the rest": func(d *Decoder) { d.Count(1) },
		"int of 2^63": func(d *Decoder) {
			d.b = binary.AppendUvarint(nil, 1<<63)
			d.Int()
		},
		"int of MaxUint64": func(d *Decoder) {
			d.b = binary.AppendUvarint(nil, math.MaxUint64)
			d.Int()
		},
		"bool of 2": func(d *Decoder) {
			d.b = []byte{2}
			d.Bool()
		},
	} {
		d := NewDecoder(append(count, 1, 2, 3), errBad)
		read(&d)
		if err := d.Done(); !errors.Is(err, errBad) {
			t.Errorf("%s: Done = %v, want the corrupt error", name, err)
		}
	}
}

// TestDecoderLatchesFirstFailure: after a failure every read returns a
// zero value and Done reports the first failure.
func TestDecoderLatchesFirstFailure(t *testing.T) {
	first := errors.New("first")
	d := NewDecoder([]byte{1, 2, 3}, errBad)
	d.Fail(first)
	d.Fail(errBad)
	if d.Byte() != 0 || d.Uvarint() != 0 || d.Str() != "" || len(d.Values()) != 0 || !d.Failed() {
		t.Fatal("read after failure returned data")
	}
	if err := d.Done(); err != first {
		t.Fatalf("Done = %v, want the first failure", err)
	}
}

// FuzzDecoder pins the decoder's safety contract on arbitrary bytes: no
// read panics, and a value slice never holds more words than the input
// has bytes for.
func FuzzDecoder(f *testing.F) {
	f.Add([]byte{})
	f.Add(binary.AppendUvarint(nil, 1<<61))
	f.Add(AppendValues(AppendString(nil, "A"), []store.Value{1, 2}))
	f.Fuzz(func(t *testing.T, b []byte) {
		d := NewDecoder(b, errBad)
		for len(d.b) > 0 {
			switch d.Byte() % 6 {
			case 0:
				d.Str()
			case 1:
				if vals := d.Values(); len(vals)*8 > len(b) {
					t.Fatalf("%d words from %d bytes", len(vals), len(b))
				}
			case 2:
				d.Int()
			case 3:
				d.Varint()
			case 4:
				d.Bool()
			case 5:
				d.Bytes(d.Count(1))
			}
		}
	})
}
