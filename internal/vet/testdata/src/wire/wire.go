// Fixture for the wirebounds and exhaustive checkers: a miniature wire
// package with a codec-style Decoder whose Count is the bounded count
// decoder, decode-side preallocations, and switches over the Op/Status
// enums.
package wire

type Op byte

const (
	OpQuery  Op = 1
	OpInsert Op = 2
	OpPing   Op = 3
)

type Status byte

const (
	StatusOK  Status = 0
	StatusErr Status = 1
)

// Decoder mirrors codec.Decoder: Count refuses any count exceeding what
// the remaining input could possibly hold (minSize bytes per element).
type Decoder struct{ b []byte }

func (d *Decoder) Uvarint() int {
	if len(d.b) == 0 {
		return 0
	}
	n := int(d.b[0])
	d.b = d.b[1:]
	return n
}

func (d *Decoder) Count(minSize int) int {
	n := d.Uvarint()
	if n > len(d.b)/minSize {
		d.b = nil
		return 0
	}
	return n
}

// counter has a Count method too, but it is not a Decoder's.
type counter struct{}

func (counter) Count(int) int { return 1 << 40 }

func okBounded(b []byte) []int64 {
	d := &Decoder{b: b}
	n := d.Count(8)
	return make([]int64, n)
}

// okDirectCount passes the shared bounded count straight to make.
func okDirectCount(d *Decoder) []string {
	return make([]string, d.Count(1))
}

func badUncounted(d *Decoder) []int64 {
	return make([]int64, d.Uvarint()) // want "preallocation size"
}

func badForeignCount(c counter) []int64 {
	return make([]int64, c.Count(8)) // want "preallocation size"
}

// okGuarded mirrors the frame-header path: the length is validated against
// an explicit limit before any payload exists to measure it against.
func okGuarded(b []byte, maxFrame int) []byte {
	n := int(b[0])
	if uint64(n) > uint64(maxFrame) {
		return nil
	}
	return make([]byte, n)
}

func okFromLen(b []byte) []byte {
	dst := make([]byte, len(b))
	copy(dst, b)
	return dst
}

func okConstant() []int {
	return make([]int, 16)
}

func badUnbounded(b []byte) []int64 {
	n := int(b[0])
	return make([]int64, n) // want "preallocation size"
}

func badMapPrealloc(b []byte) map[int]int {
	n := int(b[0])
	return make(map[int]int, n) // want "preallocation size"
}

func describeOp(op Op) string {
	switch op { // want "misses OpPing and has no default arm"
	case OpQuery:
		return "query"
	case OpInsert:
		return "insert"
	}
	return "?"
}

func okDefaultArm(op Op) string {
	switch op {
	case OpQuery:
		return "query"
	default:
		return "other"
	}
}

func okFullCoverage(st Status) string {
	switch st {
	case StatusOK:
		return "ok"
	case StatusErr:
		return "err"
	}
	return ""
}

func badEmptySwitch(st Status) int {
	switch st { // want "misses StatusErr, StatusOK and has no default arm"
	}
	return 0
}
