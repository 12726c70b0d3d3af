// Package wire implements the remote-serving protocol: a compact
// length-prefixed binary encoding of the engine query/update API, so a
// crackstore engine can be served over a TCP connection (internal/netserve)
// and driven by a multiplexing client (crackstore/client).
//
// # Framing
//
// Every message travels as one internal/codec frame — the frame the WAL
// uses too: a big-endian payload length, the same length XOR-masked (by
// this protocol's mask, a different one in the WAL), and a CRC-32 of the
// payload. A header whose echo disagrees with its length is ErrChecksum
// before any payload byte is read, so a corrupted length never decides
// how many bytes the reader waits for. A length above the reader's cap
// (MaxFrame / DefaultMaxFrame) is ErrFrameTooLarge before any allocation,
// so a corrupt or adversarial prefix cannot make the receiver allocate
// gigabytes. A payload that fails its CRC is ErrChecksum: a value column
// is raw 8-byte words, so without the CRC a flipped bit — a flaky link, a
// broken middlebox — would decode cleanly into a different value.
// Corruption is not recoverable in-stream (the frame boundary itself is
// untrusted); the reader reports it and the connection ends, which the
// client treats like any other connection failure and retries
// idempotently elsewhere.
//
// # Payloads
//
// A payload is a message type byte, a request ID uvarint, and a
// type-dependent body. Scalar integers are varints (encoding/binary);
// strings are uvarint-counted; value slices (insert tuples, result
// columns) are uvarint-counted fixed 8-byte little-endian words, which
// en/decode an order of magnitude faster than varints on large results.
// The request ID pairs a response with its request: responses may come
// back in any order, which is what lets a single connection pipeline many
// in-flight requests.
//
// Requests: OpQuery and OpQueryRO carry a Query (predicates, projections,
// disjunctive flag); OpInsert carries the tuple values; OpDelete the tuple
// key; OpStats and OpPing are empty. Every request also carries a TTL
// uvarint (microseconds; 0 = none) — a deadline hint that lets the server
// skip executing requests whose caller has already given up — and the
// write requests (OpInsert, OpDelete) carry an idempotency token: the
// server deduplicates retried writes by token and replays the recorded
// response, so a client may safely resend a write whose response was lost.
//
// Responses: StatusOK carries the op-specific body (result+cost, inserted
// key, nothing, serving stats); StatusErr carries an error string;
// StatusRefused is the QueryRO "would reorganize" answer; StatusOverloaded
// is the in-band shed answer — the server declined cheaply under overload
// and the client should back off and retry, with no work done and the
// connection intact.
//
// Decoding is strict and runs on the same codec.Decoder as the WAL:
// every read is bounds-checked, trailing garbage is an error, and slice
// preallocations are capped by the bytes actually remaining, so a
// truncated or adversarial frame can neither panic the decoder nor make
// it over-allocate (FuzzDecodeRequest and FuzzDecodeResponse pin both
// properties).
//
// # Tracing extension
//
// A traced request sets traceFlag (0x40) on its op byte and carries a
// trace ID uvarint after the TTL; the matching response sets the same
// flag and appends a per-stage span list (queue, execute, crack) after
// its body. The flag bit is free — request ops are small positive bytes
// and responses use the 0x80 tag — so untraced traffic is byte-identical
// to the previous protocol version: an old client never sets the flag
// and a new server answers it exactly as before. A new client discovers
// whether its server understands the extension with OpHello (a
// protocol-version exchange): an old server answers Hello with its usual
// in-band unknown-op error and an intact connection, which the client
// reads as "no tracing", and simply never sets the flag.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"time"

	"crackstore/internal/codec"
	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/store"
)

// ProtoVersion is the protocol version this package speaks, exchanged by
// OpHello. Version 2 added the tracing extension (traceFlag + span
// lists); version 1 is the implied pre-Hello protocol.
const ProtoVersion = 2

// FrameHeader is the byte size of the frame header (see internal/codec).
const FrameHeader = codec.FrameHeader

// frame is the protocol's frame format. Its length-echo mask differs from
// the WAL's, so a frame of one format never validates as the other's.
const frame codec.Frame = 0x5AA5C33C

// DefaultMaxFrame is the frame-size cap used when a reader does not choose
// its own: large enough for result sets of a few million tuples, small
// enough that a corrupt length prefix cannot exhaust memory.
const DefaultMaxFrame = 64 << 20

// Op identifies a request kind (and echoes in its response).
type Op byte

// Request operations.
const (
	OpQuery   Op = 1 // full query: may reorganize (crack, merge, materialize)
	OpQueryRO Op = 2 // reorganization-free query; refused if it would reorganize
	OpInsert  Op = 3 // append one tuple
	OpDelete  Op = 4 // delete by tuple key
	OpStats   Op = 5 // serving-layer statistics snapshot
	OpPing    Op = 6 // health check: answered immediately, bypassing admission
	// OpHello exchanges protocol versions. New clients send it once per
	// connection before relying on any protocol extension; servers answer
	// with their own ProtoVersion. Servers predating OpHello answer with
	// their regular in-band unknown-op error (connection intact), which a
	// client must treat as version 1.
	OpHello Op = 7
)

func (o Op) String() string {
	switch o {
	case OpQuery:
		return "query"
	case OpQueryRO:
		return "query-ro"
	case OpInsert:
		return "insert"
	case OpDelete:
		return "delete"
	case OpStats:
		return "stats"
	case OpPing:
		return "ping"
	case OpHello:
		return "hello"
	}
	return fmt.Sprintf("op(%d)", byte(o))
}

// Status is the response disposition.
type Status byte

// Response statuses.
const (
	StatusOK      Status = 0 // body is the op-specific success payload
	StatusErr     Status = 1 // body is an error string
	StatusRefused Status = 2 // OpQueryRO only: executing would reorganize
	// StatusOverloaded is the in-band shed response: the server's admission
	// watermark (or global in-flight cap) was exceeded, the request did not
	// execute, and the connection remains healthy. Clients back off and
	// retry; shedding never closes the connection.
	StatusOverloaded Status = 3
)

// respTag marks a payload as a response (high bit set over the request op).
const respTag byte = 0x80

// traceFlag marks a traced payload: the request carries a trace ID
// uvarint after its TTL, the response carries a span list after its
// body. Free bit: ops are small positive bytes, responses use respTag.
const traceFlag byte = 0x40

// Request is one decoded client request.
type Request struct {
	ID uint64
	Op Op

	// TTL is the caller's remaining deadline budget when the request was
	// sent (microsecond resolution on the wire; 0 = no deadline). The
	// server treats arrival+TTL as the request's deadline and skips
	// executing requests that expire while queued — the caller has already
	// given up, so the work would be wasted and the worker slot occupied
	// for nothing.
	TTL time.Duration

	// Token is the idempotency token of a write request (OpInsert,
	// OpDelete; 0 = none). The server keeps a bounded window of recently
	// executed tokens and answers a repeated token by replaying the
	// recorded response instead of applying the write again — what makes a
	// write safe to retry after its frame reached the wire.
	Token uint64

	// Trace is the nonzero trace ID of a sampled query (0 = untraced).
	// Traced requests set traceFlag on the wire and ask the server to
	// time its stages and return them as response spans.
	Trace uint64

	// Version is the client's protocol version (OpHello only).
	Version uint64

	// Query body (OpQuery, OpQueryRO).
	Query engine.Query
	// Vals is the tuple of an OpInsert, in relation attribute order.
	Vals []store.Value
	// Key is the tuple key of an OpDelete.
	Key int
}

// Response is one decoded server response.
type Response struct {
	ID     uint64
	Op     Op
	Status Status
	// Err is the error string of a StatusErr response.
	Err string

	// Result and Cost answer OpQuery / OpQueryRO.
	Result engine.Result
	Cost   engine.Cost
	// Key answers OpInsert.
	Key int
	// Stats answers OpStats.
	Stats Stats
	// Version answers OpHello: the server's protocol version.
	Version uint64

	// Spans are the server-side stage timings of a traced request
	// (StageQueue, StageExecute, StageCrack), with Start offsets relative
	// to the server's receipt of the request. Present only when the
	// request carried a trace ID and the server speaks the extension.
	Spans []obs.Span
}

// Stats is the wire form of the serving-layer statistics: scalar summary
// only (the per-query latency series stays server-side).
type Stats struct {
	Queries int
	Errors  int
	// Sheds counts requests refused in-band under overload
	// (StatusOverloaded); they neither executed nor count as Errors.
	Sheds   int
	Elapsed time.Duration
	QPS     float64

	P50, P95, P99, Max time.Duration
}

// Errors shared by the codec layer.
var (
	// ErrFrameTooLarge reports a length prefix above the reader's cap.
	ErrFrameTooLarge = codec.ErrTooLarge
	// ErrCorrupt reports a payload that does not decode cleanly.
	ErrCorrupt = errors.New("wire: corrupt payload")
	// ErrChecksum reports a frame whose length disagrees with its echo or
	// whose payload does not match its CRC: the stream carried corrupted
	// bytes and cannot be trusted past this point.
	ErrChecksum = codec.ErrChecksum
)

// ---------------------------------------------------------------------------
// Framing.

// AppendFrame appends payload to buf as one frame.
func AppendFrame(buf, payload []byte) []byte { return frame.Append(buf, payload) }

// bodyChunk bounds what a frame header alone can make ReadFrame allocate:
// a body up to this size gets one exact-size buffer, and a larger one
// grows only as its bytes arrive.
const bodyChunk = 64 << 10

// readBody reads an n-byte frame body, doubling its buffer from bodyChunk
// as bytes arrive, so a peer that announces a huge frame and then stalls
// or hangs up pins bodyChunk or about twice the bytes it actually sent,
// not the announced length.
func readBody(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, bodyChunk))
	off := 0
	for {
		m, err := io.ReadFull(r, buf[off:])
		if off += m; err != nil || off == n {
			return buf, err
		}
		next := make([]byte, min(2*len(buf), n))
		copy(next, buf)
		buf = next
	}
}

// ReadFrame reads one frame's payload from r. A header whose masked
// length echo disagrees with its length draws ErrChecksum immediately,
// before any payload read — a corrupted length must never decide how many
// bytes to wait for, or the reader could stall forever on a mis-framed
// stream. Frames longer than maxFrame (DefaultMaxFrame when <= 0) return
// ErrFrameTooLarge before any payload allocation, and a body over
// bodyChunk gets a buffer that grows only as its bytes arrive (see
// readBody); a payload that fails its CRC returns ErrChecksum — the
// stream carried corruption and the connection should be abandoned.
// io.EOF is returned only on a clean boundary (no partial header).
func ReadFrame(r io.Reader, maxFrame int) ([]byte, error) {
	if maxFrame <= 0 {
		maxFrame = DefaultMaxFrame
	}
	var hdr [FrameHeader]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		if err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame header: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	n, err := frame.Len(hdr[:], maxFrame)
	if err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	payload, err := readBody(r, n)
	if err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, fmt.Errorf("wire: truncated frame body: %w", io.ErrUnexpectedEOF)
		}
		return nil, err
	}
	if err := codec.Check(hdr[:], payload); err != nil {
		return nil, fmt.Errorf("wire: %w", err)
	}
	return payload, nil
}

// ---------------------------------------------------------------------------
// Query / Result / Cost bodies. Primitives (varints, strings, bools,
// value words) are internal/codec's; the bodies below compose them.

func appendQuery(buf []byte, q engine.Query) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(q.Preds)))
	for _, ap := range q.Preds {
		buf = codec.AppendString(buf, ap.Attr)
		buf = binary.AppendVarint(buf, ap.Pred.Lo)
		buf = binary.AppendVarint(buf, ap.Pred.Hi)
		buf = codec.AppendBool(buf, ap.Pred.LoIncl)
		buf = codec.AppendBool(buf, ap.Pred.HiIncl)
	}
	buf = binary.AppendUvarint(buf, uint64(len(q.Projs)))
	for _, p := range q.Projs {
		buf = codec.AppendString(buf, p)
	}
	return codec.AppendBool(buf, q.Disjunctive)
}

func decodeQuery(d *codec.Decoder) (q engine.Query) {
	if n := d.Count(5); n > 0 { // attr len + 4 pred bytes minimum
		q.Preds = make([]engine.AttrPred, n)
		for i := range q.Preds {
			ap := &q.Preds[i]
			ap.Attr = d.Str()
			ap.Pred.Lo, ap.Pred.Hi = d.Varint(), d.Varint()
			ap.Pred.LoIncl, ap.Pred.HiIncl = d.Bool(), d.Bool()
		}
	}
	if n := d.Count(1); n > 0 {
		q.Projs = make([]string, n)
		for i := range q.Projs {
			q.Projs[i] = d.Str()
		}
	}
	q.Disjunctive = d.Bool()
	return q
}

// appendResult encodes a result in sorted column order, so the encoding of
// a given Result is canonical regardless of map iteration order — the
// answer-equivalence tests byte-compare encodings.
func appendResult(buf []byte, res engine.Result) []byte {
	buf = binary.AppendUvarint(buf, uint64(res.N))
	names := make([]string, 0, len(res.Cols))
	for name := range res.Cols {
		names = append(names, name)
	}
	sort.Strings(names)
	buf = binary.AppendUvarint(buf, uint64(len(names)))
	for _, name := range names {
		buf = codec.AppendString(buf, name)
		buf = codec.AppendValues(buf, res.Cols[name])
	}
	return buf
}

func decodeResult(d *codec.Decoder) (res engine.Result) {
	// N is the row count, not a buffer size; cap it sanely rather than
	// against remaining bytes (columns may legitimately be absent).
	if n := d.Uvarint(); n <= math.MaxInt32 {
		res.N = int(n)
	} else {
		d.Fail(ErrCorrupt)
	}
	cols := d.Count(2) // name len + value count minimum
	res.Cols = make(map[string][]store.Value, cols)
	for i := 0; i < cols && !d.Failed(); i++ {
		name, vals := d.Str(), d.Values()
		if _, dup := res.Cols[name]; dup {
			d.Fail(fmt.Errorf("%w: duplicate column %q", ErrCorrupt, name))
		}
		res.Cols[name] = vals
	}
	return res
}

func appendCost(buf []byte, c engine.Cost) []byte {
	buf = binary.AppendVarint(buf, int64(c.Sel))
	return binary.AppendVarint(buf, int64(c.TR))
}

func decodeCost(d *codec.Decoder) engine.Cost {
	return engine.Cost{Sel: time.Duration(d.Varint()), TR: time.Duration(d.Varint())}
}

func appendStats(buf []byte, st Stats) []byte {
	buf = binary.AppendUvarint(buf, uint64(st.Queries))
	buf = binary.AppendUvarint(buf, uint64(st.Errors))
	buf = binary.AppendUvarint(buf, uint64(st.Sheds))
	buf = binary.AppendVarint(buf, int64(st.Elapsed))
	buf = binary.AppendUvarint(buf, math.Float64bits(st.QPS))
	for _, p := range [...]time.Duration{st.P50, st.P95, st.P99, st.Max} {
		buf = binary.AppendVarint(buf, int64(p))
	}
	return buf
}

// decodeStats decodes the counters as non-negative ints: they are 64-bit,
// since a long-lived daemon legitimately exceeds 2^31 queries within hours
// at measured rates.
func decodeStats(d *codec.Decoder) Stats {
	var st Stats
	st.Queries, st.Errors, st.Sheds = d.Int(), d.Int(), d.Int()
	st.Elapsed = time.Duration(d.Varint())
	st.QPS = math.Float64frombits(d.Uvarint())
	for _, p := range [...]*time.Duration{&st.P50, &st.P95, &st.P99, &st.Max} {
		*p = time.Duration(d.Varint())
	}
	return st
}

// appendSpans encodes a span list: count, then per span a stage byte and
// start/dur as nanosecond uvarints. Negative offsets clamp to zero (a
// span never legitimately starts before its trace).
func appendSpans(buf []byte, spans []obs.Span) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(spans)))
	for _, sp := range spans {
		buf = append(buf, byte(sp.Stage))
		buf = binary.AppendUvarint(buf, uint64(max(sp.Start, 0)))
		buf = binary.AppendUvarint(buf, uint64(max(sp.Dur, 0)))
	}
	return buf
}

func decodeSpans(d *codec.Decoder) []obs.Span {
	n := d.Count(3) // stage byte + two 1-byte uvarints minimum
	if n == 0 {
		return nil
	}
	spans := make([]obs.Span, n)
	for i := range spans {
		st := obs.Stage(d.Byte())
		if (st == 0 || st > obs.MaxStage) && !d.Failed() {
			d.Fail(fmt.Errorf("%w: unknown trace stage %d", ErrCorrupt, st))
		}
		spans[i] = obs.Span{Stage: st, Start: time.Duration(d.Int()), Dur: time.Duration(d.Int())}
	}
	return spans
}

// ---------------------------------------------------------------------------
// Request codec.

// maxTTLMicros bounds the decoded deadline hint so a corrupt (or
// adversarial) TTL cannot overflow the Duration conversion.
const maxTTLMicros = uint64(math.MaxInt64 / int64(time.Microsecond))

// AppendRequest appends req as one complete frame (prefix included).
func AppendRequest(buf []byte, req *Request) []byte {
	buf, start := codec.Begin(buf)
	op := byte(req.Op)
	if req.Trace != 0 {
		op |= traceFlag
	}
	buf = append(buf, op)
	buf = binary.AppendUvarint(buf, req.ID)
	buf = binary.AppendUvarint(buf, uint64(max(req.TTL/time.Microsecond, 0)))
	if req.Trace != 0 {
		buf = binary.AppendUvarint(buf, req.Trace)
	}
	switch req.Op {
	case OpQuery, OpQueryRO:
		buf = appendQuery(buf, req.Query)
	case OpInsert:
		buf = binary.AppendUvarint(buf, req.Token)
		buf = codec.AppendValues(buf, req.Vals)
	case OpDelete:
		buf = binary.AppendUvarint(buf, req.Token)
		buf = binary.AppendVarint(buf, int64(req.Key))
	case OpStats, OpPing:
		// no body
	case OpHello:
		buf = binary.AppendUvarint(buf, req.Version)
	default:
		panic(fmt.Sprintf("wire: cannot encode request op %v", req.Op))
	}
	return frame.End(buf, start)
}

// requestHeader decodes a request's op byte (trace flag stripped) and ID.
func requestHeader(d *codec.Decoder) (op Op, id uint64, traced bool) {
	tagged := d.Byte()
	return Op(tagged &^ traceFlag), d.Uvarint(), tagged&traceFlag != 0
}

// RequestHeader returns the op and ID of a request payload whose full
// decode failed, so the server can answer the error in-band to the right
// waiter. ok is false when even the header does not decode. The op never
// carries the trace flag: the answer is an untraced error response.
func RequestHeader(payload []byte) (op Op, id uint64, ok bool) {
	d := codec.NewDecoder(payload, ErrCorrupt)
	op, id, _ = requestHeader(&d)
	return op, id, !d.Failed()
}

// DecodeRequest decodes one request payload (a frame body).
func DecodeRequest(payload []byte) (Request, error) {
	var req Request
	d := codec.NewDecoder(payload, ErrCorrupt)
	var traced bool
	req.Op, req.ID, traced = requestHeader(&d)
	if ttl := d.Uvarint(); ttl <= maxTTLMicros {
		req.TTL = time.Duration(ttl) * time.Microsecond
	} else {
		d.Fail(fmt.Errorf("%w: ttl overflows", ErrCorrupt))
	}
	if traced {
		if req.Trace = d.Uvarint(); req.Trace == 0 {
			d.Fail(fmt.Errorf("%w: traced request with zero trace id", ErrCorrupt))
		}
	}
	switch req.Op {
	case OpQuery, OpQueryRO:
		req.Query = decodeQuery(&d)
	case OpInsert:
		req.Token = d.Uvarint()
		req.Vals = d.Values()
	case OpDelete:
		req.Token = d.Uvarint()
		if req.Key = int(d.Varint()); req.Key < 0 {
			d.Fail(ErrCorrupt)
		}
	case OpStats, OpPing:
		// no body
	case OpHello:
		req.Version = d.Uvarint()
	default:
		d.Fail(fmt.Errorf("%w: unknown request op %d", ErrCorrupt, byte(req.Op)))
	}
	return req, d.Done()
}

// ---------------------------------------------------------------------------
// Response codec.

// AppendResponse appends resp as one complete frame (prefix included).
func AppendResponse(buf []byte, resp *Response) []byte {
	buf, start := codec.Begin(buf)
	tag := byte(resp.Op) | respTag
	if len(resp.Spans) > 0 {
		tag |= traceFlag
	}
	buf = append(buf, tag)
	buf = binary.AppendUvarint(buf, resp.ID)
	buf = append(buf, byte(resp.Status))
	switch resp.Status {
	case StatusErr:
		buf = codec.AppendString(buf, resp.Err)
	case StatusRefused:
		// no body: the query must be retried as OpQuery
	case StatusOverloaded:
		// no body: the request was shed before executing; retry with backoff
	case StatusOK:
		switch resp.Op {
		case OpQuery, OpQueryRO:
			buf = appendResult(buf, resp.Result)
			buf = appendCost(buf, resp.Cost)
		case OpInsert:
			buf = binary.AppendVarint(buf, int64(resp.Key))
		case OpDelete, OpPing:
			// no body
		case OpStats:
			buf = appendStats(buf, resp.Stats)
		case OpHello:
			buf = binary.AppendUvarint(buf, resp.Version)
		default:
			panic(fmt.Sprintf("wire: cannot encode response op %v", resp.Op))
		}
	default:
		panic(fmt.Sprintf("wire: cannot encode response status %d", resp.Status))
	}
	if len(resp.Spans) > 0 {
		buf = appendSpans(buf, resp.Spans)
	}
	return frame.End(buf, start)
}

// DecodeResponse decodes one response payload (a frame body).
func DecodeResponse(payload []byte) (Response, error) {
	var resp Response
	d := codec.NewDecoder(payload, ErrCorrupt)
	tagged := d.Byte()
	if tagged&respTag == 0 && !d.Failed() {
		return resp, fmt.Errorf("%w: payload is not a response", ErrCorrupt)
	}
	traced := tagged&traceFlag != 0
	resp.Op = Op(tagged &^ (respTag | traceFlag))
	resp.ID = d.Uvarint()
	resp.Status = Status(d.Byte())
	switch resp.Status {
	case StatusErr:
		resp.Err = d.Str()
	case StatusRefused:
		if resp.Op != OpQueryRO {
			d.Fail(fmt.Errorf("%w: refused status on %v", ErrCorrupt, resp.Op))
		}
	case StatusOverloaded:
		switch resp.Op {
		case OpQuery, OpQueryRO, OpInsert, OpDelete, OpStats, OpPing, OpHello:
			// no body
		default:
			d.Fail(fmt.Errorf("%w: overloaded status on unknown op %d", ErrCorrupt, byte(resp.Op)))
		}
	case StatusOK:
		switch resp.Op {
		case OpQuery, OpQueryRO:
			resp.Result = decodeResult(&d)
			resp.Cost = decodeCost(&d)
		case OpInsert:
			if resp.Key = int(d.Varint()); resp.Key < 0 {
				d.Fail(ErrCorrupt)
			}
		case OpDelete, OpPing:
			// no body
		case OpStats:
			resp.Stats = decodeStats(&d)
		case OpHello:
			resp.Version = d.Uvarint()
		default:
			d.Fail(fmt.Errorf("%w: unknown response op %d", ErrCorrupt, byte(resp.Op)))
		}
	default:
		d.Fail(fmt.Errorf("%w: unknown status %d", ErrCorrupt, byte(resp.Status)))
	}
	if traced {
		resp.Spans = decodeSpans(&d)
	}
	return resp, d.Done()
}
