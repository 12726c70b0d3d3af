package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
)

// The traced run records spans from this benchmark's own code: the span
// each caller times around its call into the store (the root), a timing
// decorator around the shared engine, the spans the client assembles
// from its wire traces, and the encode spans netserve emits to a trace
// sink. Events are kept in memory during the window and joined into one
// tree per request afterwards: decorator spans and client traces carry
// absolute times and are attached to the root whose interval contains
// them (and, for the decorator, whose operation matches).

// fingerprint identifies an operation well enough to join a decorator
// span to the caller's root: op plus its range bounds or tuple.
type fingerprint struct {
	op   uint8
	x, y int64
}

const (
	fpQuery uint8 = iota + 1
	fpInsert
	fpDelete
)

func fpOfQuery(q engine.Query) fingerprint {
	if len(q.Preds) == 0 {
		return fingerprint{op: fpQuery}
	}
	return fingerprint{op: fpQuery, x: q.Preds[0].Pred.Lo, y: q.Preds[0].Pred.Hi}
}

func fpOfInsert(vals []int64) fingerprint {
	return fingerprint{op: fpInsert, x: vals[0], y: vals[1]}
}

func fpOfDelete(key int) fingerprint { return fingerprint{op: fpDelete, x: int64(key)} }

// rootEv is one caller-timed call into the store.
type rootEv struct {
	name   string
	fp     fingerprint
	t0, t1 time.Time
	write  bool
	// queue and exec are serve's stage split for in-process reads
	// (serve.Server.DoUntilSpans); zero elsewhere.
	queue, exec time.Duration
}

// engineEv is one decorator-timed engine call.
type engineEv struct {
	fp     fingerprint
	t0, t1 time.Time
	sel    time.Duration // engine Cost.Sel: the crack/select part
	write  bool
}

// clientEv is one trace the client assembled (client send, server queue,
// execute and crack, client recv), stamped with the time it was handed
// over, which is just before the traced call returned.
type clientEv struct {
	at time.Time
	tr obs.Trace
}

// tracer holds every event of a traced window in memory.
type tracer struct {
	origin time.Time

	mu    sync.Mutex
	roots [][]rootEv // one list per caller, each in time order
	eng   []engineEv
	cli   []clientEv

	sinkMu sync.Mutex
	sink   bytes.Buffer // netserve's one-line JSON trace events
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) addRoots(rs []rootEv) {
	t.mu.Lock()
	t.roots = append(t.roots, rs)
	t.mu.Unlock()
}

// onClientTrace is client.Options.OnTrace.
func (t *tracer) onClientTrace(tr *obs.Trace) {
	at := time.Now()
	c := *tr
	c.Spans = append([]obs.Span(nil), tr.Spans...)
	t.mu.Lock()
	t.cli = append(t.cli, clientEv{at: at, tr: c})
	t.mu.Unlock()
}

// Write is netserve.Options.TraceSink; netserve serializes its calls.
func (t *tracer) Write(p []byte) (int, error) {
	t.sinkMu.Lock()
	defer t.sinkMu.Unlock()
	return t.sink.Write(p)
}

// timedEngine is the timing decorator around an already-shared engine.
// It carries the SharedEngine marker so serve.New does not wrap it again.
type timedEngine struct {
	engine.Engine
	tr *tracer
}

func (d *timedEngine) SharedEngine() {}

func (d *timedEngine) record(ev engineEv) {
	d.tr.mu.Lock()
	d.tr.eng = append(d.tr.eng, ev)
	d.tr.mu.Unlock()
}

func (d *timedEngine) Query(q engine.Query) (engine.Result, engine.Cost) {
	t0 := time.Now()
	res, cost := d.Engine.Query(q)
	d.record(engineEv{fp: fpOfQuery(q), t0: t0, t1: time.Now(), sel: cost.Sel})
	return res, cost
}

func (d *timedEngine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	t0 := time.Now()
	res, cost, ok := d.Engine.QueryRO(q)
	if ok {
		d.record(engineEv{fp: fpOfQuery(q), t0: t0, t1: time.Now(), sel: cost.Sel})
	}
	return res, cost, ok
}

func (d *timedEngine) Insert(vals ...engine.Value) int {
	t0 := time.Now()
	k := d.Engine.Insert(vals...)
	d.record(engineEv{fp: fpOfInsert(vals), t0: t0, t1: time.Now(), write: true})
	return k
}

func (d *timedEngine) Delete(key int) {
	t0 := time.Now()
	d.Engine.Delete(key)
	d.record(engineEv{fp: fpOfDelete(key), t0: t0, t1: time.Now(), write: true})
}

// span is one node of a request's trace tree.
type span struct {
	Req    int    `json:"req"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for the root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
}

// layerOf maps a span name to the layer that owns its self time.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "client"):
		return "client"
	case name == "netserve" || name == "encode":
		return "net"
	case strings.HasPrefix(name, "serve") || name == "queue" || name == "execute":
		return "serve"
	case name == "crack":
		return "crack"
	}
	return "engine"
}

// traceReport is what the traced window yields per layer.
type traceReport struct {
	requests, joinedEngine int
	spans                  []span
	// selfRead[layer] holds the layer's self time per read request;
	// stage[name] the duration of named stages of reads.
	selfRead  map[string][]time.Duration
	stage     map[string][]time.Duration
	engWrites []time.Duration // decorator self time of writes
}

// joinRoot finds the root whose interval contains [s, e], preferring one
// whose fingerprint matches. Each caller's roots are sequential, so one
// binary search per caller finds its only candidate. It returns the
// caller and index, or -1.
func joinRoot(roots [][]rootEv, s, e time.Time, fp *fingerprint) (int, int) {
	bc, bi := -1, -1
	for c, rs := range roots {
		i := sort.Search(len(rs), func(i int) bool { return rs[i].t0.After(s) }) - 1
		if i < 0 || rs[i].t1.Before(e) || (fp != nil && rs[i].fp != *fp) {
			continue
		}
		if bc < 0 || absDur(s.Sub(rs[i].t0)) < absDur(s.Sub(roots[bc][bi].t0)) {
			bc, bi = c, i
		}
	}
	return bc, bi
}

func absDur(d time.Duration) time.Duration {
	if d < 0 {
		return -d
	}
	return d
}

// serverEvent is one netserve trace event (durations in µs).
type serverEvent struct {
	Trace string `json:"trace"`
	Spans []struct {
		Stage string `json:"stage"`
		Start int64  `json:"start_us"`
		Dur   int64  `json:"dur_us"`
	} `json:"spans"`
}

// analyze joins the window's events into per-request trees and computes
// each layer's self time: a span's duration minus its children's.
func (t *tracer) analyze() traceReport {
	// Request ids number the roots caller by caller.
	var roots []rootEv
	offset := make([]int, len(t.roots))
	for c, rs := range t.roots {
		offset[c] = len(roots)
		roots = append(roots, rs...)
	}

	encode := map[uint64]time.Duration{}
	sc := bufio.NewScanner(bytes.NewReader(t.sink.Bytes()))
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		var ev serverEvent
		if json.Unmarshal(sc.Bytes(), &ev) != nil {
			continue
		}
		id, err := strconv.ParseUint(ev.Trace, 16, 64)
		if err != nil {
			continue
		}
		for _, sp := range ev.Spans {
			if sp.Stage == "encode" {
				encode[id] = time.Duration(sp.Dur) * time.Microsecond
			}
		}
	}

	engOf := make([]*engineEv, len(roots))
	rep := traceReport{
		requests: len(roots),
		selfRead: map[string][]time.Duration{},
		stage:    map[string][]time.Duration{},
	}
	for i := range t.eng {
		ev := &t.eng[i]
		if c, j := joinRoot(t.roots, ev.t0, ev.t1, &ev.fp); c >= 0 && engOf[offset[c]+j] == nil {
			engOf[offset[c]+j] = ev
			rep.joinedEngine++
		}
	}
	cliOf := make([]*clientEv, len(roots))
	for i := range t.cli {
		ev := &t.cli[i]
		if c, j := joinRoot(t.roots, ev.at.Add(-ev.tr.Total), ev.at, nil); c >= 0 && cliOf[offset[c]+j] == nil {
			cliOf[offset[c]+j] = ev
		}
	}

	ns := func(at time.Time) int64 { return int64(at.Sub(t.origin)) }
	for i, r := range roots {
		req := i + 1
		var tree []span
		add := func(parent int, name string, s, e int64) int {
			tree = append(tree, span{Req: req, ID: len(tree), Parent: parent, Name: name, Start: s, End: e})
			return len(tree) - 1
		}
		root := add(-1, r.name, ns(r.t0), ns(r.t1))
		execParent := root
		if ce := cliOf[i]; ce != nil {
			base := ns(ce.at.Add(-ce.tr.Total))
			var srvStart, srvEnd int64 = -1, -1
			for _, sp := range ce.tr.Spans {
				s, e := base+int64(sp.Start), base+int64(sp.Start+sp.Dur)
				switch sp.Stage {
				case obs.StageClientSend, obs.StageClientRecv:
					add(root, sp.Stage.String(), s, e)
				default:
					if srvStart < 0 || s < srvStart {
						srvStart = s
					}
					if e > srvEnd {
						srvEnd = e
					}
				}
			}
			if enc, ok := encode[ce.tr.ID]; ok && srvStart >= 0 {
				srvEnd += int64(enc)
			}
			if srvStart >= 0 {
				srv := add(root, "netserve", srvStart, srvEnd)
				for _, sp := range ce.tr.Spans {
					s, e := base+int64(sp.Start), base+int64(sp.Start+sp.Dur)
					switch sp.Stage {
					case obs.StageQueue:
						add(srv, "queue", s, e)
					case obs.StageExecute:
						execParent = add(srv, "execute", s, e)
					default:
						// Client spans hang off the root; the crack span
						// comes from the decorator and encode from the
						// server's trace event.
					}
				}
				if enc, ok := encode[ce.tr.ID]; ok {
					add(srv, "encode", srvEnd-int64(enc), srvEnd)
				}
			}
		} else if r.exec > 0 {
			s := ns(r.t0)
			add(root, "queue", s, s+int64(r.queue))
			execParent = add(root, "execute", s+int64(r.queue), s+int64(r.queue+r.exec))
		}
		if ev := engOf[i]; ev != nil {
			e := add(execParent, "engine", ns(ev.t0), ns(ev.t1))
			if ev.sel > 0 {
				add(e, "crack", ns(ev.t0), ns(ev.t0)+int64(ev.sel))
			}
		}

		self := map[string]time.Duration{}
		for k := range tree {
			d := tree[k].End - tree[k].Start
			for c := k + 1; c < len(tree); c++ {
				if tree[c].Parent == k {
					d -= tree[c].End - tree[c].Start
				}
			}
			if d < 0 {
				d = 0
			}
			self[layerOf(tree[k].Name)] += time.Duration(d)
			if !r.write {
				rep.stage[tree[k].Name] = append(rep.stage[tree[k].Name], time.Duration(tree[k].End-tree[k].Start))
			}
		}
		if r.write {
			if ev := engOf[i]; ev != nil {
				rep.engWrites = append(rep.engWrites, ev.t1.Sub(ev.t0))
			}
		} else {
			for l, d := range self {
				rep.selfRead[l] = append(rep.selfRead[l], d)
			}
		}
		if len(rep.spans) < maxSpansWritten {
			rep.spans = append(rep.spans, tree...)
		}
	}
	return rep
}

// maxSpansWritten caps the spans written out per traced run; the
// analysis uses every request either way.
const maxSpansWritten = 200_000

// writeSpans writes the kept spans as JSON lines.
func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// p50us and p99us summarise durations in microseconds.
func p50us(ds []time.Duration) float64 { return float64(quantileOf(ds, 0.50)) / 1e3 }
func p99us(ds []time.Duration) float64 { return float64(quantileOf(ds, 0.99)) / 1e3 }

// rootFor returns the caller-side root of an in-process serve read with
// its stage split.
func rootFor(name string, q engine.Query, t0, t1 time.Time, sp *serve.SpanTimes) rootEv {
	r := rootEv{name: name, fp: fpOfQuery(q), t0: t0, t1: t1}
	if sp != nil {
		r.queue, r.exec = sp.Queue, sp.Exec
	}
	return r
}

func (r traceReport) String() string {
	return fmt.Sprintf("%d requests, %d joined to an engine span, %d spans kept", r.requests, r.joinedEngine, len(r.spans))
}
