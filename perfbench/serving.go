package main

import (
	"math/rand"
	"sync"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/serve"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// callers is the closed-loop load of the serving workloads: each caller
// goroutine sends its next request only after the previous answer
// arrived. Two callers match the two CPUs the benchmark is sized for.
const callers = 2

// narrowSel is the width of pool and cold ranges on the serving
// workloads: 0.02% of the domain.
const narrowSel = 0.0002

// poolSize is the number of distinct pre-warmed ranges warm reads draw
// from.
const poolSize = 256

// sliceLen is the length of the slices a window's latencies and
// throughput are summarised over.
const sliceLen = 500 * time.Millisecond

// insertMarker offsets the B value of inserted rows so that a lost,
// duplicated or resurrected insert changes the checksum of its range.
const insertMarker = int64(1) << 40

// mix is a traffic mix: the share of inserts, deletes of the caller's
// own earlier inserts, and cold (cracking) range queries; the rest are
// warm reads from the pool.
type mix struct {
	insert, delete, cold float64
}

// target is a stack's public entry points as one caller sees them. sp is
// non-nil only on traced in-process reads.
type target struct {
	read    string // root span names of reads, inserts and deletes
	insName string
	delName string
	query   func(q engine.Query, sp *serve.SpanTimes) (engine.Result, error)
	insert  func(vals ...int64) (int, error)
	delete  func(key int) error
}

// caller is one closed-loop load generator and what it observed.
type caller struct {
	id    int
	rng   *rand.Rand
	gen   *workload.Gen
	rec   *recorder
	roots []rootEv
	rows  []ackedRow // acknowledged inserts; dead once the delete is acked
	live  []int      // indexes into rows not yet deleted
	seq   int64

	attempted, failed, wrong int64
	inserts, deletes         int64
	firstErr                 error
}

func relationOf(seed int64, rows int) *store.Relation {
	rng := rand.New(rand.NewSource(seed))
	return store.Build("R", rows, []string{"A", "B", "C"}, func(string, int) store.Value {
		return 1 + rng.Int63n(int64(rows))
	})
}

// poolOf draws the warm pool: narrow ranges on A projecting B.
func poolOf(seed int64, rows int) []engine.Query {
	gen := workload.New(int64(rows), seed)
	pool := make([]engine.Query, poolSize)
	for i := range pool {
		pool[i] = engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: gen.Range(narrowSel)}}, Projs: []string{"B"}}
	}
	return pool
}

func predsOf(pool []engine.Query) []store.Pred {
	ps := make([]store.Pred, len(pool))
	for i, q := range pool {
		ps[i] = q.Preds[0].Pred
	}
	return ps
}

// runCallers runs the closed loop for window and returns the callers.
// want, when non-nil, holds the expected answer of each pool query, and
// every pool answer is checked against it.
func runCallers(seed int64, rows int, window time.Duration, m mix, pool []engine.Query, want []answer,
	t target, tr *tracer) []*caller {
	start := time.Now()
	deadline := start.Add(window)
	cs := make([]*caller, callers)
	var wg sync.WaitGroup
	for i := range cs {
		c := &caller{
			id:  i,
			rng: rand.New(rand.NewSource(seed*31 + int64(i))),
			gen: workload.New(int64(rows), seed*37+int64(i)),
			rec: newRecorder(start, window, sliceLen),
		}
		cs[i] = c
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.loop(deadline, m, pool, want, t, tr != nil)
		}()
	}
	wg.Wait()
	if tr != nil {
		for _, c := range cs {
			tr.addRoots(c.roots)
		}
	}
	return cs
}

func (c *caller) fail(err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = err
	}
}

func (c *caller) loop(deadline time.Time, m mix, pool []engine.Query, want []answer, t target, traced bool) {
	var sp *serve.SpanTimes
	if traced {
		sp = new(serve.SpanTimes)
	}
	for time.Now().Before(deadline) {
		c.attempted++
		r := c.rng.Float64()
		switch {
		case r < m.insert || (r < m.insert+m.delete && len(c.live) == 0):
			c.seq++
			vals := []int64{1 + c.rng.Int63n(c.gen.Domain), insertMarker + int64(c.id)<<32 + c.seq, 1 + c.rng.Int63n(c.gen.Domain)}
			t0 := time.Now()
			key, err := t.insert(vals...)
			t1 := time.Now()
			if err != nil {
				c.fail(err)
				continue
			}
			c.rec.wrote(t0, t1)
			c.inserts++
			c.live = append(c.live, len(c.rows))
			c.rows = append(c.rows, ackedRow{key: key, a: vals[0], b: vals[1], c: vals[2]})
			if traced {
				c.roots = append(c.roots, rootEv{name: t.insName, fp: fpOfInsert(vals), t0: t0, t1: t1, write: true})
			}
		case r < m.insert+m.delete:
			j := c.rng.Intn(len(c.live))
			row := &c.rows[c.live[j]]
			t0 := time.Now()
			err := t.delete(row.key)
			t1 := time.Now()
			if err != nil {
				c.fail(err)
				continue
			}
			c.rec.wrote(t0, t1)
			c.deletes++
			row.dead = true
			c.live[j] = c.live[len(c.live)-1]
			c.live = c.live[:len(c.live)-1]
			if traced {
				c.roots = append(c.roots, rootEv{name: t.delName, fp: fpOfDelete(row.key), t0: t0, t1: t1, write: true})
			}
		default:
			idx := -1
			var q engine.Query
			if r < m.insert+m.delete+m.cold {
				q = engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: c.gen.Range(narrowSel)}}, Projs: []string{"B"}}
			} else {
				idx = c.rng.Intn(len(pool))
				q = pool[idx]
			}
			t0 := time.Now()
			res, err := t.query(q, sp)
			t1 := time.Now()
			if err != nil {
				c.fail(err)
				continue
			}
			c.rec.read(t0, t1)
			if traced {
				c.roots = append(c.roots, rootFor(t.read, q, t0, t1, sp))
			}
			if want != nil && idx >= 0 {
				if got := answerOf(res, []string{"B"}); got.n != want[idx].n || got.sums[0] != want[idx].sums[0] {
					c.wrong++
					c.failed++
				}
			}
		}
	}
}

// window summarises what the callers did during the window.
type windowSum struct {
	ops, reads, writes, inserts, deletes int64
	st                                   sliceStats
	rows                                 []ackedRow
	recBytes                             int
}

func summarize(rep *report, cs []*caller) windowSum {
	var w windowSum
	recs := make([]*recorder, len(cs))
	for i, c := range cs {
		recs[i] = c.rec
		rep.attempted += c.attempted
		rep.failed += c.failed
		rep.wrong += c.wrong
		w.inserts += c.inserts
		w.deletes += c.deletes
		w.rows = append(w.rows, c.rows...)
		w.recBytes += c.rec.bytes()
		if c.firstErr != nil {
			rep.notef("caller %d: first error: %v", c.id, c.firstErr)
		}
		if c.wrong > 0 {
			rep.notef("caller %d: %d wrong answers", c.id, c.wrong)
		}
	}
	w.st = mergeRecorders(recs)
	w.reads, w.writes = int64(total(w.st.reads)), int64(total(w.st.write))
	w.ops = w.reads + w.writes
	perSlice := make([]uint64, len(w.st.reads))
	for i := range perSlice {
		perSlice[i] = w.st.reads[i].n + w.st.write[i].n
	}
	rep.notef("ops per %v slice: %v", w.st.slice, perSlice)
	return w
}

// measured accumulates the repetitions of a serving workload: each
// repetition is a fresh set-up measured for an equal share of the
// window.
type measured struct {
	setups, heaps []float64
	st            sliceStats // the slices of every repetition
	ops, reads    int64
	writes        int64
	allocBytes    float64
	gcCycles      float64
	gcCPUFrac     []float64
}

// add records one repetition: its set-up time, its window, what the
// window cost the process and the live heap at its end.
func (m *measured) add(setup float64, w windowSum, d procDelta, heap float64) {
	m.setups = append(m.setups, setup)
	m.heaps = append(m.heaps, heap)
	m.st.slice = w.st.slice
	m.st.reads = append(m.st.reads, w.st.reads...)
	m.st.write = append(m.st.write, w.st.write...)
	m.ops += w.ops
	m.reads += w.reads
	m.writes += w.writes
	m.allocBytes += d.allocBytes
	m.gcCycles += d.gcCycles
	m.gcCPUFrac = append(m.gcCPUFrac, d.gcCPUFrac)
}

// report sets the end-to-end metrics: set-up time and live heap as
// medians over repetitions; throughput and the read and write latency
// percentiles as interquartile means over all slices.
func (m *measured) report(rep *report) {
	rep.setE2E("setup_s", "s", median(m.setups), int64(len(m.setups)))
	rep.setE2E("live_heap_mb", "MiB", median(m.heaps), int64(len(m.heaps)))
	rep.setE2E("ops_per_s", "ops/s", m.st.opsPerSec(), m.ops)
	rep.setE2E("read_p50_us", "us", overSlices(m.st.reads, func(h *hist) float64 { return h.quantile(0.50) })/1e3, m.reads)
	rep.setE2E("read_p99_us", "us", overSlices(m.st.reads, func(h *hist) float64 { return h.quantile(0.99) })/1e3, m.reads)
	if m.writes > 0 {
		rep.setE2E("write_p50_us", "us", overSlices(m.st.write, func(h *hist) float64 { return h.quantile(0.50) })/1e3, m.writes)
		rep.setE2E("write_p99_us", "us", overSlices(m.st.write, func(h *hist) float64 { return h.quantile(0.99) })/1e3, m.writes)
	}
	rep.setE2E("alloc_bytes_per_op", "B/op", m.allocBytes/float64(m.ops), m.ops)
	rep.setLayer("gc.cpu_frac", "fraction", median(m.gcCPUFrac), m.ops)
	rep.setLayer("gc.cycles_per_kop", "cycles/kop", m.gcCycles/(float64(m.ops)/1000), m.ops)
}

// kernelDelta reports the crack kernel's work over the window.
func kernelDelta(rep *report, a, b engine.KernelReport, ops int64, rows int, storage int) {
	q := float64(ops)
	rep.setLayer("crack.visited_per_op", "tuples/op", float64(b.Visited-a.Visited)/q, ops)
	rep.setLayer("crack.moved_per_op", "tuples/op", float64(b.Moved-a.Moved)/q, ops)
	rep.setLayer("crack.cracks_per_op", "cracks/op", float64(b.InTwo+b.InThree-a.InTwo-a.InThree)/q, ops)
	rep.setLayer("crack.pieces", "count", float64(b.Pieces), 1)
	rep.setLayer("crack.structures", "count", float64(b.Columns), 1)
	rep.setLayer("sideways.aux_tuples_per_row", "tuples/row", float64(storage)/float64(rows), 1)
}

// snapDelta reports the snapshot engine's version lifecycle.
func snapDelta(rep *report, e engine.Engine, a engine.SnapshotStats, ops int64) {
	b, ok := engine.SnapshotStatsOf(e)
	if !ok {
		noSnapshot(rep)
		return
	}
	pub := b.Published - a.Published
	rep.setLayer("engine.snap_published_per_op", "versions/op", float64(pub)/float64(ops), ops)
	frac := 0.0
	if pub > 0 {
		frac = float64(b.Reclaimed-a.Reclaimed) / float64(pub)
	}
	rep.setLayer("engine.snap_reclaim_frac", "fraction", frac, int64(pub))
	rep.setLayer("engine.snap_limbo", "count", float64(b.Limbo), 1)
}

// serveDelta reports the serving layer's own view of the window: its
// latency (wait + execute) over the queries completed in the window, and
// its sheds and errors.
func serveDelta(rep *report, a, b serve.Stats) {
	n := b.Queries - a.Queries
	lats := b.Latencies
	if n < len(lats) {
		lats = lats[len(lats)-n:]
	}
	rep.setLayer("serve.p50_us", "us", float64(quantileOf(lats, 0.50))/1e3, int64(len(lats)))
	rep.setLayer("serve.p99_us", "us", float64(quantileOf(lats, 0.99))/1e3, int64(len(lats)))
	rep.setLayer("serve.errors", "count", float64(b.Errors-a.Errors), 1)
	rep.setLayer("serve.sheds", "count", float64(b.Sheds-a.Sheds), 1)
}
