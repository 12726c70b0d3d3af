// Package serve implements the concurrent query-serving layer: a bounded
// executor that runs queries from many clients against one shared engine,
// with per-query latency capture.
//
// The layer builds on Engine.QueryRO, the one place an engine states
// whether a query can be answered without reorganizing. The engine is
// wrapped in engine.Concurrent (engine.Snapshot with Options.Snapshot), so
// reorganization-free queries — the vast majority after a warm-up — run
// in parallel, and only queries whose QueryRO declines (they must crack,
// merge pending updates, or maintain auxiliary structures) serialize
// behind the write lock. A query queued behind a crack re-runs QueryRO
// once it holds the write lock, so one crack pays for every waiter on the
// same range. Read-only requests (TryRO, DoRO) run QueryRO alone: a query
// that would reorganize is declined, never executed.
//
// Queries execute directly on the submitting goroutine under a
// concurrency-limiting semaphore (Workers slots) — no handoff, no context
// switch.
package serve

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/obs"
)

// Options tunes the server.
type Options struct {
	// Workers bounds the number of concurrently executing queries; 0
	// means GOMAXPROCS.
	Workers int
	// Policy, when non-nil, applies the adaptive cracking policy
	// (crack.Policy) to the engine before serving begins. Leave nil to
	// keep whatever policy the engine was constructed with. Engines whose
	// physical design does not crack ignore it.
	Policy *crack.Policy
	// MaxWaiting, when > 0, bounds the number of queries waiting for an
	// execution slot: a submission arriving with the watermark already
	// reached is shed immediately with ErrOverloaded instead of queueing.
	// Shedding is the overload defense for the remote path — the server
	// answers cheaply and in-band rather than letting an unbounded backlog
	// stretch every caller's latency (or stall the connection). 0 disables
	// shedding; queues then grow without limit.
	MaxWaiting int
	// Timeout is an optional per-query deadline covering both the wait
	// for an execution slot and the execution itself; 0 disables. A query
	// whose deadline expires returns ErrTimeout (counted in Stats.Errors).
	// Expiry never leaks a worker slot: a query already executing when its
	// caller gives up finishes in the background and releases its slot,
	// while the caller gets ErrTimeout immediately — so one slow crack
	// cannot wedge the callers (or a network connection's pipeline) stuck
	// behind it.
	Timeout time.Duration
	// Snapshot wraps the engine in engine.Snapshot instead of
	// engine.Concurrent: read-only queries traverse epoch-protected
	// versioned pieces lock-free and never wait behind a crack. Engines
	// whose kind engine.Snapshot does not support fall back to Concurrent.
	// Ignored when the engine is already shared-safe.
	Snapshot bool
	// Metrics, when non-nil, registers the serving-layer metric families
	// (crack_serve_*) in the given registry and feeds them as queries
	// flow. Nil (the default) keeps the hot path byte-identical to the
	// uninstrumented server: no clocks, no atomics beyond the existing
	// ones. One registry serves one Server — registering two servers in
	// the same registry panics on the duplicate family names.
	Metrics *obs.Registry
	// LatencyWindow bounds the retained per-query latency samples: once
	// full, the oldest samples are overwritten, so percentiles describe a
	// sliding window of recent queries while Queries and QPS still count
	// everything. 0 selects a window of 1 << 16 samples. A bounded
	// benchmark run that exports its full series passes its query count.
	LatencyWindow int
}

// defaultLatencyWindow is the latency history a server keeps when
// Options.LatencyWindow is 0: 8 B per sample, 512 KiB in all. Without a
// bound a server at ~50k q/s would grow its history ~0.4 MB/s forever.
const defaultLatencyWindow = 1 << 16

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.LatencyWindow <= 0 {
		o.LatencyWindow = defaultLatencyWindow
	}
	return o
}

// ErrClosed is returned by Do after Close.
var ErrClosed = errors.New("serve: server is closed")

// ErrEmptyQuery is returned for queries without predicates.
var ErrEmptyQuery = errors.New("serve: query has no predicates")

// ErrTimeout is returned by Do when Options.Timeout expires before the
// query completes — whether it was still waiting for a slot or already
// executing. Timed-out queries count in Stats.Errors.
var ErrTimeout = errors.New("serve: query deadline exceeded")

// ErrRefused is returned by DoRO when answering the query would reorganize
// the engine (Engine.QueryRO declined). Nothing executed, and a refusal is
// an answer, not a failure: it counts in neither Stats.Queries nor
// Stats.Errors.
var ErrRefused = errors.New("serve: query would reorganize")

// ErrOverloaded is returned by Do when Options.MaxWaiting is set and the
// wait backlog is at the watermark: the query was shed without executing.
// Shed queries count in Stats.Sheds, not Stats.Errors — a shed is the
// overload defense working, not a failure of the query.
var ErrOverloaded = errors.New("serve: server overloaded, query shed")

// SpanTimes receives the serving-side stage timings of one query from
// DoUntilSpans: Queue is the time from submission to the start of
// execution (semaphore wait), Exec the engine execution time. Only filled
// in for successful queries.
type SpanTimes struct {
	Queue time.Duration
	Exec  time.Duration
}

// serveMetrics holds the serving-layer instruments. A nil *serveMetrics
// (Options.Metrics unset) is valid for every method and does nothing, so
// call sites stay unconditional. The success path is deliberately two
// histogram observes and nothing else: queries_total is derived from the
// latency histogram's bucket sum at scrape time, and inflight is read from
// the semaphore depth at scrape time, so neither costs an atomic on the hot
// path.
type serveMetrics struct {
	errors   *obs.Counter
	timeouts *obs.Counter
	sheds    *obs.Counter
	latency  *obs.Histogram
	queue    *obs.Histogram
}

func newServeMetrics(r *obs.Registry, s *Server) *serveMetrics {
	if r == nil {
		return nil
	}
	m := &serveMetrics{
		errors:   r.Counter("crack_serve_errors_total", "queries that failed (engine errors and deadline expiries)"),
		timeouts: r.Counter("crack_serve_timeouts_total", "queries that failed by deadline expiry (subset of errors)"),
		sheds:    r.Counter("crack_serve_sheds_total", "queries shed in-band at the MaxWaiting watermark"),
		latency:  r.Histogram("crack_serve_latency_seconds", "successful query latency, submission to completion (wait + execute)"),
		queue:    r.Histogram("crack_serve_queue_seconds", "successful query wait for an execution slot"),
	}
	// Every success observes latency exactly once, so the histogram's
	// count is the query count — no separate hot-path counter needed.
	r.CounterFunc("crack_serve_queries_total", "queries completed successfully", m.latency.Count)
	// A query holds a semaphore slot for exactly its execution window
	// (including detached timed-out executions), so the channel depth is
	// the inflight count, read only at scrape time.
	r.GaugeFunc("crack_serve_inflight", "queries executing on the engine right now", func() float64 {
		return float64(len(s.sem))
	})
	r.GaugeFunc("crack_serve_waiting", "queries waiting for an execution slot", func() float64 {
		return float64(s.waiting.Load())
	})
	return m
}

func (m *serveMetrics) observeQueue(d time.Duration) {
	if m != nil {
		m.queue.Observe(d)
	}
}

func (m *serveMetrics) success(lat time.Duration) {
	if m != nil {
		m.latency.Observe(lat)
	}
}

func (m *serveMetrics) error() {
	if m != nil {
		m.errors.Inc()
	}
}

func (m *serveMetrics) timeout() {
	if m != nil {
		m.timeouts.Inc()
	}
}

func (m *serveMetrics) shed() {
	if m != nil {
		m.sheds.Inc()
	}
}

// Server executes queries from many clients against one shared engine.
type Server struct {
	e    engine.Engine
	opts Options
	met  *serveMetrics // nil unless Options.Metrics is set

	sem chan struct{} // concurrency-limiting semaphore

	inDo    sync.WaitGroup // Do calls in flight
	bg      sync.WaitGroup // detached executions whose caller timed out
	closed  atomic.Bool
	waiting atomic.Int64 // Do calls blocked on the semaphore

	mu     sync.Mutex
	lats   []time.Duration
	latPos int       // LatencyWindow mode: next overwrite position once full
	total  int       // completed successes ever (lats may be a window of them)
	errs   int       // executed queries that failed (panic or engine error)
	sheds  int       // queries shed at the MaxWaiting watermark
	first  time.Time // earliest submission
	last   time.Time // last completion
}

// New starts a server over e. Unless e is already safe to share
// (engine.IsShared: a Concurrent, Snapshot, durable or Serialized
// wrapper, or a shard engine), it is wrapped in engine.Snapshot when
// Options.Snapshot is set and in engine.Concurrent otherwise. Close waits
// for in-flight queries.
func New(e engine.Engine, opts Options) *Server {
	opts = opts.withDefaults()
	if opts.Policy != nil {
		// Apply before any query runs: tape-replaying structures freeze
		// their policy at set creation.
		engine.SetPolicy(e, *opts.Policy)
	}
	if !engine.IsShared(e) {
		if opts.Snapshot {
			e = engine.Snapshot(e)
		} else {
			e = engine.Concurrent(e)
		}
	}
	s := &Server{e: e, opts: opts, sem: make(chan struct{}, opts.Workers)}
	s.met = newServeMetrics(opts.Metrics, s)
	return s
}

// Engine returns the shared (wrapped) engine the server executes against.
func (s *Server) Engine() engine.Engine { return s.e }

// Do submits q and blocks until it has been executed, returning the result
// and the engine cost split. The captured latency spans submission to
// completion, including semaphore wait time. Do is safe to call from any
// number of goroutines.
func (s *Server) Do(q engine.Query) (engine.Result, engine.Cost, error) {
	return s.DoUntil(q, time.Time{})
}

// DoUntil is Do with an explicit absolute deadline, the entry point for
// callers that carry their own expiry — netserve maps a request's wire TTL
// hint here, so a query whose client has already given up is skipped
// instead of executed. A zero deadline means no caller deadline; when
// Options.Timeout is also set, the earlier of the two applies. Expiry
// returns ErrTimeout with the same exactly-once accounting and no-slot-leak
// guarantees as Options.Timeout.
func (s *Server) DoUntil(q engine.Query, deadline time.Time) (engine.Result, engine.Cost, error) {
	return s.doUntil(q, deadline, nil, false)
}

// DoUntilSpans is DoUntil for traced queries: on success, sp receives
// the queue and execute stage durations (netserve encodes them as
// response spans). Passing sp costs two extra clock reads on this call
// only; untraced calls through DoUntil are unaffected.
func (s *Server) DoUntilSpans(q engine.Query, deadline time.Time, sp *SpanTimes) (engine.Result, engine.Cost, error) {
	return s.doUntil(q, deadline, sp, false)
}

// DoRO is DoUntilSpans for read-only requests: it runs Engine.QueryRO in
// place of Engine.Query under the same slot wait, deadline and stats
// handling, and returns ErrRefused when answering would reorganize. It
// never calls Engine.Query, so no check-then-act window lets a concurrent
// write turn a read-only request into a crack. sp may be nil.
func (s *Server) DoRO(q engine.Query, deadline time.Time, sp *SpanTimes) (engine.Result, engine.Cost, error) {
	return s.doUntil(q, deadline, sp, true)
}

// timed reports whether this call must capture phase boundaries — for a
// span-collecting caller or the queue-wait histogram.
func (s *Server) timed(sp *SpanTimes) bool {
	return sp != nil || s.met != nil
}

func (s *Server) doUntil(q engine.Query, deadline time.Time, sp *SpanTimes, ro bool) (engine.Result, engine.Cost, error) {
	if len(q.Preds) == 0 {
		return engine.Result{}, engine.Cost{}, ErrEmptyQuery
	}
	t0 := time.Now()
	if s.opts.Timeout > 0 {
		if td := t0.Add(s.opts.Timeout); deadline.IsZero() || td.Before(deadline) {
			deadline = td
		}
	}
	// Register before checking closed: Close flips the flag first and then
	// waits for inDo, so a Do that passed the check is always waited for.
	s.inDo.Add(1)
	defer s.inDo.Done()
	if s.closed.Load() {
		return engine.Result{}, engine.Cost{}, ErrClosed
	}
	if !deadline.IsZero() && !t0.Before(deadline) {
		// Expired before submission (e.g. the TTL burned up in transit):
		// never touches a slot.
		s.met.timeout()
		s.recordError(t0, t0)
		return engine.Result{}, engine.Cost{}, ErrTimeout
	}
	if s.shouldShed() {
		s.recordShed()
		return engine.Result{}, engine.Cost{}, ErrOverloaded
	}
	if !deadline.IsZero() {
		return s.doDeadline(q, t0, deadline, sp, ro)
	}
	// Execute on this goroutine under the semaphore. The uncontended
	// acquire is non-blocking so the warm path can skip the mid-query clock
	// read: a slot taken without waiting means the slot wait was ~0 and the
	// queue histogram records an exact zero. Only actual waiters — and
	// span-traced queries, which need the queue/execute split regardless —
	// pay for a time.Now (~65ns on some VMs, the single largest per-query
	// instrumentation cost).
	waited := false
	select {
	case s.sem <- struct{}{}:
	default:
		s.waiting.Add(1)
		s.sem <- struct{}{}
		s.waiting.Add(-1)
		waited = true
	}
	var t1 time.Time
	if sp != nil || (waited && s.met != nil) {
		t1 = time.Now()
	}
	res, cost, err := safeQuery(s.e, q, ro)
	<-s.sem
	end := time.Now()
	if err != nil {
		if err != ErrRefused {
			s.recordError(t0, end)
		}
		return res, cost, err
	}
	if sp != nil {
		sp.Queue, sp.Exec = t1.Sub(t0), end.Sub(t1)
	}
	if s.met != nil {
		if t1.IsZero() {
			s.met.observeQueue(0)
		} else {
			s.met.observeQueue(t1.Sub(t0))
		}
	}
	s.record(end.Sub(t0), t0)
	return res, cost, nil
}

// shouldShed reports whether a new submission must be shed at the
// MaxWaiting watermark, counting Do calls blocked on the semaphore. It is
// a cheap, slightly racy read — overload control needs a watermark, not an
// exact count.
func (s *Server) shouldShed() bool {
	return s.opts.MaxWaiting > 0 && int(s.waiting.Load()) >= s.opts.MaxWaiting
}

// TryRO executes q immediately on the calling goroutine if the engine can
// answer it without reorganizing and a worker slot is free right now,
// recording it in the serving stats exactly like Do. ok is false — and
// nothing has executed — when the query needs reorganization, no slot is
// free, or the server is closed; callers then fall back to Do. The point
// is dispatch cost: a network reader can answer the warm read-only
// majority inline instead of paying a goroutine handoff per request, while
// cracking queries still go through Do and pipeline out of order.
func (s *Server) TryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	if len(q.Preds) == 0 {
		return engine.Result{}, engine.Cost{}, false
	}
	t0 := time.Now()
	s.inDo.Add(1)
	defer s.inDo.Done()
	if s.closed.Load() {
		return engine.Result{}, engine.Cost{}, false
	}
	select {
	case s.sem <- struct{}{}:
	default: // all slots busy: let Do queue fairly
		return engine.Result{}, engine.Cost{}, false
	}
	// A panicking query reports !ok too, so the fallback surfaces the error.
	res, cost, err := safeQuery(s.e, q, true)
	<-s.sem
	if err != nil {
		return engine.Result{}, engine.Cost{}, false
	}
	// The slot was taken without waiting: observe the zero wait, as Do's
	// uncontended path does, so the queue histogram counts every query.
	s.met.observeQueue(0)
	s.record(time.Since(t0), t0)
	return res, cost, true
}

// outcome carries a detached execution's answer back to its Do call.
type outcome struct {
	res  engine.Result
	cost engine.Cost
	err  error
}

// doDeadline is Do under a deadline. The wait for a
// semaphore slot is bounded by the deadline; once a slot is held the
// query runs on a detached goroutine so an expiring deadline returns
// ErrTimeout to the caller immediately while the execution finishes in the
// background and releases the slot itself — expiry can neither interrupt an
// engine mid-crack nor leak the slot.
func (s *Server) doDeadline(q engine.Query, t0, deadline time.Time, sp *SpanTimes, ro bool) (engine.Result, engine.Cost, error) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	s.waiting.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.waiting.Add(-1)
	case <-timer.C:
		s.waiting.Add(-1)
		// Never got a slot; nothing to detach.
		s.met.timeout()
		s.recordError(t0, time.Now())
		return engine.Result{}, engine.Cost{}, ErrTimeout
	}
	var t1 time.Time
	if s.timed(sp) {
		t1 = time.Now()
	}
	var claimed atomic.Bool
	ch := make(chan outcome, 1)
	s.bg.Add(1)
	go func() {
		defer s.bg.Done()
		res, cost, err := safeQuery(s.e, q, ro)
		<-s.sem
		end := time.Now()
		if !claimed.CompareAndSwap(false, true) {
			return // caller timed out and accounted for the query; discard
		}
		switch {
		case err == nil:
			if s.timed(sp) {
				if sp != nil {
					// Written before the ch send; the caller reads only
					// after receiving from ch.
					sp.Queue, sp.Exec = t1.Sub(t0), end.Sub(t1)
				}
				s.met.observeQueue(t1.Sub(t0))
			}
			s.record(end.Sub(t0), t0)
		case err != ErrRefused: // a refusal is neither a success nor an error
			s.recordError(t0, end)
		}
		ch <- outcome{res, cost, err}
	}()
	select {
	case out := <-ch:
		return out.res, out.cost, out.err
	case <-timer.C:
		if claimed.CompareAndSwap(false, true) {
			s.met.timeout()
			s.recordError(t0, time.Now())
			return engine.Result{}, engine.Cost{}, ErrTimeout
		}
		// The execution claimed first; its buffered answer is ready.
		out := <-ch
		return out.res, out.cost, out.err
	}
}

// safeQuery runs q through Query, or through QueryRO when ro is set (a
// declined QueryRO returns ErrRefused). It converts an engine panic (e.g.
// a predicate naming a column the relation does not have) into an error,
// so a malformed query can neither leak a semaphore slot nor escape to the
// caller's goroutine.
func safeQuery(e engine.Engine, q engine.Query, ro bool) (res engine.Result, cost engine.Cost, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("serve: query panicked: %v", r)
		}
	}()
	if !ro {
		res, cost = e.Query(q)
		return res, cost, nil
	}
	res, cost, ok := e.QueryRO(q)
	if !ok {
		return engine.Result{}, engine.Cost{}, ErrRefused
	}
	return res, cost, nil
}

// recordError counts a query that failed — an execution error or a
// deadline expiry. Failed queries capture no latency sample, so without
// this counter a run with failures would silently report healthy
// percentiles and QPS over fewer queries. Both of the query's endpoints
// still feed the run's wall clock (earliest submission, latest
// completion): a failed query occupied the server just the same.
func (s *Server) recordError(t0, end time.Time) {
	s.met.error()
	s.mu.Lock()
	s.errs++
	s.noteStartLocked(t0)
	if end.After(s.last) {
		s.last = end
	}
	s.mu.Unlock()
}

// recordShed counts a query shed at the overload watermark. Sheds stay out
// of Errors and out of the run's wall clock: a shed request consumed no
// slot and no engine time — the counter exists so operators can see the
// defense firing, not to distort throughput numbers.
func (s *Server) recordShed() {
	s.met.shed()
	s.mu.Lock()
	s.sheds++
	s.mu.Unlock()
}

// record captures a completed query: its latency, the completion-time
// high-water mark, and the earliest-submission marker. Tracking the
// minimum t0 (rather than stamping whichever racing Do got there first,
// as a sync.Once would) keeps Elapsed correct under concurrent start-up:
// the once-winner can carry a later t0 than another already-in-flight
// query, shrinking Elapsed and inflating QPS. Folding the minimum into
// the completion-side update keeps Do at one stats critical section per
// query.
func (s *Server) record(lat time.Duration, t0 time.Time) {
	s.met.success(lat)
	s.mu.Lock()
	s.total++
	if w := s.opts.LatencyWindow; w > 0 && len(s.lats) >= w {
		// Window full: overwrite round-robin so memory stays bounded on
		// long-running servers.
		s.lats[s.latPos] = lat
		s.latPos = (s.latPos + 1) % w
	} else {
		s.lats = append(s.lats, lat)
	}
	s.noteStartLocked(t0)
	if t := t0.Add(lat); t.After(s.last) {
		s.last = t
	}
	s.mu.Unlock()
}

// noteStartLocked folds t0 into the earliest-submission marker; the caller
// holds s.mu.
func (s *Server) noteStartLocked(t0 time.Time) {
	if s.first.IsZero() || t0.Before(s.first) {
		s.first = t0
	}
}

// Close waits for in-flight queries, including detached executions whose
// caller timed out. Close is idempotent; Do after Close returns ErrClosed.
func (s *Server) Close() {
	if s.closed.Swap(true) {
		return
	}
	s.inDo.Wait() // let racing Do calls finish
	s.bg.Wait()   // and detached timed-out executions release their slots
}

// Stats summarizes the serving run so far.
type Stats struct {
	Queries int // completed queries (successful; errored queries are not counted here)
	// Errors counts queries that failed — an engine panic converted by
	// safeQuery (typically a malformed query) or a deadline expiry
	// (ErrTimeout under Options.Timeout). Failed queries contribute no
	// latency sample, so QPS and the percentiles describe the Queries
	// successes only; a nonzero Errors flags that the run was not healthy.
	Errors int
	// Sheds counts queries rejected with ErrOverloaded at the MaxWaiting
	// watermark. They are neither Queries nor Errors: nothing executed.
	Sheds   int
	Elapsed time.Duration // earliest submission to last completion
	QPS     float64       // Queries / Elapsed

	// Latency percentiles (wait + execute), conservative nearest-rank:
	// Pxx is sorted[ceil(p*(n-1))], i.e. the fractional rank rounded
	// upward, so a reported tail percentile is never below the true one.
	P50, P95, P99, Max time.Duration

	// Latencies holds the retained per-query latencies (the most recent
	// Options.LatencyWindow of them) in completion order (a copy; safe to
	// keep).
	Latencies []time.Duration

	// Reader-wait observability, from the shared engine wrapper when it
	// tracks contention (engine.ConcStatsOf). ReaderWait is cumulative
	// time readers spent blocked acquiring read access; ReaderWaits counts
	// blocked acquisitions. The lock-free Snapshot wrapper's version
	// counters are engine.SnapshotStatsOf's.
	ReaderWait  time.Duration
	ReaderWaits int64
}

// Stats captures a consistent snapshot of the server's counters. The
// percentiles (and Latencies) describe the most recent LatencyWindow
// queries while Queries and QPS count every completed query.
func (s *Server) Stats() Stats {
	s.mu.Lock()
	lats := append([]time.Duration(nil), s.lats...)
	total := s.total
	errs := s.errs
	sheds := s.sheds
	first, last := s.first, s.last
	s.mu.Unlock()

	var elapsed time.Duration
	if len(lats) > 0 {
		elapsed = last.Sub(first)
	}
	st := Summarize(lats, errs, elapsed)
	st.Sheds = sheds
	if total != st.Queries {
		st.Queries = total
		if st.Elapsed > 0 {
			st.QPS = float64(total) / st.Elapsed.Seconds()
		}
	}
	if cs, ok := engine.ConcStatsOf(s.e); ok {
		st.ReaderWait = cs.ReaderWait
		st.ReaderWaits = cs.ReaderWaits
	}
	return st
}

// Summarize computes Stats from externally captured per-query latencies —
// the same conservative nearest-rank percentile math the server applies to
// its own samples, exported so load generators measuring from the client
// side (crackbench -remote) report comparable numbers. lats is retained in
// the returned Stats (not copied).
func Summarize(lats []time.Duration, errors int, elapsed time.Duration) Stats {
	st := Stats{Queries: len(lats), Errors: errors, Latencies: lats}
	if len(lats) == 0 {
		return st
	}
	st.Elapsed = elapsed
	if st.Elapsed > 0 {
		st.QPS = float64(st.Queries) / st.Elapsed.Seconds()
	}
	sorted := append([]time.Duration(nil), lats...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	pct := func(p float64) time.Duration {
		// Nearest-rank needs the ceiling: int() truncation toward zero
		// picks a rank below the percentile whenever the product is
		// non-integral (e.g. P99 of 200 samples read index 197 instead of
		// 198), systematically underreporting tail latency.
		i := int(math.Ceil(p * float64(len(sorted)-1)))
		return sorted[i]
	}
	st.P50, st.P95, st.P99 = pct(0.50), pct(0.95), pct(0.99)
	st.Max = sorted[len(sorted)-1]
	return st
}
