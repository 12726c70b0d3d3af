package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/crack"
)

// ConcStats reports how a lock-based wrapper's readers fare against
// concurrent reorganization: how long (and how often) readers blocked
// waiting for access. Snapshot engines, whose readers never block, report
// SnapshotStats instead. The zero value means "nothing observed".
type ConcStats struct {
	// ReaderWait is the cumulative time readers spent blocked acquiring
	// read access.
	ReaderWait time.Duration
	// ReaderWaits counts read acquisitions that had to block.
	ReaderWaits int64
}

// ConcObservable is implemented by shared-safe wrappers that track
// reader/writer contention statistics.
type ConcObservable interface {
	ConcStats() ConcStats
}

// ConcStatsOf extracts contention statistics from e if its wrapper tracks
// them.
func ConcStatsOf(e Engine) (ConcStats, bool) {
	if o, ok := e.(ConcObservable); ok {
		return o.ConcStats(), true
	}
	return ConcStats{}, false
}

// Concurrent wraps an engine with a read-write lock built on QueryRO so it
// can serve many goroutines at once.
//
// Cracking engines physically reorganize their structures as a side effect
// of queries — reads are writes — but after a warm-up the vast majority of
// queries touch only already-cracked pieces and reorganize nothing. The
// wrapper exploits that: a query first attempts the engine's
// reorganization-free path under a shared read lock (QueryRO); only when
// the engine reports that cracking, a pending-update merge, or structure
// maintenance is required does it take the exclusive write lock, re-check
// (another writer may have done the work in the meantime), and run the full
// Query. Aligned repeat queries therefore run genuinely in parallel, and
// one crack pays for every reader that was waiting behind it.
//
// The same wrapper, given a write-ahead hook, is the durable engine
// (OpenDurable): the hook logs writes and reorganizing queries inside the
// writer critical section, so log order equals apply order.
//
// Wrapping is idempotent: Concurrent on an engine that is already safe to
// share (a Concurrent, durable or Serialized wrapper, or an engine carrying
// the SharedEngine marker, such as the sharded engine) returns it unchanged —
// adding a global lock over an engine that manages its own finer-grained
// locking would serialize it.
func Concurrent(e Engine) Engine {
	if IsShared(e) {
		return e
	}
	return &rwEngine{e: e}
}

// sharedMarker tags engines defined outside this package that are already
// safe to share across goroutines because they do their own locking (e.g.
// internal/shard, which wraps every shard in Concurrent individually).
type sharedMarker interface{ SharedEngine() }

// IsShared reports whether e is already safe to share across goroutines:
// a Concurrent, durable or Serialized wrapper, or any engine implementing
// the SharedEngine marker method.
func IsShared(e Engine) bool {
	switch e.(type) {
	case *rwEngine, *syncEngine:
		return true
	}
	_, ok := e.(sharedMarker)
	return ok
}

type rwEngine struct {
	mu  sync.RWMutex
	e   Engine
	dur *durable // write-ahead hook; nil unless opened by OpenDurable

	readerWaitNs atomic.Int64
	readerWaits  atomic.Int64
}

// rlock acquires the read lock, recording time spent blocked behind a
// writer (an uncontended acquisition costs one TryRLock).
func (s *rwEngine) rlock() {
	if s.mu.TryRLock() {
		return
	}
	t0 := time.Now()
	//crackvet:ignore lockpair rlock acquires for its caller; every call site pairs it with s.mu.RUnlock
	s.mu.RLock()
	s.readerWaitNs.Add(int64(time.Since(t0)))
	s.readerWaits.Add(1)
}

func (s *rwEngine) ConcStats() ConcStats {
	return ConcStats{
		ReaderWait:  time.Duration(s.readerWaitNs.Load()),
		ReaderWaits: s.readerWaits.Load(),
	}
}

func (s *rwEngine) Name() string {
	if s.dur != nil {
		return s.e.Name() + " (durable)"
	}
	return s.e.Name() + " (concurrent)"
}
func (s *rwEngine) Kind() Kind { return s.e.Kind() }

// SetCrackPolicy forwards the adaptive cracking policy to the wrapped
// engine under the write lock, reporting whether it cracks.
func (s *rwEngine) SetCrackPolicy(pol crack.Policy) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SetPolicy(s.e, pol)
}

func (s *rwEngine) Query(q Query) (Result, Cost) {
	// Fast path: execute read-only under the shared lock.
	s.rlock()
	res, cost, ok := s.e.QueryRO(q)
	s.mu.RUnlock()
	if ok {
		return res, cost
	}
	// Slow path: the query needs reorganization. Double-check under the
	// write lock — a writer that ran between the two lock acquisitions may
	// have cracked the very same range already.
	s.mu.Lock()
	defer s.mu.Unlock()
	if res, cost, ok := s.e.QueryRO(q); ok {
		return res, cost
	}
	s.dur.logCrack(q)
	res, cost = s.e.Query(q)
	s.dur.applied()
	return res, cost
}

func (s *rwEngine) QueryRO(q Query) (Result, Cost, bool) {
	s.rlock()
	defer s.mu.RUnlock()
	return s.e.QueryRO(q)
}

// Insert applies under the write lock. A durable engine logs the tuple
// first and acks only once the record is durable, waiting outside the lock
// so concurrent writers share fsyncs; a refused write returns key -1.
func (s *rwEngine) Insert(vals ...Value) int {
	key, ack := s.insertLocked(vals)
	if !s.dur.wait(ack) {
		return -1
	}
	return key
}

func (s *rwEngine) insertLocked(vals []Value) (int, walAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ack, ok := s.dur.logInsert(vals)
	if !ok {
		return -1, walAck{}
	}
	key := s.e.Insert(vals...)
	s.dur.applied()
	return key, ack
}

// Delete applies under the write lock, logged first on a durable engine
// (see Insert).
func (s *rwEngine) Delete(key int) {
	s.dur.wait(s.deleteLocked(key))
}

func (s *rwEngine) deleteLocked(key int) walAck {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dur != nil && !hasRow(s.dur.rel, key) {
		// A no-op in every engine; a logged tombstone would outlive it and
		// kill the row a later insert puts under this key.
		return walAck{}
	}
	ack, ok := s.dur.logDelete(key)
	if !ok {
		return walAck{}
	}
	s.e.Delete(key)
	s.dur.applied(key)
	return ack
}

func (s *rwEngine) Prepare(attrs ...string) time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.Prepare(attrs...)
}

func (s *rwEngine) Storage() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.e.Storage()
}

func (s *rwEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	// Join selections crack both inputs; take the write lock up front.
	// The returned fetcher needs no lock at all: every engine's JoinInput
	// captures a snapshot of its fetch columns (base-column slice headers
	// or a materialized intermediate), both immutable under concurrent
	// appends. The previous per-tuple RLock/RUnlock pair here dominated
	// wide join projections.
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.e.JoinInput(preds, joinAttr, projs)
}
