package engine

import (
	"fmt"
	"os"
	"slices"
	"sync/atomic"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/obs"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// DurableOptions configures OpenDurable.
type DurableOptions struct {
	// Sync selects the WAL durability mode (see wal.SyncMode). The default
	// SyncGroup acks only after an fsync covers the record, sharing fsyncs
	// across concurrent writers.
	Sync wal.SyncMode
	// CheckpointBytes rotates the WAL and writes a fresh checkpoint when
	// the live segment exceeds this size. 0 picks 64 MiB; negative
	// disables automatic checkpoints (tests and the crash matrix use this
	// so the on-disk image stays a single scannable segment).
	CheckpointBytes int64
	// Policy, if non-nil, is the adaptive cracking policy applied at open
	// — both to fresh stores and before tape replay on recovery, since a
	// policy-steered tape must be replayed under the same policy to
	// reproduce the cuts.
	Policy *crack.Policy
	// Wrap, if set, wraps the WAL segment file before use; faultnet's
	// WrapFile injects torn writes, short writes, and fsync errors here.
	Wrap func(wal.File) wal.File
}

func (o DurableOptions) checkpointBytes() int64 {
	if o.CheckpointBytes == 0 {
		return 64 << 20
	}
	return o.CheckpointBytes
}

// DurStats reports durability state and activity for a durable engine.
type DurStats struct {
	// Recovered is true when the open found an existing store on disk
	// (false for a fresh directory).
	Recovered bool
	// CleanShutdown is true when recovery found a clean-shutdown marker
	// matching the on-disk state exactly: nothing torn, nothing to replay.
	CleanShutdown bool
	// ReplayedRecords / ReplayedBytes count the WAL tail applied on top of
	// the checkpoint during recovery (segment-marker records excluded).
	ReplayedRecords int
	ReplayedBytes   int64
	// TruncatedBytes is the torn tail discarded at open — bytes of a
	// record that was mid-write when the previous process died.
	TruncatedBytes int64
	// RecoveryTime is the wall time of the whole open-and-replay.
	RecoveryTime time.Duration
	// TapeLen is the crack tape length (reorganizing queries recorded
	// since the relation was seeded; the warmth a restart inherits).
	TapeLen int
	// Checkpoints counts checkpoints written by this process.
	Checkpoints int64
	// WriteErrs counts writes refused or failed because of storage errors
	// (the log poisons on the first such error and stops acking).
	WriteErrs int64
	// WalBytes is the live segment size; Wal holds the log's counters.
	WalBytes int64
	Wal      wal.Stats
}

// durable is the write-ahead hook of a Concurrent wrapper opened by
// OpenDurable. The wrapper calls it inside its writer critical section:
// every Insert/Delete is written to a CRC-framed WAL before it is applied,
// a reorganizing query appends its shape to a crack tape before it runs,
// and after each apply a checkpoint (base columns + tombstones + tape,
// atomically replaced, with a fresh WAL segment) is written when the live
// segment has outgrown its threshold. Holding the write lock across
// log-append and in-memory apply makes log order equal apply order, which
// is what lets replay reproduce identical tuple keys. Acks wait for
// durability outside the lock (wait), so concurrent writers share fsyncs.
//
// Every method is a no-op on a nil *durable — the hook of a plain
// Concurrent engine — so the wrapper's call sites stay unconditional.
// Unless noted, methods require the wrapper's write lock.
type durable struct {
	rel *store.Relation

	dir   string
	width int
	opts  DurableOptions

	log       *wal.Log
	cpSeq     uint64
	fsyncHist *obs.Histogram // carried across segment rotations; see RegisterMetrics

	tape []wal.Record // cumulative crack tape since seed
	dead []int        // cumulative tombstoned keys since seed

	checkpoints atomic.Int64
	writeErrs   atomic.Int64

	open DurStats // recovery-time fields, fixed after OpenDurable
}

// walAck is a logged write's durability obligation: the log the record
// went to and the offset an fsync must cover. The zero value is already
// durable.
type walAck struct {
	log *wal.Log
	end int64
}

// OpenDurable opens (or creates) a durable engine of the given kind backed
// by data directory dir. For a fresh directory, rel seeds the store: its
// contents become checkpoint 0, so the seed itself never needs the WAL.
// For an existing directory, rel is ignored — the relation is rebuilt from
// the checkpoint, the crack tape is replayed to re-crack the recovered
// layout warm, and the WAL segment tail is applied on top (torn tail
// truncated). The returned engine is the Concurrent wrapper with a
// write-ahead hook: it is already shared-safe and needs no further
// wrapping.
//
// Insert acks only after its record is durable per the sync mode. A
// refused or failed write returns key -1 and counts in DurStats.WriteErrs;
// after any storage error the log is poisoned and every subsequent write
// returns -1 (the durable prefix is unknowable, so acking would lie —
// restart and recover instead). A Delete whose append is refused applies
// nothing; one whose durability wait fails stays applied and counts as a
// write error. Tape appends for reorganizing queries are buffered, never
// durability-waited: losing an unsynced tape tail costs restart warmth,
// not correctness, and read latency must not pay for fsyncs. Prepare,
// JoinInput and SetCrackPolicy are not logged: a restart rebuilds their
// effects on demand, so prefer DurableOptions.Policy, which is re-applied
// before tape replay.
func OpenDurable(kind Kind, rel *store.Relation, dir string, opts DurableOptions) (Engine, error) {
	t0 := time.Now()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	cp, err := wal.LoadCheckpoint(dir)
	if err != nil {
		return nil, err
	}
	walOpts := wal.Options{Sync: opts.Sync, Wrap: opts.Wrap}

	if cp == nil {
		// Fresh store: checkpoint the seed relation, then open segment 0.
		// A crash between the two leaves a checkpoint whose segment is
		// missing; OpenLog creates it empty, so that order is safe, while
		// the reverse order could leave a segment with records but no
		// checkpoint to anchor them.
		e := New(kind, rel)
		d := &durable{rel: rel, dir: dir, width: len(rel.Order), opts: opts}
		if opts.Policy != nil {
			SetPolicy(e, *opts.Policy)
		}
		if err := wal.WriteCheckpoint(dir, d.checkpoint(0)); err != nil {
			return nil, err
		}
		log, _, err := wal.OpenLog(wal.SegmentPath(dir, 0), walOpts)
		if err != nil {
			return nil, err
		}
		d.log = log
		if err := log.Append(wal.Record{Type: wal.RecCheckpoint, Seq: 0}); err != nil {
			log.Close()
			return nil, err
		}
		d.open.RecoveryTime = time.Since(t0)
		return &rwEngine{e: e, dur: d}, nil
	}

	// Recovery. The clean marker is consumed up front (whatever happens
	// next, a future crash must not look clean), then validated against
	// the on-disk state it described.
	mSeq, mSize, hasMarker := wal.TakeCleanMarker(dir)

	rrel := store.NewRelation(cp.Name, cp.Attrs...)
	for i, attr := range cp.Attrs {
		rrel.MustColumn(attr).Vals = cp.Cols[i]
	}
	e := New(kind, rrel)
	d := &durable{rel: rrel, dir: dir, width: len(cp.Attrs), opts: opts, cpSeq: cp.Seq}
	if opts.Policy != nil {
		SetPolicy(e, *opts.Policy)
	}
	for _, k := range cp.Dead {
		e.Delete(k)
	}
	d.dead = cp.Dead

	// Replay the tape: re-running the recorded reorganizing queries cracks
	// the rebuilt base columns into the same cut set the dead process had
	// (the kernel is deterministic — enforced by crackvet's detrand
	// checker — and recovery is single-goroutine, so replay order is tape
	// order). This is what makes the restart warm rather than correct-but-
	// cold.
	for _, rec := range cp.Tape {
		e.Query(tapeQuery(rec))
	}
	d.tape = cp.Tape

	// Apply the segment tail on top of the checkpoint.
	segPath := wal.SegmentPath(dir, cp.Seq)
	raw, err := os.ReadFile(segPath)
	if err != nil && !os.IsNotExist(err) {
		return nil, err
	}
	n, err := wal.Scan(raw, func(_ int64, rec wal.Record) error {
		return d.applyReplay(e, cp.Seq, rec)
	})
	if err != nil {
		return nil, err
	}
	d.open.TruncatedBytes = int64(len(raw)) - n
	d.open.ReplayedBytes = n

	log, torn, err := wal.OpenLog(segPath, walOpts)
	if err != nil {
		return nil, err
	}
	d.log = log

	d.open.Recovered = true
	d.open.CleanShutdown = hasMarker && mSeq == cp.Seq &&
		mSize == int64(len(raw)) && torn == 0 && d.open.ReplayedRecords == 0
	d.open.RecoveryTime = time.Since(t0)
	return &rwEngine{e: e, dur: d}, nil
}

// applyReplay applies one recovered WAL record to the bare engine e
// during OpenDurable, before the engine is shared.
func (d *durable) applyReplay(e Engine, cpSeq uint64, rec wal.Record) error {
	switch rec.Type {
	case wal.RecInsert:
		for i := 0; i+rec.Width <= len(rec.Vals); i += rec.Width {
			e.Insert(rec.Vals[i : i+rec.Width]...)
		}
		d.open.ReplayedRecords++
	case wal.RecDelete:
		for _, k := range rec.Keys {
			e.Delete(k)
			d.dead = append(d.dead, k)
		}
		d.open.ReplayedRecords++
	case wal.RecCrack:
		e.Query(tapeQuery(rec))
		d.tape = append(d.tape, rec)
		d.open.ReplayedRecords++
	case wal.RecCheckpoint:
		if rec.Seq != cpSeq {
			return fmt.Errorf("engine: wal segment opened by checkpoint %d but checkpoint on disk is %d", rec.Seq, cpSeq)
		}
	default:
		return fmt.Errorf("engine: replaying unknown wal record type %d", rec.Type)
	}
	return nil
}

// tapeQuery is the query that cut a crack-tape record.
func tapeQuery(rec wal.Record) Query {
	return Query{Preds: rec.Preds, Projs: rec.Projs, Disjunctive: rec.Disjunctive}
}

// logInsert validates the tuple's width and appends its record. ok false
// means the write is refused and must not be applied.
func (d *durable) logInsert(vals []Value) (ack walAck, ok bool) {
	if d == nil {
		return walAck{}, true
	}
	if len(vals) != d.width {
		d.writeErrs.Add(1)
		return walAck{}, false
	}
	return d.append(wal.Record{Type: wal.RecInsert, Width: d.width, Vals: vals})
}

// logDelete appends a tombstone record. ok false means the delete is
// refused and must not be applied — the in-memory state never runs ahead
// of the log's ordering.
func (d *durable) logDelete(key int) (ack walAck, ok bool) {
	if d == nil {
		return walAck{}, true
	}
	return d.append(wal.Record{Type: wal.RecDelete, Keys: []int{key}})
}

func (d *durable) append(rec wal.Record) (walAck, bool) {
	end, err := d.log.AppendBuffered(rec)
	if err != nil {
		d.writeErrs.Add(1)
		return walAck{}, false
	}
	return walAck{log: d.log, end: end}, true
}

// logCrack appends a reorganizing query to the crack tape before it runs,
// so the cuts it makes survive a restart. A failed append still lets the
// query run: the tape only carries warmth.
func (d *durable) logCrack(q Query) {
	if d == nil {
		return
	}
	// The tape outlives the call, so it keeps its own copy of the caller's
	// predicates.
	rec := wal.Record{Type: wal.RecCrack, Preds: slices.Clone(q.Preds), Projs: q.Projs, Disjunctive: q.Disjunctive}
	if _, err := d.log.AppendBuffered(rec); err != nil {
		d.writeErrs.Add(1)
	}
	d.tape = append(d.tape, rec)
}

// applied runs after a logged write or crack has been applied: it records
// the tombstoned keys (if any) and rotates the WAL into a fresh checkpoint
// when the live segment has outgrown the configured threshold.
func (d *durable) applied(dead ...int) {
	if d == nil {
		return
	}
	d.dead = append(d.dead, dead...)
	if limit := d.opts.checkpointBytes(); limit > 0 && d.log.Size() >= limit {
		d.checkpointLocked()
	}
}

// wait blocks until ack's record is durable, reporting false (and
// counting a write error) when the log failed first. Called outside the
// lock: concurrent writers stack up appends and share fsyncs (group
// commit). If a checkpoint retired the record's segment meanwhile, step 1
// of the rotation already fsynced it and the wait returns immediately.
func (d *durable) wait(ack walAck) bool {
	if ack.log == nil {
		return true
	}
	if err := ack.log.WaitDurable(ack.end); err != nil {
		d.writeErrs.Add(1)
		return false
	}
	return true
}

// checkpoint materializes the current state (caller holds the write lock,
// or is inside OpenDurable before the engine is shared). The base-column
// slices are referenced, not copied: the relation is append-only and the
// encode completes before the lock is released.
func (d *durable) checkpoint(seq uint64) *wal.Checkpoint {
	cp := &wal.Checkpoint{Seq: seq, Name: d.rel.Name, Attrs: d.rel.Order, Dead: d.dead, Tape: d.tape}
	cp.Cols = make([][]store.Value, len(d.rel.Order))
	for i, attr := range d.rel.Order {
		cp.Cols[i] = d.rel.MustColumn(attr).Vals
	}
	return cp
}

// checkpointLocked writes a fresh checkpoint and swaps to a new WAL
// segment. The order is chosen so a crash anywhere leaves a recoverable
// pair:
//
//  1. fsync the old segment — every ack in flight is durable before its
//     segment is retired, so no WaitDurable waiter can fail after its data
//     became recoverable;
//  2. create the new (empty) segment;
//  3. atomically publish the new checkpoint (tmp+fsync+rename+dir-fsync);
//  4. stamp the new segment with its checkpoint's marker record;
//  5. swap logs, then close and delete the old segment.
//
// Failing before step 3 keeps the old pair authoritative; failing after it
// leaves the new pair authoritative with at worst a stale segment file
// that recovery ignores.
func (d *durable) checkpointLocked() {
	if err := d.log.Sync(); err != nil {
		d.writeErrs.Add(1)
		return
	}
	seq := d.cpSeq + 1
	newLog, _, err := wal.OpenLog(wal.SegmentPath(d.dir, seq), wal.Options{Sync: d.opts.Sync, Wrap: d.opts.Wrap})
	if err != nil {
		d.writeErrs.Add(1)
		return
	}
	if err := wal.WriteCheckpoint(d.dir, d.checkpoint(seq)); err != nil {
		newLog.Close()
		os.Remove(wal.SegmentPath(d.dir, seq))
		d.writeErrs.Add(1)
		return
	}
	if d.fsyncHist != nil {
		newLog.ObserveFsync(d.fsyncHist)
	}
	// The checkpoint on disk now names the new segment; from here the swap
	// must happen even if the marker append fails (a poisoned new log
	// refuses acks, which is safe — staying on the old log would ack
	// writes recovery will never see).
	if err := newLog.Append(wal.Record{Type: wal.RecCheckpoint, Seq: seq}); err != nil {
		d.writeErrs.Add(1)
	}
	old := d.log
	d.log = newLog
	d.cpSeq = seq
	d.checkpoints.Add(1)
	old.Close()
	wal.RemoveSegmentsExcept(d.dir, seq)
}

// close makes the store durable and marks the shutdown clean: final fsync,
// final checkpoint (so the next open replays nothing), clean marker, close.
func (d *durable) close() error {
	if err := d.log.Sync(); err != nil {
		d.log.Close()
		return err
	}
	d.checkpointLocked()
	if err := d.log.Err(); err != nil {
		d.log.Close()
		return err
	}
	if err := wal.WriteCleanMarker(d.dir, d.cpSeq, d.log.Size()); err != nil {
		d.log.Close()
		return err
	}
	return d.log.Close()
}

// stats snapshots the durability counters (caller holds at least the read
// lock).
func (d *durable) stats() DurStats {
	s := d.open
	s.TapeLen = len(d.tape)
	s.Checkpoints = d.checkpoints.Load()
	s.WriteErrs = d.writeErrs.Load()
	s.WalBytes = d.log.Size()
	s.Wal = d.log.Stats()
	return s
}

// durableOf returns e as a durable wrapper, or nil when e is not durable.
func durableOf(e Engine) *rwEngine {
	if s, ok := e.(*rwEngine); ok && s.dur != nil {
		return s
	}
	return nil
}

// DurStatsOf extracts durability statistics from e if it is durable.
func DurStatsOf(e Engine) (DurStats, bool) {
	s := durableOf(e)
	if s == nil {
		return DurStats{}, false
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.dur.stats(), true
}

// CloseDurable checkpoints and closes a durable engine, reporting false
// when e is not one.
func CloseDurable(e Engine) (bool, error) {
	s := durableOf(e)
	if s == nil {
		return false, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return true, s.dur.close()
}
