package engine

import (
	"sync"
	"sync/atomic"
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/store"
)

// Snapshot wraps e for concurrent serving with lock-free snapshot reads:
// read-only queries traverse an immutable version of the cracked state
// (published by writers with an atomic pointer swap, reclaimed via
// epoch-based reclamation) and never wait for a crack — the RWMutex of
// Concurrent makes every reader stall behind a cold crack's multi-ms write
// section; Snapshot removes that cliff entirely.
//
// The snapshot protocol is implemented for the selection-cracking engine
// (SelCrack), whose state — cracker columns plus a tombstone set over
// append-only base columns — is exactly reconstructible at piece
// granularity. A warm SelCrack engine keeps its cracked layout and pending
// updates across the conversion. Engines that are already shared-safe are
// returned unchanged; other kinds (whose auxiliary structures mutate
// internal maps and stat caches on the read path) fall back to
// Concurrent(e), so Snapshot is always safe to request.
func Snapshot(e Engine) Engine {
	if IsShared(e) {
		return e
	}
	if sc, ok := e.(*selCrackEngine); ok {
		return newSnapEngine(sc)
	}
	return Concurrent(e)
}

// snapEngine is the multi-version selection-cracking engine behind
// Snapshot. Readers (QueryRO, and Query's fast path) are entirely
// lock-free: they pin an epoch, load immutable state through atomic
// pointers, and copy what they need. Writers (cracking queries, Insert,
// Delete, JoinInput) serialize on mu and publish every change as a new
// immutable version before returning.
//
// Lock-free reads lean on three invariants:
//
//   - Base columns are append-only (deletes are tombstones), and bases
//     holds their slice headers republished under mu after every append —
//     a reader's header snapshot never sees a partially written row
//     because the row's keys only become reachable via a cracker-column
//     version published after bases.
//   - A cracker column's versions are immutable and epoch-reclaimed
//     (crack.SnapCol); readers pin the epoch across a gather.
//   - The cols map is copy-on-write: on-demand column creation publishes a
//     fresh map, never mutating one a reader may hold.
type snapEngine struct {
	mu   sync.Mutex // serializes writers; readers never take it
	rel  *store.Relation
	ep   *crack.Epoch
	dead map[int]bool // writer-only tombstones (never read lock-free)
	pol  crack.Policy

	cols  atomic.Pointer[map[string]*crack.SnapCol]
	bases atomic.Pointer[map[string][]Value]
}

func newSnapEngine(sc *selCrackEngine) *snapEngine {
	e := &snapEngine{
		rel:  sc.rel,
		ep:   crack.NewEpoch(),
		dead: make(map[int]bool, len(sc.dead)),
		pol:  sc.pol,
	}
	for k := range sc.dead {
		e.dead[k] = true
	}
	cols := make(map[string]*crack.SnapCol, len(sc.cols))
	for attr, c := range sc.cols {
		cols[attr] = crack.SnapColFromCol(c, e.ep)
	}
	e.cols.Store(&cols)
	e.publishBasesLocked()
	return e
}

// SharedEngine marks the engine as safe to share without further wrapping.
func (e *snapEngine) SharedEngine() {}

func (e *snapEngine) Name() string { return "selection cracking (snapshot)" }
func (e *snapEngine) Kind() Kind   { return SelCrack }

// SetCrackPolicy configures the adaptive pivot policy for current and
// future cracker columns (future cracks only; published layouts stand).
func (e *snapEngine) SetCrackPolicy(pol crack.Policy) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.pol = pol
	for _, c := range *e.cols.Load() {
		c.Policy = pol
	}
	return true
}

// publishBasesLocked re-publishes the base-column slice headers; must run
// under mu and before any cracker-column version referencing new keys is
// published, so a reader that sees a key through a version always finds
// its row in the bases snapshot it loads afterwards.
func (e *snapEngine) publishBasesLocked() {
	nb := make(map[string][]Value, len(e.rel.Order))
	for _, a := range e.rel.Order {
		nb[a] = e.rel.MustColumn(a).Vals
	}
	e.bases.Store(&nb)
}

// colLocked returns the cracker column for attr, creating it on demand from
// the current base state (tombstones become pending deletions) and
// publishing a fresh cols map. Must run under mu.
func (e *snapEngine) colLocked(attr string) *crack.SnapCol {
	cols := *e.cols.Load()
	if c, ok := cols[attr]; ok {
		return c
	}
	c := crack.NewSnapCol(e.rel.MustColumn(attr), e.pol, e.ep, e.dead)
	nc := make(map[string]*crack.SnapCol, len(cols)+1)
	for k, v := range cols {
		nc[k] = v
	}
	nc[attr] = c
	e.cols.Store(&nc)
	return c
}

func (e *snapEngine) Insert(vals ...Value) int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.rel.AppendRow(vals...)
	key := e.rel.NumRows() - 1
	e.publishBasesLocked() // before any column version can expose the key
	cols := *e.cols.Load()
	for _, ap := range e.rel.Order {
		if c, ok := cols[ap]; ok {
			c.Insert(key, e.rel.MustColumn(ap).Vals[key])
		}
	}
	return key
}

func (e *snapEngine) Delete(key int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !hasRow(e.rel, key) || e.dead[key] {
		return
	}
	e.dead[key] = true
	for attr, c := range *e.cols.Load() {
		c.Delete(key, e.rel.MustColumn(attr).Vals[key])
	}
}

func (e *snapEngine) Prepare(attrs ...string) time.Duration { return 0 }

func (e *snapEngine) Storage() int {
	total := 0
	for _, c := range *e.cols.Load() {
		total += c.Len()
	}
	return total
}

// gatherRO collects qualifying keys lock-free from one consistent snapshot
// per touched column. The caller must hold an epoch pin spanning the call.
func (e *snapEngine) gatherRO(q Query) ([]Value, bool) {
	cols := *e.cols.Load()
	if q.Disjunctive {
		seen := make(map[Value]bool)
		var keys []Value
		for _, ap := range q.Preds {
			c, ok := cols[ap.Attr]
			if !ok {
				return nil, false
			}
			part, ok := c.GatherRO(ap.Pred, nil)
			if !ok {
				return nil, false
			}
			for _, k := range part {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		return keys, true
	}
	c, ok := cols[q.Preds[0].Attr]
	if !ok {
		return nil, false
	}
	keys, ok := c.GatherRO(q.Preds[0].Pred, nil)
	if !ok {
		return nil, false
	}
	// Secondary predicates filter against the base-column snapshot; dead
	// tuples are already excluded by the primary column (physically
	// removed, or filtered through its pending-deletion set).
	bases := *e.bases.Load()
	for _, ap := range q.Preds[1:] {
		base := bases[ap.Attr]
		out := keys[:0]
		for _, k := range keys {
			if ap.Pred.Matches(base[int(k)]) {
				out = append(out, k)
			}
		}
		keys = out
	}
	return keys, true
}

func (e *snapEngine) QueryRO(q Query) (Result, Cost, bool) {
	if len(q.Preds) == 0 {
		return Result{}, Cost{}, false
	}
	var cost Cost
	t0 := time.Now()
	keys, ok := func() ([]Value, bool) {
		pin := e.ep.Enter()
		defer e.ep.Exit(pin) // keys are copies; nothing references version memory after this
		return e.gatherRO(q)
	}()
	if !ok {
		return Result{}, Cost{}, false
	}
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	bases := *e.bases.Load()
	res := Result{Cols: make(map[string][]Value, len(q.Projs)), N: len(keys)}
	for _, attr := range q.Projs {
		base := bases[attr]
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = base[int(k)] // random access: keys are unordered
		}
		res.Cols[attr] = out
	}
	cost.TR = time.Since(t0)
	return res, cost, true
}

func (e *snapEngine) Query(q Query) (Result, Cost) {
	// Fast path: lock-free snapshot read.
	if res, cost, ok := e.QueryRO(q); ok {
		return res, cost
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	// Double-check: a writer that ran between the two attempts may have
	// cracked the very same range already.
	if res, cost, ok := e.QueryRO(q); ok {
		return res, cost
	}
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeysLocked(q.Preds, q.Disjunctive)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	res := Result{Cols: make(map[string][]Value, len(q.Projs)), N: len(keys)}
	for _, attr := range q.Projs {
		col := e.rel.MustColumn(attr)
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = col.Vals[int(k)]
		}
		res.Cols[attr] = out
	}
	cost.TR = time.Since(t0)
	return res, cost
}

// selectKeysLocked is the writer-path key selection: cracker-column selects
// publish new versions as a side effect. Must run under mu.
func (e *snapEngine) selectKeysLocked(preds []AttrPred, disjunctive bool) []Value {
	if disjunctive {
		seen := make(map[Value]bool)
		var keys []Value
		for _, ap := range preds {
			for _, k := range e.colLocked(ap.Attr).Select(ap.Pred) {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		return keys
	}
	keys := e.colLocked(preds[0].Attr).Select(preds[0].Pred)
	for _, ap := range preds[1:] {
		keys = crack.RelSelect(keys, e.rel.MustColumn(ap.Attr), ap.Pred)
		keys = e.dropDeadLocked(keys)
	}
	return keys
}

// dropDeadLocked removes keys whose tuple is tombstoned but whose deletion
// has not been merged into the column serving the primary predicate yet.
func (e *snapEngine) dropDeadLocked(keys []Value) []Value {
	if len(e.dead) == 0 {
		return keys
	}
	out := keys[:0]
	for _, k := range keys {
		if !e.dead[int(k)] {
			out = append(out, k)
		}
	}
	return out
}

func (e *snapEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	e.mu.Lock()
	defer e.mu.Unlock()
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeysLocked(preds, false)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	col := e.rel.MustColumn(joinAttr)
	jv := make([]Value, len(keys))
	for i, k := range keys {
		jv[i] = col.Vals[int(k)]
	}
	cost.TR = time.Since(t0)
	// The fetcher captures the current base-column snapshot: post-join
	// fetches are lock-free and stable even while writers keep appending.
	bases := *e.bases.Load()
	return JoinInput{
		JoinVals: jv,
		Fetch: func(attr string, i int) Value {
			return bases[attr][int(keys[i])]
		},
	}, cost
}

// SnapshotStats aggregates the version-lifecycle counters across the
// engine's cracker columns, plus the number of currently pinned readers.
type SnapshotStats struct {
	Published uint64 // versions published (atomic pointer swaps)
	Reclaimed uint64 // versions reclaimed after their readers exited
	Limbo     uint64 // retired versions still held back by live readers
	Readers   int    // currently pinned readers (racy, monitoring only)
}

// SnapshotStats returns the aggregated snapshot counters.
func (e *snapEngine) SnapshotStats() SnapshotStats {
	var st SnapshotStats
	for _, c := range *e.cols.Load() {
		s := c.Stats()
		st.Published += s.Published
		st.Reclaimed += s.Reclaimed
		st.Limbo += s.Limbo
	}
	st.Readers = e.ep.Active()
	return st
}
