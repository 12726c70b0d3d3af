package crack

import (
	"math"
	"sort"
	"sync/atomic"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// SnapCol is the multi-version twin of Col: a cracker column whose cracked
// state is versioned at piece granularity so read-only selects traverse a
// consistent snapshot without any lock.
//
// A version is an immutable partition of the column into pieces (each piece
// an aligned head/tail slice pair), each with its left cut bound — the
// flattened form of the cracker index — plus the pending-update structures
// of the Ripple algorithm. The pieces and cuts live in a chunked piece
// table (pieceTable): chunks of at most 64 pieces under a flat directory of
// the chunks and their leading cuts. Readers load the current version
// with one atomic pointer read (inside an Epoch pin) and gather from it;
// nothing a reader touches is ever mutated.
//
// Writers (Select merging/cracking, Insert, Delete) build replacement
// pieces aside — a crack copies only the piece a bound falls into and
// partitions the copy with the same crack-in-two/crack-in-three kernels
// (and Policy pivots) Pairs uses — then publish a new version with one
// atomic pointer swap and retire the old one into a limbo list tagged by
// the shared Epoch clock. An edit copies only what it changes: a write
// that only queues a pending update shares the whole piece table, and one
// that replaces or splits pieces copies the directory (one entry per 64
// pieces) and the chunks it touches, never the whole table. Retired pieces
// are reclaimed only when every reader that could still see them has
// exited its pin. Writers must be externally serialized (the owning
// engine's write path holds a mutex); readers need no coordination at all.
//
// Pending updates never block snapshot reads. Both lists are kept sorted
// by value — a pending deletion carries the deleted tuple's value — so
// GatherRO finds the insertions to append and the deletions to filter in
// its range by binary search, and a merge visits only the pieces that hold
// a pending value. Only a missing cut — a real crack — or an overlong
// backlog routes a query to the writer path.
type SnapCol struct {
	cur atomic.Pointer[colVersion]
	ep  *Epoch

	// Policy selects the adaptive pivot policy for cracks, as in Pairs.
	Policy Policy

	// Poison, when set (tests), overwrites reclaimed piece buffers with
	// poisonValue so that any premature reclaim — a piece freed while a
	// live reader still holds it — corrupts that reader's answer instead
	// of silently going unnoticed.
	Poison bool

	// limbo holds retired versions' dead pieces, tags ascending; gen
	// numbers writer edits (see pieceTable). Writer state: guarded by the
	// owner's exclusive lock, like all write paths.
	limbo []retiredPieces
	gen   uint64

	published atomic.Uint64 // versions published
	retired   atomic.Uint64 // versions retired into limbo
	reclaimed atomic.Uint64 // versions reclaimed out of limbo

	// kern accumulates the kernel partition counters of every piece
	// crack (InTwo, InThree, Visited, Moved, Aux). Writers are
	// serialized by the owner's lock; the counters are atomics so a
	// metrics scrape can read them without coordination.
	kern [5]atomic.Uint64
}

// poisonValue marks reclaimed buffers in Poison mode.
const poisonValue = Value(math.MinInt64)

// snapMaxPend bounds the pending-update backlog readers scan per gather:
// beyond it the probe routes one query to the writer path, which merges the
// whole backlog into pieces. Kept small so the virtual application of
// pendings on the lock-free read path stays a fraction of a narrow query's
// base cost even under a sustained insert stream.
const snapMaxPend = 128

// snapPiece is one immutable piece: values (head) and keys (tail),
// position-aligned. Sub-pieces produced by one crack share a backing array
// with disjoint ranges; a piece's slices are never written after the
// version holding it is published.
type snapPiece struct {
	head []Value
	tail []Value
}

// colVersion is one immutable snapshot of the column: its piece table plus
// the pending updates, both kept sorted by value (ties in arrival order),
// so the lock-free read path finds the pendings relevant to a range
// predicate with two binary searches instead of scanning the backlog. A
// pending deletion carries the deleted tuple's value, which names the one
// piece that holds the tuple.
type colVersion struct {
	pieceTable
	pendIns []pendingTuple
	pendDel []pendingTuple
}

// retiredPieces is one limbo entry: the pieces replaced by the publish
// whose retire tag is tag. Reclaimable once tag < Epoch.MinActive().
type retiredPieces struct {
	tag  uint64
	dead []*snapPiece
}

// NewSnapCol creates the snapshot cracker column for base column col, with
// the keys in dels (may be nil) queued as pending deletions — the engine
// creates columns on demand after tombstones may already exist. Keys that
// name no row of col are ignored.
func NewSnapCol(col *store.Column, pol Policy, ep *Epoch, dels map[int]bool) *SnapCol {
	n := col.Len()
	head := make([]Value, n)
	tail := make([]Value, n)
	copy(head, col.Vals)
	for i := range tail {
		tail[i] = Value(i)
	}
	var pendDel []pendingTuple
	for k := range dels {
		if k >= 0 && k < n {
			pendDel = append(pendDel, pendingTuple{key: Value(k), val: col.Vals[k]})
		}
	}
	sortPending(pendDel)
	c := &SnapCol{ep: ep, Policy: pol}
	c.store(&colVersion{
		pieceTable: newPieceTable([]*snapPiece{{head: head, tail: tail}}, []crackindex.Bound{minBound}),
		pendDel:    pendDel,
	})
	return c
}

// SnapColFromCol converts a (possibly warm) Col into a SnapCol, preserving
// its cracked layout, index boundaries, and pending updates — so wrapping
// an already-trained engine keeps its adaptive investment.
func SnapColFromCol(src *Col, ep *Epoch) *SnapCol {
	head := append([]Value(nil), src.P.Head...)
	tail := append([]Value(nil), src.P.Tail...)
	cuts := []crackindex.Bound{minBound}
	poss := []int{0}
	src.P.Idx.Walk(func(b crackindex.Bound, pos int) {
		if minBound.Less(b) { // minBound is already the first piece's cut
			cuts = append(cuts, b)
			poss = append(poss, pos)
		}
	})
	pieces := make([]*snapPiece, len(cuts))
	for i, lo := range poss {
		hi := len(head)
		if i+1 < len(poss) {
			hi = poss[i+1]
		}
		pieces[i] = &snapPiece{head: head[lo:hi:hi], tail: tail[lo:hi:hi]}
	}
	pendIns := append([]pendingTuple(nil), src.pendIns...)
	sortPending(pendIns) // keys grow with arrival, so ties stay in arrival order
	// A Col's pending deletions are keys only; each names a materialized
	// tuple (Col.Delete cancels a pending insertion instead), whose value
	// one pass over the column finds.
	var pendDel []pendingTuple
	if len(src.pendDel) > 0 {
		for i, k := range tail {
			if src.pendDel[k] {
				pendDel = append(pendDel, pendingTuple{key: k, val: head[i]})
			}
		}
	}
	sortPending(pendDel)
	c := &SnapCol{ep: ep, Policy: src.P.Policy}
	c.store(&colVersion{pieceTable: newPieceTable(pieces, cuts), pendIns: pendIns, pendDel: pendDel})
	return c
}

// sortPending orders pendings built in bulk by value, then key.
func sortPending(ts []pendingTuple) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].val != ts[j].val {
			return ts[i].val < ts[j].val
		}
		return ts[i].key < ts[j].key
	})
}

// searchPend returns the index of the first pending tuple in value-sorted
// ts that is not on the left of bound b.
func searchPend(ts []pendingTuple, b crackindex.Bound) int {
	lo, hi := 0, len(ts)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if onLeft(ts[m].val, b) {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// pendRange returns the run [i, j) of value-sorted ts whose values match
// pred.
func pendRange(ts []pendingTuple, pred store.Pred) (i, j int) {
	i = searchPend(ts, pred.LowerBound())
	j = searchPend(ts, pred.UpperBound())
	if j < i {
		j = i // empty predicate
	}
	return i, j
}

// findPending returns the index of the pending tuple (key, val) in
// value-sorted ts and true, or the index just past val's ties (where an
// arrival is inserted) and false.
func findPending(ts []pendingTuple, key, val Value) (int, bool) {
	i := searchPend(ts, crackindex.Bound{V: val, Incl: true})
	for ; i < len(ts) && ts[i].val == val; i++ {
		if ts[i].key == key {
			return i, true
		}
	}
	return i, false
}

// withPending returns a copy of ts with t inserted at i.
func withPending(ts []pendingTuple, i int, t pendingTuple) []pendingTuple {
	out := make([]pendingTuple, 0, len(ts)+1)
	out = append(out, ts[:i]...)
	out = append(out, t)
	return append(out, ts[i:]...)
}

// withoutPending returns a copy of ts without the run [i, j).
func withoutPending(ts []pendingTuple, i, j int) []pendingTuple {
	if len(ts) == j-i {
		return nil
	}
	out := make([]pendingTuple, 0, len(ts)-(j-i))
	out = append(out, ts[:i]...)
	return append(out, ts[j:]...)
}

// GatherRO appends the keys of tuples matching pred to dst, reading one
// consistent version lock-free. ok is false when answering pred needs the
// writer path: a missing cut, or a pending-update backlog large enough
// that merging it beats rescanning it on every read. The caller MUST hold
// an Epoch pin (Enter before, Exit after) spanning the call and any use of
// the result — the pin is what keeps the version's pieces from being
// reclaimed underneath it.
// Pending insertions are applied virtually and pending deletions filtered,
// so the answer equals the writer path's. Both are found by binary search
// on value; with no deletion in range, whole pieces are appended. A nil dst
// is allocated once at the exact size.
func (c *SnapCol) GatherRO(pred store.Pred, dst []Value) ([]Value, bool) {
	v := c.cur.Load()
	if len(v.pendIns) > snapMaxPend || len(v.pendDel) > snapMaxPend {
		return dst, false
	}
	lo, hi, ok := v.area(pred)
	if !ok {
		return dst, false
	}
	var ins, del []pendingTuple
	if len(v.pendIns) > 0 {
		i, j := pendRange(v.pendIns, pred)
		ins = v.pendIns[i:j]
	}
	if len(v.pendDel) > 0 {
		i, j := pendRange(v.pendDel, pred)
		del = v.pendDel[i:j]
	}
	if dst == nil {
		dst = make([]Value, 0, v.tuples(lo, hi)+len(ins))
	}
	dst = v.appendKeys(dst, lo, hi, del)
	for _, t := range ins {
		dst = append(dst, t.key)
	}
	return dst, true
}

// beginEdit starts a writer edit: a copy of the current version that
// shares its piece table and pending lists. Edit steps copy the directory,
// a chunk or a pending list only when they first change it.
func (c *SnapCol) beginEdit() *colVersion {
	w := *c.cur.Load()
	c.gen++
	w.gen, w.own, w.frozen = c.gen, false, false
	return &w
}

// Select is the writer-path twin of Col.Select: it merges relevant pending
// updates and ensures both predicate bounds exist as cuts — building every
// replacement piece aside and publishing one new version — then returns the
// qualifying keys as a fresh slice. Must run under the owner's exclusive
// lock (one writer at a time); readers are never blocked and never see a
// partial edit.
func (c *SnapCol) Select(pred store.Pred) []Value {
	w := c.beginEdit()
	var dead []*snapPiece
	changed := c.mergePend(w, &dead, pred, len(w.pendIns) > snapMaxPend)
	changed = c.ensureCuts(w, &dead, pred) || changed
	lo, hi, ok := w.area(pred)
	if !ok {
		panic("crack: SnapCol area missing after crack")
	}
	changed = c.applyDel(w, &dead, pred, len(w.pendDel) > snapMaxPend) || changed
	if changed {
		c.publish(w, dead)
	}
	return w.appendKeys(make([]Value, 0, w.tuples(lo, hi)), lo, hi, nil)
}

// Insert queues (key, val) as a pending insertion in a new version,
// spliced in at its val-sorted position; when the backlog exceeds
// snapMaxPend the whole backlog is merged into pieces. Writer path: caller
// holds the owner's exclusive lock.
func (c *SnapCol) Insert(key int, val Value) {
	w := c.beginEdit()
	at := searchPend(w.pendIns, crackindex.Bound{V: val, Incl: false}) // after val's ties
	w.pendIns = withPending(w.pendIns, at, pendingTuple{key: Value(key), val: val})
	var dead []*snapPiece
	if len(w.pendIns) > snapMaxPend {
		c.mergePend(w, &dead, store.Pred{}, true)
	}
	c.publish(w, dead)
}

// Delete queues a pending deletion of the tuple (key, val) — or cancels its
// pending insertion — in a new version; when the backlog exceeds
// snapMaxPend every pending deletion is applied. val must be the tuple's
// value: it names the piece holding the tuple. Writer path: caller holds
// the owner's exclusive lock.
func (c *SnapCol) Delete(key int, val Value) {
	k := Value(key)
	w := c.beginEdit()
	if i, ok := findPending(w.pendIns, k, val); ok {
		// Still pending: cancel the insertion instead.
		w.pendIns = withoutPending(w.pendIns, i, i+1)
		c.publish(w, nil)
		return
	}
	at, ok := findPending(w.pendDel, k, val)
	if ok {
		return
	}
	w.pendDel = withPending(w.pendDel, at, pendingTuple{key: k, val: val})
	var dead []*snapPiece
	if len(w.pendDel) > snapMaxPend {
		c.applyDel(w, &dead, store.Pred{}, true)
	}
	c.publish(w, dead)
}

// mergePend merges pending insertions matching pred (or all of them) into
// copies of their target pieces, val order preserved per piece.
func (c *SnapCol) mergePend(w *colVersion, dead *[]*snapPiece, pred store.Pred, all bool) bool {
	i, j := 0, len(w.pendIns)
	if !all {
		i, j = pendRange(w.pendIns, pred)
	}
	if i == j {
		return false
	}
	take := w.pendIns[i:j]
	w.pendIns = withoutPending(w.pendIns, i, j)
	for len(take) > 0 {
		p, e := w.pieceRun(take)
		pc := w.piece(p)
		n := len(pc.head)
		head := make([]Value, n, n+e)
		tail := make([]Value, n, n+e)
		copy(head, pc.head)
		copy(tail, pc.tail)
		for _, t := range take[:e] {
			head = append(head, t.val)
			tail = append(tail, t.key)
		}
		*dead = append(*dead, pc)
		w.setPiece(p, &snapPiece{head: head, tail: tail})
		take = take[e:]
	}
	return true
}

// ensureCuts makes both bounds of pred exist as cuts, cracking the pieces
// they fall into. When both bounds miss inside the same piece, the piece is
// partitioned against both in one crack-in-three pass, exactly like
// Pairs.CrackRange.
func (c *SnapCol) ensureCuts(w *colVersion, dead *[]*snapPiece, pred store.Pred) bool {
	lb, ub := pred.LowerBound(), pred.UpperBound()
	pl, okL := w.locate(lb)
	pu, okU := w.locate(ub)
	if okL && okU {
		return false
	}
	if !okL && !okU && lb.Less(ub) && pl == pu {
		c.crackPiece(w, dead, pl, func(tmp *Pairs) { tmp.CrackRange(pred) })
		return true
	}
	if !okL {
		c.crackPiece(w, dead, pl, func(tmp *Pairs) { tmp.CrackBound(lb) })
	}
	if p, ok := w.locate(ub); !ok {
		c.crackPiece(w, dead, p, func(tmp *Pairs) { tmp.CrackBound(ub) })
	}
	return true
}

// crackPiece copies the piece at p, partitions the copy with the shared
// Pairs kernels (crack applies c.Policy, so auxiliary pivots land here
// too), and splits the piece into the resulting sub-pieces and cuts. The
// sub-pieces share the copy's backing arrays over disjoint ranges; the
// replaced piece goes to the dead list.
func (c *SnapCol) crackPiece(w *colVersion, dead *[]*snapPiece, p pos, f func(tmp *Pairs)) {
	pc := w.piece(p)
	left, right, hasRight := w.cutsOf(p)
	head := append([]Value(nil), pc.head...)
	tail := append([]Value(nil), pc.tail...)
	tmp := WrapPairs(head, tail)
	tmp.Policy = c.Policy
	f(tmp)
	c.kern[0].Add(uint64(tmp.Stats.InTwo))
	c.kern[1].Add(uint64(tmp.Stats.InThree))
	c.kern[2].Add(uint64(tmp.Stats.Visited))
	c.kern[3].Add(uint64(tmp.Stats.Moved))
	c.kern[4].Add(uint64(tmp.Stats.Aux))
	var subs []*snapPiece
	var bs []crackindex.Bound
	prev := 0
	tmp.Idx.Walk(func(b crackindex.Bound, at int) {
		// A policy pivot can coincide with the piece's delimiting cut;
		// re-adding it would duplicate the cut around an empty sub-piece.
		if !left.Less(b) || (hasRight && !b.Less(right)) {
			return
		}
		subs = append(subs, &snapPiece{head: head[prev:at:at], tail: tail[prev:at:at]})
		bs = append(bs, b)
		prev = at
	})
	subs = append(subs, &snapPiece{head: head[prev:], tail: tail[prev:]})
	*dead = append(*dead, pc)
	w.split(p, subs, bs)
}

// applyDel applies the pending deletions whose values match pred (or all
// of them): it visits only the pieces holding those values, replaces each
// with a copy that omits the deleted tuples, and drops the applied
// deletions from the pending list.
func (c *SnapCol) applyDel(w *colVersion, dead *[]*snapPiece, pred store.Pred, all bool) bool {
	i, j := 0, len(w.pendDel)
	if !all {
		i, j = pendRange(w.pendDel, pred)
	}
	if i == j {
		return false
	}
	take := w.pendDel[i:j]
	w.pendDel = withoutPending(w.pendDel, i, j)
	// Every pending deletion names a tuple materialized in its piece
	// (Delete cancels a pending insertion instead), so all of take goes.
	for len(take) > 0 {
		p, e := w.pieceRun(take)
		pc := w.piece(p)
		n := max(len(pc.head)-e, 0)
		head := make([]Value, 0, n)
		tail := make([]Value, 0, n)
		for x, k := range pc.tail {
			if _, gone := findPending(take[:e], k, pc.head[x]); !gone {
				head = append(head, pc.head[x])
				tail = append(tail, k)
			}
		}
		*dead = append(*dead, pc)
		w.setPiece(p, &snapPiece{head: head, tail: tail})
		take = take[e:]
	}
	return true
}

// store publishes a version with no predecessor to retire.
func (c *SnapCol) store(v *colVersion) {
	v.frozen = true
	c.cur.Store(v)
}

// publish swaps in the new version, retires the old one's replaced pieces
// into limbo tagged with the advanced epoch, and reclaims every limbo entry
// no live reader can still see.
func (c *SnapCol) publish(w *colVersion, dead []*snapPiece) {
	c.store(w)
	tag := c.ep.Advance()
	c.limbo = append(c.limbo, retiredPieces{tag: tag, dead: dead})
	c.published.Add(1)
	c.retired.Add(1)
	c.tryReclaim()
}

// tryReclaim frees the limbo prefix whose tags precede every active
// reader's enter-epoch. In Poison mode the dead piece buffers are
// overwritten first, making a reclamation bug observable as corrupted
// reads rather than a silent latent race.
func (c *SnapCol) tryReclaim() {
	min := c.ep.MinActive()
	n := 0
	for _, r := range c.limbo {
		if r.tag >= min {
			break
		}
		if c.Poison {
			for _, pc := range r.dead {
				for i := range pc.head {
					pc.head[i] = poisonValue
				}
				for i := range pc.tail {
					pc.tail[i] = poisonValue
				}
			}
		}
		n++
	}
	if n > 0 {
		c.limbo = append(c.limbo[:0], c.limbo[n:]...)
		c.reclaimed.Add(uint64(n))
	}
}

// Len returns the number of tuples materialized in pieces (excluding
// pending insertions), like Col.Len.
func (c *SnapCol) Len() int {
	n := 0
	for _, ch := range c.cur.Load().chunks {
		for _, pc := range ch.pieces {
			n += len(pc.head)
		}
	}
	return n
}

// Pieces returns the number of pieces in the current version.
func (c *SnapCol) Pieces() int {
	n := 0
	for _, ch := range c.cur.Load().chunks {
		n += len(ch.pieces)
	}
	return n
}

// PendingInsertions returns the number of insertions not yet merged.
func (c *SnapCol) PendingInsertions() int { return len(c.cur.Load().pendIns) }

// PendingDeletions returns the number of deletions not yet merged.
func (c *SnapCol) PendingDeletions() int { return len(c.cur.Load().pendDel) }

// SnapStats are SnapCol's version-lifecycle counters. Limbo is the number
// of retired-but-unreclaimed versions — held back by live readers.
type SnapStats struct {
	Published uint64
	Retired   uint64
	Reclaimed uint64
	Limbo     uint64
}

// KernelStats returns the kernel partition counters accumulated across
// every piece crack since the column was created (the conversion from a
// plain Col starts from zero). Safe to call concurrently.
func (c *SnapCol) KernelStats() KernelStats {
	return KernelStats{
		InTwo:   int(c.kern[0].Load()),
		InThree: int(c.kern[1].Load()),
		Visited: int(c.kern[2].Load()),
		Moved:   int(c.kern[3].Load()),
		Aux:     int(c.kern[4].Load()),
	}
}

// Stats returns the version-lifecycle counters. Safe to call concurrently.
func (c *SnapCol) Stats() SnapStats {
	s := SnapStats{
		Published: c.published.Load(),
		Retired:   c.retired.Load(),
		Reclaimed: c.reclaimed.Load(),
	}
	s.Limbo = s.Retired - s.Reclaimed
	return s
}

// CheckVersion verifies the current version, the snapshot twin of
// Pairs.CheckPieces used by tests: the piece table's directory and cut
// order, the piece invariant (every value sits between its piece's cuts),
// that both pending lists are value-sorted, and that each pending deletion
// (key, val) is unique and names a tuple with value val in its piece.
func (c *SnapCol) CheckVersion() bool {
	v := c.cur.Load()
	if !v.frozen || !v.checkTable() {
		return false
	}
	for ci, ch := range v.chunks {
		for k, pc := range ch.pieces {
			left, right, hasRight := v.cutsOf(pos{ci, k})
			for _, val := range pc.head {
				if onLeft(val, left) || (hasRight && !onLeft(val, right)) {
					return false
				}
			}
		}
	}
	for _, ts := range [][]pendingTuple{v.pendIns, v.pendDel} {
		for i := 1; i < len(ts); i++ {
			if ts[i].val < ts[i-1].val {
				return false
			}
		}
	}
	seen := make(map[Value]bool, len(v.pendDel))
	for _, d := range v.pendDel {
		if seen[d.key] {
			return false
		}
		seen[d.key] = true
		pc := v.piece(v.locateVal(d.val))
		found := false
		for x, k := range pc.tail {
			found = found || (k == d.key && pc.head[x] == d.val)
		}
		if !found {
			return false
		}
	}
	return true
}
