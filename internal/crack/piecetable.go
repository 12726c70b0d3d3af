package crack

import (
	"math"
	"slices"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// chunkMax bounds the pieces per chunk of a pieceTable. An edit copies the
// chunks it touches plus the directory (one entry per chunk), so with n
// pieces it costs O(chunkMax + n/chunkMax) instead of O(n).
const chunkMax = 64

// minBound is the left cut of a column's first piece: every value lies on
// its right. It is the least Bound, so lookups need no case for the first
// piece.
var minBound = crackindex.Bound{V: math.MinInt64, Incl: true}

// pieceTable is a SnapCol version's partition of the column into pieces in
// ascending value order, each with its left cut (the first piece's is
// minBound). Pieces and cuts live in chunks of at most chunkMax; a flat
// directory holds each chunk and its leading cut, so a cut lookup is two
// closure-free binary searches, over the directory and then over one
// chunk.
//
// Tables are copy-on-write. A writer edit starts as a struct copy of the
// published table and shares everything with it. Its first write copies
// the chunk list, and its first write to a chunk copies that chunk: a chunk
// belongs to the edit whose gen it carries. lead is never written in
// place; a split that adds chunks builds a new one. A published table is
// frozen, and any write to it panics.
type pieceTable struct {
	chunks []*pieceChunk
	lead   []crackindex.Bound // lead[c] == chunks[c].cuts[0]
	gen    uint64             // the edit this table belongs to
	own    bool               // chunks is this edit's copy
	frozen bool               // published: readers may hold it
}

// pieceChunk is a run of consecutive pieces. cuts[k] is the left cut of
// pieces[k]. pieces is written in place only by the edit whose gen the
// chunk carries; cuts is never written in place, so a chunk copy shares it.
type pieceChunk struct {
	gen    uint64
	pieces []*snapPiece
	cuts   []crackindex.Bound
}

// pos addresses one piece: slot k of chunk c.
type pos struct{ c, k int }

// newPieceTable builds a table from pieces in value order and their left
// cuts (cuts[0] == minBound), filling chunks to chunkMax.
func newPieceTable(pieces []*snapPiece, cuts []crackindex.Bound) pieceTable {
	var t pieceTable
	for s := 0; s < len(pieces); s += chunkMax {
		e := min(s+chunkMax, len(pieces))
		t.chunks = append(t.chunks, &pieceChunk{pieces: pieces[s:e:e], cuts: cuts[s:e:e]})
		t.lead = append(t.lead, cuts[s])
	}
	return t
}

// locate returns the piece bound b falls into — the last piece whose left
// cut is not after b — and whether that left cut is b itself.
func (t *pieceTable) locate(b crackindex.Bound) (pos, bool) {
	c := lastNotAfter(t.lead, b)
	cuts := t.chunks[c].cuts
	k := lastNotAfter(cuts, b)
	return pos{c, k}, cuts[k] == b
}

// lastNotAfter returns the index of the last bound in ascending bs that is
// not after b; bs[0] must not be after b.
func lastNotAfter(bs []crackindex.Bound, b crackindex.Bound) int {
	lo, hi := 1, len(bs)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if b.Less(bs[m]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	return lo - 1
}

// locateVal returns the piece a tuple with value v belongs to. The bound
// ">= v" falls into exactly that piece.
func (t *pieceTable) locateVal(v Value) pos {
	p, _ := t.locate(crackindex.Bound{V: v, Incl: true})
	return p
}

// pieceRun returns the piece holding the value-sorted pending tuples' first
// value and how many of them, from the first on, that piece holds.
func (t *pieceTable) pieceRun(ts []pendingTuple) (pos, int) {
	p := t.locateVal(ts[0].val)
	n := 1
	for n < len(ts) && t.locateVal(ts[n].val) == p {
		n++
	}
	return p, n
}

// area returns the qualifying pieces [lo, hi) of pred, ok only when both
// bounds exist as cuts.
func (t *pieceTable) area(pred store.Pred) (lo, hi pos, ok bool) {
	lb, ub := pred.LowerBound(), pred.UpperBound()
	lo, okL := t.locate(lb)
	hi, okU := t.locate(ub)
	if !lb.Less(ub) {
		// Empty predicate: the area is empty, but as on any miss the
		// writer path first makes both bounds cuts.
		hi = lo
	}
	return lo, hi, okL && okU
}

// run returns chunk c's pieces inside [lo, hi); lo.c <= c <= hi.c.
func (t *pieceTable) run(c int, lo, hi pos) []*snapPiece {
	ps := t.chunks[c].pieces
	a, b := 0, len(ps)
	if c == lo.c {
		a = lo.k
	}
	if c == hi.c {
		b = hi.k
	}
	return ps[a:b]
}

// tuples returns the number of tuples in pieces [lo, hi).
func (t *pieceTable) tuples(lo, hi pos) int {
	n := 0
	for c := lo.c; c <= hi.c; c++ {
		for _, pc := range t.run(c, lo, hi) {
			n += len(pc.tail)
		}
	}
	return n
}

// appendKeys appends the keys of pieces [lo, hi) to dst, leaving out the
// tuples named in del (value-sorted pending deletions).
func (t *pieceTable) appendKeys(dst []Value, lo, hi pos, del []pendingTuple) []Value {
	for c := lo.c; c <= hi.c; c++ {
		for _, pc := range t.run(c, lo, hi) {
			if len(del) == 0 {
				dst = append(dst, pc.tail...)
				continue
			}
			for x, k := range pc.tail {
				if _, gone := findPending(del, k, pc.head[x]); !gone {
					dst = append(dst, k)
				}
			}
		}
	}
	return dst
}

// piece returns the piece at p.
func (t *pieceTable) piece(p pos) *snapPiece { return t.chunks[p.c].pieces[p.k] }

// cutsOf returns the left cut of the piece at p and, when p is not the
// last piece, its right cut (the next piece's left cut).
func (t *pieceTable) cutsOf(p pos) (left, right crackindex.Bound, hasRight bool) {
	ch := t.chunks[p.c]
	left = ch.cuts[p.k]
	switch {
	case p.k+1 < len(ch.cuts):
		return left, ch.cuts[p.k+1], true
	case p.c+1 < len(t.lead):
		return left, t.lead[p.c+1], true
	}
	return left, crackindex.Bound{}, false
}

// editDir makes the chunk list this edit's own copy. Writing a published
// table is a bug: readers may be traversing it.
func (t *pieceTable) editDir() {
	if t.frozen {
		panic("crack: write to a published piece table")
	}
	if !t.own {
		// Room for the one chunk a split usually adds, so split's
		// slices.Replace does not copy the list a second time.
		t.chunks = append(make([]*pieceChunk, 0, len(t.chunks)+1), t.chunks...)
		t.own = true
	}
}

// setPiece replaces the piece at p, keeping its cuts.
func (t *pieceTable) setPiece(p pos, pc *snapPiece) {
	t.editDir()
	ch := t.chunks[p.c]
	if ch.gen != t.gen {
		ch = &pieceChunk{gen: t.gen, pieces: slices.Clone(ch.pieces), cuts: ch.cuts}
		t.chunks[p.c] = ch
	}
	ch.pieces[p.k] = pc
}

// split replaces the piece at p by subs, whose left cuts are the piece's
// own followed by bs (len(bs) == len(subs)-1). A chunk that outgrows
// chunkMax is split into chunks of chunkMax/2 pieces and a remainder.
func (t *pieceTable) split(p pos, subs []*snapPiece, bs []crackindex.Bound) {
	t.editDir()
	old := t.chunks[p.c]
	n := len(old.pieces) + len(bs)
	ps := make([]*snapPiece, 0, n)
	ps = append(ps, old.pieces[:p.k]...)
	ps = append(ps, subs...)
	ps = append(ps, old.pieces[p.k+1:]...)
	cs := make([]crackindex.Bound, 0, n)
	cs = append(cs, old.cuts[:p.k+1]...)
	cs = append(cs, bs...)
	cs = append(cs, old.cuts[p.k+1:]...)
	var repl []*pieceChunk
	for len(ps) > chunkMax {
		const h = chunkMax / 2
		repl = append(repl, &pieceChunk{gen: t.gen, pieces: ps[:h:h], cuts: cs[:h:h]})
		ps, cs = ps[h:], cs[h:]
	}
	repl = append(repl, &pieceChunk{gen: t.gen, pieces: ps, cuts: cs})
	t.chunks = slices.Replace(t.chunks, p.c, p.c+1, repl...)
	if len(repl) == 1 {
		return // the chunk keeps its leading cut
	}
	lead := make([]crackindex.Bound, 0, len(t.lead)+len(repl)-1)
	lead = append(lead, t.lead[:p.c]...)
	for _, ch := range repl {
		lead = append(lead, ch.cuts[0])
	}
	t.lead = append(lead, t.lead[p.c+1:]...)
}

// checkTable verifies the directory and the cut order: every chunk holds
// 1..chunkMax pieces with one cut each, the directory matches the chunks,
// the first cut is minBound, and cuts ascend strictly across chunks.
func (t *pieceTable) checkTable() bool {
	if len(t.chunks) == 0 || len(t.lead) != len(t.chunks) {
		return false
	}
	prev := minBound
	for c, ch := range t.chunks {
		if len(ch.pieces) == 0 || len(ch.pieces) > chunkMax || len(ch.cuts) != len(ch.pieces) {
			return false
		}
		if t.lead[c] != ch.cuts[0] {
			return false
		}
		for k, b := range ch.cuts {
			if c == 0 && k == 0 {
				if b != minBound {
					return false
				}
				continue
			}
			if !prev.Less(b) {
				return false
			}
			prev = b
		}
	}
	return true
}
