// Package crack implements database cracking (CIDR 2007): incremental
// physical reorganization of a column as a side effect of query processing,
// plus the Ripple update algorithm (SIGMOD 2007) the paper's Section 3.5
// builds on.
//
// The central type is Pairs, a two-column table (head, tail) with a cracker
// index over the head. Every cracking structure in this repository is a
// Pairs under the hood:
//
//	cracker column  C_A   — head = A values, tail = tuple keys
//	cracker map     M_AB  — head = A values, tail = B values
//	chunk map       H_A   — head = A values, tail = tuple keys
//	key map         M_Akey— head = A values, tail = tuple keys
//
// Crack-in-two and crack-in-three are implemented as deterministic pure
// functions of (piece contents, predicate). Determinism is the invariant
// that makes sideways cracking's adaptive alignment correct: two maps of the
// same set that replay the same sequence of cracks end up with identical
// head orderings (Section 3.2).
//
// CrackRange partitions against both bounds of a range predicate with one
// crack-in-three (a single classification pass that fixes both split
// positions, followed by a movement-optimal cycle repair that stores every
// misplaced tuple exactly once) whenever both bounds fall into the same
// uncracked piece — the common cold-start case — and falls back to two
// crack-in-two passes otherwise. Which path is taken depends only on the
// cracker-index state, which itself is a function of the replayed
// operation sequence, so the choice is deterministic across aligned maps
// and the alignment invariant is preserved.
//
// Maps of one sideways set that replay the same operation sequence hold the
// same head in the same order, so they need not classify it separately:
// CrackRange(pred, peers...) classifies the leader's head once and mirrors
// every move it makes (swaps, rotations, auxiliary policy pivots, index
// boundaries) onto each peer's head, tail and index. Each peer ends up
// byte-identical to cracking it alone; with no peers it is the plain crack.
//
// Updates use the Ripple algorithm. RippleInsert merges one pending tuple;
// RippleInsertBatch merges many in a single pass (one index walk, one bulk
// boundary shift) and is defined to produce exactly the layout that
// arrival-order sequential RippleInsert calls would, so replay tapes can be
// applied with either without breaking alignment.
//
// Two orthogonal knobs tune the kernel beyond the paper's algorithm:
//
//   - Pairs.Policy selects an adaptive pivot policy (see Policy): the
//     Stochastic and Capped policies pre-split pathologically large pieces
//     at auxiliary pivots before the query's own crack, so convergence no
//     longer depends on the query pattern. Auxiliary pivots are ordinary
//     index boundaries; probes and SelectRO benefit from them immediately.
//   - The partition inner loops run branch-free by default: per-tuple
//     left/right decisions are computed as 0/1 cursor advances and masked
//     swaps instead of unpredictable branches, so throughput does not
//     collapse on random data (~50% mispredicts in the branchy loop).
//     Pairs.Branchy selects the branchy reference implementation, which is
//     fuzz-pinned layout-identical to the predicated kernels.
package crack

import (
	"math"
	"sort"
	"sync"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// KernelStats counts partition work. Tests use it to verify that a cold
// range crack classifies each tuple once and that crack-in-three moves no
// more tuples than two crack-in-twos; benchmarks use it for work
// accounting.
//
// A crack shared with peers (CrackRange) is counted where the work is done:
// the leader counts the partition passes and classified tuples (InTwo,
// InThree, Visited) plus its own Moved and Aux, exactly as if it cracked
// alone; each peer counts only what changed in it, Moved and Aux. Summed
// over a map set, Moved and Aux therefore match independent cracking while
// InTwo, InThree and Visited count each classification once.
type KernelStats struct {
	InTwo   int // crack-in-two partition passes
	InThree int // crack-in-three partitions (both bounds in one pass)
	Visited int // tuples classified, one per tuple per partition pass
	Moved   int // tuples stored to a new position (swaps count 2, rotations 3)
	Aux     int // auxiliary policy pivots introduced (see Policy)
}

// Add accumulates o into s (aggregation across columns/maps/chunks).
func (s *KernelStats) Add(o KernelStats) {
	s.InTwo += o.InTwo
	s.InThree += o.InThree
	s.Visited += o.Visited
	s.Moved += o.Moved
	s.Aux += o.Aux
}

// Pairs is a two-column table with a cracker index over the head column.
type Pairs struct {
	Head []Value
	Tail []Value
	Idx  *crackindex.Index

	// Policy selects the adaptive pivot policy; the zero value is Default
	// (crack only at query bounds). Change it only between queries: policy
	// decisions are part of the deterministic layout, so structures that
	// must stay aligned have to crack under one policy.
	Policy Policy

	// Branchy selects the branchy reference partition loops instead of the
	// branch-free predicated defaults. Both produce identical layouts;
	// the switch exists for the equivalence fuzz targets and the kernel
	// microbenchmarks.
	Branchy bool

	// Stats accumulates kernel partition counters. Resetting it is cheap
	// and does not affect behavior.
	Stats KernelStats
}

// NewPairs returns a Pairs over copies of head and tail. Panics if lengths
// differ.
func NewPairs(head, tail []Value) *Pairs {
	if len(head) != len(tail) {
		panic("crack: head/tail length mismatch")
	}
	h := make([]Value, len(head))
	t := make([]Value, len(tail))
	copy(h, head)
	copy(t, tail)
	return &Pairs{Head: h, Tail: t, Idx: crackindex.New()}
}

// WrapPairs returns a Pairs that takes ownership of head and tail without
// copying.
func WrapPairs(head, tail []Value) *Pairs {
	if len(head) != len(tail) {
		panic("crack: head/tail length mismatch")
	}
	return &Pairs{Head: head, Tail: tail, Idx: crackindex.New()}
}

// Len returns the number of tuples.
func (p *Pairs) Len() int { return len(p.Head) }

func (p *Pairs) swap(i, j int) {
	p.Head[i], p.Head[j] = p.Head[j], p.Head[i]
	p.Tail[i], p.Tail[j] = p.Tail[j], p.Tail[i]
}

// rotate moves the tuple at c to a, the one at a to b and the one at b to c.
func (p *Pairs) rotate(a, b, c int) {
	p.Head[a], p.Head[b], p.Head[c] = p.Head[c], p.Head[a], p.Head[b]
	p.Tail[a], p.Tail[b], p.Tail[c] = p.Tail[c], p.Tail[a], p.Tail[b]
}

// onLeft reports whether value v belongs strictly before boundary b.
func onLeft(v Value, b crackindex.Bound) bool {
	if b.Incl {
		return v < b.V // boundary >= V: left side is < V
	}
	return v <= b.V // boundary > V: left side is <= V
}

// cut returns the exclusive cutoff c with onLeft(v, b) == (v < c), so hot
// partition loops compare against a plain integer instead of re-testing
// b.Incl per tuple. ok is false only for the non-representable boundary
// {MaxInt64, exclusive}, whose left side is the whole domain.
func cut(b crackindex.Bound) (c Value, ok bool) {
	if b.Incl {
		return b.V, true
	}
	if b.V == math.MaxInt64 {
		return 0, false
	}
	return b.V + 1, true
}

// b2v returns 1 for true and 0 for false. The Go compiler lowers this
// pattern to a flag-set instruction, keeping the predicated kernels free of
// data-dependent branches.
func b2v(b bool) Value {
	if b {
		return 1
	}
	return 0
}

// crackInTwo partitions positions [lo, hi) so that all values on the left
// of boundary b precede all values at-or-right of it, returning the split
// position. It dispatches to the branch-free predicated kernel (default)
// or the branchy two-pointer reference (Pairs.Branchy); both execute the
// same cursor state machine and produce identical layouts, which the
// equivalence fuzz targets pin. The result is a deterministic function of
// the piece contents either way. Every peer receives the same swaps (see
// CrackRange).
func (p *Pairs) crackInTwo(b crackindex.Bound, lo, hi int, peers []*Pairs) int {
	p.Stats.InTwo++
	p.Stats.Visited += hi - lo
	c, ok := cut(b)
	if !ok {
		// Non-representable boundary {MaxInt64, exclusive}: every value is
		// on its left; nothing moves and the split is at hi.
		return hi
	}
	var split, moved int
	if p.Branchy {
		split, moved = p.crackInTwoBranchy(c, lo, hi, peers)
	} else {
		split, moved = p.crackInTwoPred(c, lo, hi, peers)
	}
	p.addMoved(peers, moved)
	return split
}

// addMoved charges moved tuple stores to the leader and to every peer: each
// of them stored that many tuples of its own.
func (p *Pairs) addMoved(peers []*Pairs, moved int) {
	p.Stats.Moved += moved
	for _, q := range peers {
		q.Stats.Moved += moved
	}
}

// crackInTwoBranchy is the branchy reference of the count-then-repair
// crack-in-two: a counting pass fixes the split position, then cursor i
// scans the left region for misplaced (>= c) tuples while cursor j scans
// the right region for misplaced (< c) ones, swapping the k-th stall of
// each — every swap puts two tuples in their final region, the minimum
// movement any swap-based partition can achieve. The stall positions and
// their pairing are what crackInTwoPred replicates exactly. It returns the
// split position and the number of tuple stores.
func (p *Pairs) crackInTwoBranchy(c Value, lo, hi int, peers []*Pairs) (int, int) {
	h, t := p.Head, p.Tail
	nL := 0
	for _, v := range h[lo:hi] {
		if v < c {
			nL++
		}
	}
	split := lo + nL
	moved := 0
	i, j := lo, split
	for {
		for i < split && h[i] < c {
			i++
		}
		for j < hi && h[j] >= c {
			j++
		}
		if i == split {
			// Misplaced counts on both sides are equal, so j == hi too.
			break
		}
		h[i], h[j] = h[j], h[i]
		t[i], t[j] = t[j], t[i]
		for _, q := range peers {
			q.swap(i, j)
		}
		moved += 2
		i++
		j++
	}
	return split, moved
}

// predBlock is the compaction block size of the predicated kernels: small
// enough for the index buffers to live in L1, large enough to amortize the
// per-block control branches to noise (one check per predBlock tuples).
const predBlock = 256

// crackInTwoPred is the branch-free predicated crack-in-two: the counting
// pass is a 0/1 accumulation, and the repair phase block-compacts the
// misplaced positions of each region into small index buffers using
// store-always/advance-by-flag compaction, then swaps the paired positions
// unconditionally. No per-tuple branch depends on the data anywhere — the
// classic two-pointer loop mispredicts once per tuple on random data,
// while here the only data-dependent control is one buffer check per
// predBlock tuples. Pairing (k-th misplaced of the left region with the
// k-th of the right) matches crackInTwoBranchy exactly, so layouts and
// stats are identical (fuzz-pinned). Each block's swaps touch only
// positions already classified, so they are applied pair by pair: the
// leader's head and tail, then each peer's.
func (p *Pairs) crackInTwoPred(c Value, lo, hi int, peers []*Pairs) (int, int) {
	h := p.Head
	nL := 0
	for _, v := range h[lo:hi] {
		nL += int(b2v(v < c))
	}
	split := lo + nL
	moved := 0
	var bufI, bufJ [predBlock]int
	i, j := lo, split
	ni, ci, nj, cj := 0, 0, 0, 0
	for {
		if ni == ci {
			ni, ci = 0, 0
			for k := 0; k < predBlock && i < split; k++ {
				bufI[ni] = i
				ni += int(b2v(h[i] >= c))
				i++
			}
		}
		if nj == cj {
			nj, cj = 0, 0
			for k := 0; k < predBlock && j < hi; k++ {
				bufJ[nj] = j
				nj += int(b2v(h[j] < c))
				j++
			}
		}
		sw := min(ni-ci, nj-cj)
		if sw == 0 {
			// Misplaced counts on both sides are equal, so one drained
			// side with an exhausted region means the repair is complete.
			if (i == split && ni == ci) || (j == hi && nj == cj) {
				break
			}
			continue
		}
		a, b := bufI[ci:ci+sw], bufJ[cj:cj+sw]
		swapEach(h, p.Tail, a, b)
		for _, q := range peers {
			swapEach(q.Head, q.Tail, a, b)
		}
		moved += 2 * sw
		ci += sw
		cj += sw
	}
	return split, moved
}

// swapEach exchanges the tuples at a[k] and b[k] of head and tail for
// every k; len(b) >= len(a).
func swapEach[P int | int32](h, t []Value, a, b []P) {
	b = b[:len(a)]
	for k := range a {
		x, y := a[k], b[k]
		h[x], h[y] = h[y], h[x]
		t[x], t[y] = t[y], t[x]
	}
}

// rotateEach moves the tuple at c[k] to a[k], the one at a[k] to b[k] and
// the one at b[k] to c[k], in head and tail, for every k; b and c are at
// least as long as a.
func rotateEach(h, t []Value, a, b, c []int32) {
	b, c = b[:len(a)], c[:len(a)]
	for k := range a {
		x, y, z := a[k], b[k], c[k]
		h[x], h[y], h[z] = h[z], h[x], h[y]
		t[x], t[y], t[z] = t[z], t[x], t[y]
	}
}

// CrackBound ensures a physical boundary for b exists, cracking the piece it
// falls into if necessary, and returns the boundary position. The index is
// updated. A no-op if the boundary already exists. Under a non-default
// Policy, a piece larger than the policy cap is first split at auxiliary
// pivots.
func (p *Pairs) CrackBound(b crackindex.Bound) int {
	p.applyPolicy(b, nil)
	return p.crackBoundAt(b, p.Idx.PieceFor(b, len(p.Head)), nil)
}

// crackBoundAt is CrackBound for a bound whose piece is already located,
// saving the index descent.
func (p *Pairs) crackBoundAt(b crackindex.Bound, pc crackindex.Piece, peers []*Pairs) int {
	if pc.LoExact {
		return pc.Lo
	}
	pos := p.crackInTwo(b, pc.Lo, pc.Hi, peers)
	p.insertBound(peers, b, pos)
	return pos
}

// insertBound records boundary b at pos in the leader's index and in every
// peer's.
func (p *Pairs) insertBound(peers []*Pairs, b crackindex.Bound, pos int) {
	p.Idx.Insert(b, pos)
	for _, q := range peers {
		q.Idx.Insert(b, pos)
	}
}

// crackInThree partitions positions [lo, hi) against both bounds in one
// classification pass: values left of b1, then values in [b1, b2), then
// values at-or-right of b2. Requires b1 <= b2. Returns the two split
// positions.
//
// The kernel is movement-optimal: it first counts the three classes (one
// branch-free pass fixing the split positions), then repairs misplaced
// tuples with direct 2-cycle swaps and 3-cycle rotations, so every
// misplaced tuple is stored exactly once — the information-theoretic
// minimum. Two crack-in-two passes are swap-based and therefore store
// every tuple they move at least once too, over a superset of the
// misplaced tuples, which makes Moved(crack-in-three) <= Moved(two
// crack-in-twos) a theorem rather than an empirical observation
// (TestCrackInThreeMovesNoMoreThanTwoPass pins it).
//
// Like crackInTwo it dispatches between the predicated default and the
// branchy reference, which produce identical layouts, is a deterministic
// function of the piece contents, and gives every peer the same moves.
func (p *Pairs) crackInThree(b1, b2 crackindex.Bound, lo, hi int, peers []*Pairs) (int, int) {
	c1, ok1 := cut(b1)
	c2, ok2 := cut(b2)
	if !ok1 || !ok2 {
		// Unreachable for predicates over real value domains; resolve the
		// non-representable bound as two crack-in-two passes (which keep
		// their own stats).
		lo = p.crackInTwo(b1, lo, hi, peers)
		return lo, p.crackInTwo(b2, lo, hi, peers)
	}
	p.Stats.InThree++
	p.Stats.Visited += hi - lo
	var lt, gt, moved int
	if p.Branchy || hi > math.MaxInt32 {
		// Positions beyond MaxInt32 no longer fit the predicated kernel's
		// int32 buffers; the branchy reference produces the identical
		// layout.
		lt, gt, moved = p.crackInThreeBranchy(c1, c2, lo, hi, peers)
	} else {
		lt, gt, moved = p.crackInThreePred(c1, c2, lo, hi, peers)
	}
	p.addMoved(peers, moved)
	return lt, gt
}

// crackInThreeBranchy is the branchy reference of the count-then-permute
// crack-in-three. The counting pass fixes the final regions A=[lo,lt),
// B=[lt,gt), C=[gt,hi); repair then runs three greedy 2-cycle phases —
// M-in-A with L-in-B, R-in-A with L-in-C, R-in-B with M-in-C, each a
// pairwise swap of the k-th misplaced tuple of one region with the k-th
// matching one of the other — and finishes the leftovers, which class
// conservation forces into 3-cycles of a single orientation (one tuple per
// region), with three-way rotations. Every misplaced tuple is written
// exactly once: the minimum movement any correct partition can achieve.
// The phase order and pairing are what crackInThreePred replicates. It
// returns the split positions and the number of tuple stores.
func (p *Pairs) crackInThreeBranchy(c1, c2 Value, lo, hi int, peers []*Pairs) (int, int, int) {
	h, t := p.Head, p.Tail
	nL, nM := 0, 0
	for _, v := range h[lo:hi] {
		if v < c1 {
			nL++
		} else if v < c2 {
			nM++
		}
	}
	lt, gt := lo+nL, lo+nL+nM
	moved := 0
	swap := func(i, j int) {
		h[i], h[j] = h[j], h[i]
		t[i], t[j] = t[j], t[i]
		for _, q := range peers {
			q.swap(i, j)
		}
		moved += 2
	}

	// Phase 1: 2-cycles M-in-A <-> L-in-B.
	i, j := lo, lt
	for {
		for i < lt && !(h[i] >= c1 && h[i] < c2) {
			i++
		}
		for j < gt && h[j] >= c1 {
			j++
		}
		if i == lt || j == gt {
			break
		}
		swap(i, j)
		i++
		j++
	}
	// Phase 2: 2-cycles R-in-A <-> L-in-C.
	i, j = lo, gt
	for {
		for i < lt && h[i] < c2 {
			i++
		}
		for j < hi && h[j] >= c1 {
			j++
		}
		if i == lt || j == hi {
			break
		}
		swap(i, j)
		i++
		j++
	}
	// Phase 3: 2-cycles R-in-B <-> M-in-C.
	i, j = lt, gt
	for {
		for i < gt && h[i] < c2 {
			i++
		}
		for j < hi && !(h[j] >= c1 && h[j] < c2) {
			j++
		}
		if i == gt || j == hi {
			break
		}
		swap(i, j)
		i++
		j++
	}
	// Phase 4: leftover 3-cycles, all of one orientation (each has exactly
	// one tuple per region; a's class decides the rotation direction).
	a, b, c := lo, lt, gt
	for {
		for a < lt && h[a] < c1 {
			a++
		}
		for b < gt && h[b] >= c1 && h[b] < c2 {
			b++
		}
		for c < hi && h[c] >= c2 {
			c++
		}
		if a == lt || b == gt || c == hi {
			break
		}
		// M@a, R@b, L@c rotates a<-c, b<-a, c<-b; R@a, L@b, M@c rotates
		// a<-b, b<-c, c<-a, the same cycle with b and c exchanged.
		x, y, z := a, b, c
		if h[a] >= c2 {
			y, z = c, b
		}
		p.rotate(x, y, z)
		for _, q := range peers {
			q.rotate(x, y, z)
		}
		moved += 3
		a++
		b++
		c++
	}
	return lt, gt, moved
}

// threeScratch pools the position-buffer scratch of crackInThreePred
// (sized 2*piece+6 int32s), so repeated cold cracks allocate once per size
// high-water mark instead of per call. Cracks run under their structure's
// write lock, but independent structures (shards, map sets) crack in
// parallel, hence a pool rather than a global.
var threeScratch = sync.Pool{New: func() any { return new([]int32) }}

// threeSchedule is the move schedule of one predicated crack-in-three: the
// scan-order positions of the misplaced tuples per (region, class), and the
// 2-cycle counts of the three swap phases. Applying it to a (head, tail)
// pair performs the crack's permutation on that pair.
type threeSchedule struct {
	am, ar, bl, br, cl, cm []int32 // misplaced positions, e.g. am = M-class tuples in region A
	s1, s2, s3             int     // 2-cycles of phases M-in-A/L-in-B, R-in-A/L-in-C, R-in-B/M-in-C
}

// apply permutes head and tail by the schedule: the three greedy 2-cycle
// phases, then the leftover 3-cycles, whose buffer tails are still in scan
// order, matching the branchy phase 4.
func (s *threeSchedule) apply(h, t []Value) {
	swapEach(h, t, s.am[:s.s1], s.bl)
	swapEach(h, t, s.ar[:s.s2], s.cl)
	swapEach(h, t, s.br[:s.s3], s.cm)
	rotateEach(h, t, s.am[s.s1:], s.br[s.s3:], s.cl[s.s2:]) // M@a, R@b, L@c: a<-c, b<-a, c<-b
	rotateEach(h, t, s.ar[s.s2:], s.cm[s.s3:], s.bl[s.s1:]) // R@a, L@b, M@c: a<-b, b<-c, c<-a
}

// moved is the number of tuple stores the schedule performs on a pair.
func (s *threeSchedule) moved() int {
	return 2*(s.s1+s.s2+s.s3) + 3*(len(s.am)-s.s1+len(s.ar)-s.s2)
}

// crackInThreePred is the branch-free predicated crack-in-three: the same
// counting pass and repair phases as crackInThreeBranchy, but each region
// is scanned exactly once, compacting the positions of its two misplaced
// classes into index buffers with store-always/advance-by-flag compaction
// (no data-dependent branch). The phase swap counts then follow from the
// buffer lengths by arithmetic, and every swap and rotation is applied
// unconditionally from the buffers. Pairing is scan-order on both sides of
// every phase — exactly crackInThreeBranchy's — so layouts and stats are
// identical (fuzz-pinned). Classification reads only the leader's head, so
// the finished schedule is applied pair by pair: the leader's head and
// tail, then each peer's. Requires hi <= MaxInt32.
func (p *Pairs) crackInThreePred(c1, c2 Value, lo, hi int, peers []*Pairs) (int, int, int) {
	h := p.Head
	nL, nM := 0, 0
	for _, v := range h[lo:hi] {
		nL += int(b2v(v < c1))
		nM += int(b2v(v >= c1) & b2v(v < c2))
	}
	lt, gt := lo+nL, lo+nL+nM

	// Per-class position buffers, sliced out of one pooled scratch. Each
	// region needs capacity region-size+1 per class (store-always writes
	// one slot past the final count).
	aCap, bCap, cCap := lt-lo+1, gt-lt+1, hi-gt+1
	sp := threeScratch.Get().(*[]int32)
	if need := 2 * (aCap + bCap + cCap); cap(*sp) < need {
		*sp = make([]int32, need)
	}
	s := *sp
	bufAM, s := s[:aCap], s[aCap:]
	bufAR, s := s[:aCap], s[aCap:]
	bufBL, s := s[:bCap], s[bCap:]
	bufBR, s := s[:bCap], s[bCap:]
	bufCL, s := s[:cCap], s[cCap:]
	bufCM := s[:cCap]

	nAM, nAR := 0, 0
	for i := lo; i < lt; i++ {
		v := h[i]
		bufAM[nAM] = int32(i)
		nAM += int(b2v(v >= c1) & b2v(v < c2))
		bufAR[nAR] = int32(i)
		nAR += int(b2v(v >= c2))
	}
	nBL, nBR := 0, 0
	for i := lt; i < gt; i++ {
		v := h[i]
		bufBL[nBL] = int32(i)
		nBL += int(b2v(v < c1))
		bufBR[nBR] = int32(i)
		nBR += int(b2v(v >= c2))
	}
	nCL, nCM := 0, 0
	for i := gt; i < hi; i++ {
		v := h[i]
		bufCL[nCL] = int32(i)
		nCL += int(b2v(v < c1))
		bufCM[nCM] = int32(i)
		nCM += int(b2v(v >= c1) & b2v(v < c2))
	}

	sch := threeSchedule{
		am: bufAM[:nAM], ar: bufAR[:nAR], bl: bufBL[:nBL],
		br: bufBR[:nBR], cl: bufCL[:nCL], cm: bufCM[:nCM],
		s1: min(nAM, nBL), s2: min(nAR, nCL), s3: min(nBR, nCM),
	}
	sch.apply(h, p.Tail)
	for _, q := range peers {
		sch.apply(q.Head, q.Tail)
	}
	threeScratch.Put(sp)
	return lt, gt, sch.moved()
}

// CrackRange physically reorganizes the pairs so that all tuples matching
// pred occupy the contiguous area [lo, hi), which is returned. This is the
// core of operator sideways.select steps (4)-(6) and of crackers.select.
//
// When both bounds of pred fall into the same uncracked piece (always the
// case on a cold column), the piece is partitioned against both bounds in
// one crack-in-three pass; otherwise each bound cracks its own piece in
// two. The path choice depends only on the index state, so it is identical
// across maps replaying the same operation sequence.
//
// Peers are pairs aligned with p: the same head values in the same order,
// the same index boundaries and the same Policy, as maps of one sideways set
// are after replaying the same tape prefix. Only p's head is classified;
// every swap, rotation, auxiliary pivot and index boundary it produces is
// mirrored onto each peer's head, tail and index, so each peer ends up
// byte-identical to cracking it alone, at the cost of moving its tuples
// without classifying them. Peers' Stats count only what changed in them
// (see KernelStats). A peer that is p itself, repeated, or visibly not
// aligned (length or policy) panics.
func (p *Pairs) CrackRange(pred store.Pred, peers ...*Pairs) (lo, hi int) {
	p.checkPeers(peers)
	b1, b2 := pred.LowerBound(), pred.UpperBound()
	if p.Policy.Kind != Default {
		// Pre-split oversized target pieces at auxiliary policy pivots.
		// This runs before the path choice below, so the choice stays a
		// deterministic function of (index state, policy) and aligned maps
		// replaying the same sequence keep identical layouts.
		p.applyPolicy(b1, peers)
		p.applyPolicy(b2, peers)
	}
	if b1.Less(b2) {
		pc := p.Idx.PieceFor(b1, len(p.Head))
		if !pc.LoExact && (!pc.HasHiB || b2.Less(pc.HiBound)) {
			lo, hi = p.crackInThree(b1, b2, pc.Lo, pc.Hi, peers)
			p.insertBound(peers, b1, lo)
			p.insertBound(peers, b2, hi)
			return lo, hi
		}
		lo = p.crackBoundAt(b1, pc, peers) // reuse the descent the probe already paid
	} else {
		lo = p.crackBoundAt(b1, p.Idx.PieceFor(b1, len(p.Head)), peers)
	}
	hi = p.crackBoundAt(b2, p.Idx.PieceFor(b2, len(p.Head)), peers)
	if hi < lo {
		// Possible only for empty predicates (e.g. lo > hi); normalize.
		hi = lo
	}
	return lo, hi
}

// checkPeers panics on peers CrackRange cannot mirror onto: p itself, a
// repeated peer (either would receive every move twice), or a peer whose
// length or policy differs from p's. Head order and index boundaries are
// the caller's contract; checking them would cost the pass peers save.
func (p *Pairs) checkPeers(peers []*Pairs) {
	for i, q := range peers {
		if q == p || len(q.Head) != len(p.Head) || q.Policy != p.Policy {
			panic("crack: CrackRange peer is the leader or not aligned with it")
		}
		for _, r := range peers[:i] {
			if r == q {
				panic("crack: CrackRange peer repeated")
			}
		}
	}
}

// Area is the read-only lookup behind SelectRO and QueryRO: if both
// bounds of pred already exist as live boundaries, the qualifying area
// [lo, hi) can be read without any physical reorganization and ok is
// true. When ok is false, answering pred requires CrackRange (a write).
func (p *Pairs) Area(pred store.Pred) (lo, hi int, ok bool) {
	lo, ok1 := p.Idx.Lookup(pred.LowerBound())
	hi, ok2 := p.Idx.Lookup(pred.UpperBound())
	if !ok1 || !ok2 {
		return 0, 0, false
	}
	if hi < lo {
		hi = lo
	}
	return lo, hi, true
}

// RippleInsert inserts the tuple (v, t) into the piece where v belongs,
// shifting one boundary tuple per subsequent piece (the Ripple algorithm of
// SIGMOD 2007). The column grows by one; index positions are adjusted.
// The placement is deterministic: the new tuple lands at the position of
// the first boundary whose left side v belongs to (i.e. at the end of its
// piece), and exactly those boundaries shift right by one.
func (p *Pairs) RippleInsert(v, t Value) {
	// Boundaries that must end up after the new tuple are exactly those b
	// with onLeft(v, b). Walk yields them in ascending order; they form a
	// suffix of the boundary sequence.
	type bpos struct {
		b   crackindex.Bound
		pos int
	}
	var bps []bpos
	p.Idx.Walk(func(b crackindex.Bound, pos int) {
		if onLeft(v, b) {
			bps = append(bps, bpos{b, pos})
		}
	})
	p.Head = append(p.Head, 0)
	p.Tail = append(p.Tail, 0)
	hole := len(p.Head) - 1
	for i := len(bps) - 1; i >= 0; i-- {
		bp := bps[i].pos
		if bp != hole {
			p.Head[hole], p.Tail[hole] = p.Head[bp], p.Tail[bp]
			hole = bp
		}
	}
	p.Head[hole], p.Tail[hole] = v, t
	for _, e := range bps {
		p.Idx.Insert(e.b, e.pos+1)
	}
}

// RippleInsertBatch inserts all tuples (vals[i], tails[i]) as if
// RippleInsert were called for each in order, but in a single pass: one
// index walk to collect boundaries, one target search per tuple, one
// piece-wise reshuffle of the arrays, and one bulk boundary shift. The
// resulting layout is exactly the layout the equivalent sequence of
// RippleInsert calls produces, so tape replays may use either form without
// breaking alignment determinism.
func (p *Pairs) RippleInsertBatch(vals, tails []Value) {
	if len(vals) != len(tails) {
		panic("crack: RippleInsertBatch vals/tails length mismatch")
	}
	m := len(vals)
	if m == 0 {
		return
	}
	if m == 1 {
		p.RippleInsert(vals[0], tails[0])
		return
	}
	type bpos struct {
		b   crackindex.Bound
		pos int
	}
	var bps []bpos
	p.Idx.Walk(func(b crackindex.Bound, pos int) { bps = append(bps, bpos{b, pos}) })
	nb := len(bps)
	if nb == 0 {
		p.Head = append(p.Head, vals...)
		p.Tail = append(p.Tail, tails...)
		return
	}
	// target[i] is the first boundary whose left side vals[i] belongs to
	// (nb when it belongs after all boundaries): the tuple lands at the end
	// of piece target[i] and exactly boundaries target[i].. shift right.
	// onLeft(v, ·) is monotone along the boundary order, so binary search
	// applies.
	targets := make([]int, m)
	shift := make([]int, nb+1) // after prefix-summing: #inserts with target <= k
	for i, v := range vals {
		t := sort.Search(nb, func(k int) bool { return onLeft(v, bps[k].b) })
		targets[i] = t
		shift[t]++
	}
	for k := 1; k <= nb; k++ {
		shift[k] += shift[k-1]
	}
	n := len(p.Head)
	p.Head = append(p.Head, make([]Value, m)...)
	p.Tail = append(p.Tail, make([]Value, m)...)

	// Rebuild affected pieces from the top down. Sequential ripple inserts
	// act on piece k (positions [bps[k-1].pos, bps[k].pos)) as a queue: an
	// insert targeting k appends its tuple; an insert targeting a lower
	// piece rotates the piece's current first tuple to its end (one tuple
	// per shifted boundary). Replaying those events in arrival order per
	// piece reproduces the sequential layout exactly.
	appH := make([]Value, 0, m)
	appT := make([]Value, 0, m)
	for k := nb; k >= 0; k-- {
		if shift[k] == 0 {
			break // no inserts land at or below piece k: untouched
		}
		start, end := 0, n
		if k > 0 {
			start = bps[k-1].pos
		}
		if k < nb {
			end = bps[k].pos
		}
		sBefore := 0
		if k > 0 {
			sBefore = shift[k-1]
		}
		appH, appT = appH[:0], appT[:0]
		front := start // old-array index of the piece's current first tuple
		pop := 0       // consumed prefix of the appended queue
		for i := 0; i < m; i++ {
			switch {
			case targets[i] == k:
				appH = append(appH, vals[i])
				appT = append(appT, tails[i])
			case targets[i] < k:
				if front < end {
					appH = append(appH, p.Head[front])
					appT = append(appT, p.Tail[front])
					front++
				} else if pop < len(appH) {
					appH = append(appH, appH[pop])
					appT = append(appT, appT[pop])
					pop++
				}
				// else: the piece is empty; nothing rotates.
			}
		}
		// Surviving originals keep their order, then the appended queue.
		newStart := start + sBefore
		origLen := end - front
		copy(p.Head[newStart:newStart+origLen], p.Head[front:end])
		copy(p.Tail[newStart:newStart+origLen], p.Tail[front:end])
		copy(p.Head[newStart+origLen:end+shift[k]], appH[pop:])
		copy(p.Tail[newStart+origLen:end+shift[k]], appT[pop:])
	}
	k := 0
	p.Idx.Reposition(func(b crackindex.Bound, pos int) int {
		d := shift[k]
		k++
		return pos + d
	})
}

// RippleInsertKeys batch-merges the tuples with the given base keys: head
// values come from headCol, tails from tailCol, or the keys themselves when
// tailCol is nil (key maps). Shared by the sideways and partial replay
// tapes so their insert entries stay byte-identical.
func (p *Pairs) RippleInsertKeys(keys []int, headCol, tailCol *store.Column) {
	vals := make([]Value, len(keys))
	tails := make([]Value, len(keys))
	for i, k := range keys {
		vals[i] = headCol.Vals[k]
		if tailCol != nil {
			tails[i] = tailCol.Vals[k]
		} else {
			tails[i] = Value(k)
		}
	}
	p.RippleInsertBatch(vals, tails)
}

// RippleDelete removes the tuple at position pos by rippling the hole to
// the end of the column: the last tuple of the hole's piece fills the hole,
// every subsequent boundary shifts left by one (its piece donates its last
// tuple to the hole it inherits), and the column shrinks by one. Only one
// tuple per downstream piece moves, versus the full-suffix compaction of
// RemovePositions. This is the per-tuple reference for RippleDeleteBatch.
func (p *Pairs) RippleDelete(pos int) {
	n := len(p.Head)
	type bpos struct {
		b crackindex.Bound
		p int
	}
	var bps []bpos
	p.Idx.Walk(func(b crackindex.Bound, bp int) {
		if bp > pos {
			bps = append(bps, bpos{b, bp})
		}
	})
	hole := pos
	for _, e := range bps {
		last := e.p - 1
		if hole != last {
			p.Head[hole], p.Tail[hole] = p.Head[last], p.Tail[last]
		}
		hole = last
	}
	if hole != n-1 {
		p.Head[hole], p.Tail[hole] = p.Head[n-1], p.Tail[n-1]
	}
	p.Head = p.Head[:n-1]
	p.Tail = p.Tail[:n-1]
	for _, e := range bps {
		p.Idx.Insert(e.b, e.p-1)
	}
}

// RippleDeleteBatch removes the tuples at the given positions (ascending,
// duplicate-free, valid against the current layout) in a single pass: one
// index walk, one fill-from-the-end sweep per affected piece, and one bulk
// boundary shift. It produces exactly the layout that per-tuple
// RippleDelete calls produce when applied from the highest position down
// (the order in which every position stays valid), so replay tapes can use
// either form without breaking alignment determinism. It is the delete-side
// counterpart of RippleInsertBatch.
func (p *Pairs) RippleDeleteBatch(positions []int) {
	m := len(positions)
	if m == 0 {
		return
	}
	if m == 1 {
		p.RippleDelete(positions[0])
		return
	}
	n := len(p.Head)
	type bpos struct {
		b crackindex.Bound
		p int
	}
	var bps []bpos
	p.Idx.Walk(func(b crackindex.Bound, bp int) { bps = append(bps, bpos{b, bp}) })
	nb := len(bps)
	h, t := p.Head, p.Tail
	// Sequential highest-first semantics decompose per piece: a piece first
	// absorbs its own deletions (each hole filled by the piece's current
	// last tuple), then rotates right once per deletion in an earlier piece
	// (it donates its last tuple to the piece below and inherits a slot).
	// "before" counts deletions in earlier pieces; di scans positions.
	di, before := 0, 0
	for k := 0; k <= nb; k++ {
		s, e := 0, n
		if k > 0 {
			s = bps[k-1].p
		}
		if k < nb {
			e = bps[k].p
		}
		ownStart := di
		for di < m && positions[di] < e {
			di++
		}
		own := positions[ownStart:di]
		if before == 0 && len(own) == 0 {
			continue
		}
		end := e
		for i := len(own) - 1; i >= 0; i-- {
			end--
			if d := own[i]; d != end {
				h[d], t[d] = h[end], t[end]
			}
		}
		if before > 0 {
			sz := end - s
			ns := s - before
			if sz > 0 {
				r := before % sz
				copy(h[ns:ns+r], h[end-r:end])
				copy(t[ns:ns+r], t[end-r:end])
				if before >= sz {
					// Every survivor moves: the rotated tail block lands
					// first, then the untouched prefix follows it.
					copy(h[ns+r:ns+sz], h[s:end-r])
					copy(t[ns+r:ns+sz], t[s:end-r])
				}
				// before < sz: only the tail block moved into the front
				// gap; the middle [s, end-r) already sits at its final
				// positions.
			}
		}
		before += len(own)
	}
	p.Head = h[:n-m]
	p.Tail = t[:n-m]
	p.Idx.Reposition(func(b crackindex.Bound, pos int) int {
		return pos - sort.SearchInts(positions, pos)
	})
}

// RemovePositions deletes the tuples at the given positions (ascending,
// duplicate-free) and compacts the arrays, shifting index boundaries left.
func (p *Pairs) RemovePositions(positions []int) {
	if len(positions) == 0 {
		return
	}
	del := 0
	next := 0
	out := 0
	for i := 0; i < len(p.Head); i++ {
		if next < len(positions) && positions[next] == i {
			next++
			del++
			continue
		}
		if out != i {
			p.Head[out], p.Tail[out] = p.Head[i], p.Tail[i]
		}
		out++
	}
	p.Head = p.Head[:out]
	p.Tail = p.Tail[:out]
	// Re-position every boundary: subtract the number of deleted positions
	// before it.
	p.Idx.Reposition(func(b crackindex.Bound, pos int) int {
		return pos - sort.SearchInts(positions, pos)
	})
}

// CheckPieces verifies that every index boundary holds physically: values
// before a boundary are on its left side, values at or after are not.
// Returns false at the first violation. Used by tests and property checks.
func (p *Pairs) CheckPieces() bool {
	ok := true
	p.Idx.Walk(func(b crackindex.Bound, pos int) {
		for i := 0; i < pos && ok; i++ {
			if !onLeft(p.Head[i], b) {
				ok = false
			}
		}
		for i := pos; i < len(p.Head) && ok; i++ {
			if onLeft(p.Head[i], b) {
				ok = false
			}
		}
	})
	return ok
}
