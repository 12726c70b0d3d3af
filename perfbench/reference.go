package main

import (
	"fmt"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// reference answers range queries on A from prefix sums over the value
// domain: a counting sort of A that carries the projected columns along.
// It shares no code with the engines, so it can check their answers.
// Values of A must lie in [1, domain].
type reference struct {
	cnt  []int64   // cnt[v] = rows with A < v
	sums [][]int64 // sums[p][v] = sum of projection p over rows with A < v
}

func newReference(domain int64, a []int64, proj ...[]int64) *reference {
	r := &reference{cnt: make([]int64, domain+2), sums: make([][]int64, len(proj))}
	for p := range proj {
		r.sums[p] = make([]int64, domain+2)
	}
	for i, v := range a {
		r.cnt[v+1]++
		for p, col := range proj {
			r.sums[p][v+1] += col[i]
		}
	}
	for v := 1; v < len(r.cnt); v++ {
		r.cnt[v] += r.cnt[v-1]
		for _, s := range r.sums {
			s[v] += s[v-1]
		}
	}
	return r
}

// answer is the count and per-projection sums of one range query.
type answer struct {
	n    int
	sums [2]int64
}

// expect returns the reference answer for pred.
func (r *reference) expect(pred store.Pred) answer {
	first, last := pred.Lo, pred.Hi // the qualifying values, inclusive
	if !pred.LoIncl {
		first++
	}
	if !pred.HiIncl {
		last--
	}
	top := int64(len(r.cnt) - 2)
	if first < 1 {
		first = 1
	}
	if last > top {
		last = top
	}
	if first > last {
		return answer{}
	}
	ans := answer{n: int(r.cnt[last+1] - r.cnt[first])}
	for p, s := range r.sums {
		ans.sums[p] = s[last+1] - s[first]
	}
	return ans
}

// answerOf summarises an engine result over the given projections.
func answerOf(res engine.Result, projs []string) answer {
	ans := answer{n: res.N}
	for p, attr := range projs {
		col := res.Cols[attr]
		if len(col) != res.N {
			ans.n = -1 // misaligned projection: never equal to a reference
		}
		for _, v := range col {
			ans.sums[p] += v
		}
	}
	return ans
}

// rowLog is the set of rows a store must hold after a run: the seed
// relation plus acknowledged inserts minus acknowledged deletes.
type rowLog struct {
	a, b, c []int64
}

// seedRows copies the first n rows of rel: the seed, before any insert
// appended to its columns.
func seedRows(rel *store.Relation, n int) *rowLog {
	return &rowLog{
		a: append([]int64(nil), rel.MustColumn("A").Vals[:n]...),
		b: append([]int64(nil), rel.MustColumn("B").Vals[:n]...),
		c: append([]int64(nil), rel.MustColumn("C").Vals[:n]...),
	}
}

// ackedRow is one acknowledged insert; dead is set once its delete was
// acknowledged.
type ackedRow struct {
	key     int
	a, b, c int64
	dead    bool
}

func (l *rowLog) apply(rows []ackedRow) {
	for _, r := range rows {
		if !r.dead {
			l.a = append(l.a, r.a)
			l.b = append(l.b, r.b)
			l.c = append(l.c, r.c)
		}
	}
}

// verifyStore queries a full partition of [1, hi) on A plus the pool
// ranges through ask and compares count and sum(B) with the reference.
// Because the partition covers every value an insert can carry, a lost,
// duplicated or resurrected row changes some range's answer. It returns
// the number of queries asked and the mismatches found.
func verifyStore(ref *reference, pool []store.Pred, hi int64, parts int,
	ask func(store.Pred) (engine.Result, error)) (asked, bad int, firstErr error) {
	preds := make([]store.Pred, 0, parts+len(pool))
	step := (hi + int64(parts) - 1) / int64(parts)
	for lo := int64(1); lo < hi; lo += step {
		preds = append(preds, store.Range(lo, lo+step))
	}
	preds = append(preds, pool...)
	for _, p := range preds {
		asked++
		res, err := ask(p)
		if err != nil {
			bad++
			if firstErr == nil {
				firstErr = err
			}
			continue
		}
		if got, want := answerOf(res, []string{"B"}), ref.expect(p); got.n != want.n || got.sums[0] != want.sums[0] {
			bad++
			if firstErr == nil {
				firstErr = fmt.Errorf("range %v: got n=%d sum=%d, want n=%d sum=%d", p, got.n, got.sums[0], want.n, want.sums[0])
			}
		}
	}
	return asked, bad, firstErr
}
