package sideways

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"crackstore/internal/crack"
	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// FuzzAlignedReplay drives one store that replays maps at the same tape
// cursor as a group (one classification per group) and a reference store
// that replays every map alone, through the same fuzzer-chosen sequence:
// queries over random subsets of the tail attributes (none, so the key map
// answers, up to all four), with and without a second predicate, some
// disjunctive, plus inserts and deletes. It runs under the Default,
// Stochastic and Capped policies, with and without EagerAlignment. After
// every step both stores must hold the same sets, tapes and maps (cursor,
// head, tail and index boundaries), and every answer — write path and
// read-only path — must be identical, order included.
func FuzzAlignedReplay(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 10, 40, 8, 15, 20, 30, 5, 7, 1, 9, 0, 0, 50, 20})
	f.Add(int64(2), []byte{16, 1, 0, 90, 40, 6, 33, 2, 15, 70, 10, 13, 5, 5, 5, 2, 12, 0})
	f.Add(int64(3), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20})
	f.Add(int64(4), []byte{6, 6, 6, 0, 15, 0, 99, 5, 1, 2, 0, 9, 15, 30, 60, 8, 14, 22, 44, 7})
	f.Add(int64(5), []byte{})
	// A merged delete, then an insert, each replayed by two grouped maps.
	f.Add(int64(56), []byte("&181xB"))
	f.Add(int64(6), []byte{8, 0x31, 20, 5, 5, 30, 30, 30, 30, 30, 8, 0x31, 20, 39})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 240 {
			ops = ops[:240]
		}
		policies := []crack.Policy{
			{},
			{Kind: crack.Stochastic, Cap: 16, Seed: uint64(seed)},
			{Kind: crack.Capped, Cap: 16},
		}
		for _, pol := range policies {
			for _, eager := range []bool{false, true} {
				alignedReplay(t, seed, ops, pol, eager)
			}
		}
	})
}

var fuzzAttrs = []string{"A", "B", "C", "D", "E"}

const fuzzDomain = 100

func alignedReplay(t *testing.T, seed int64, ops []byte, pol crack.Policy, eager bool) {
	t.Helper()
	mk := func(alone bool) *Store {
		rel := buildRel(rand.New(rand.NewSource(seed)), 200, fuzzAttrs, fuzzDomain)
		s := NewStore(rel)
		s.Policy = pol
		s.EagerAlignment = eager
		s.alignAlone = alone
		return s
	}
	got, ref := mk(false), mk(true)
	ctx := fmt.Sprintf("%v eager=%v", pol.Kind, eager)
	for step := 0; len(ops) > 0; step++ {
		op := ops[0]
		ops = ops[1:]
		arg := func() Value {
			if len(ops) == 0 {
				return 0
			}
			v := Value(ops[0])
			ops = ops[1:]
			return v
		}
		switch op % 8 {
		case 5:
			vals := make([]Value, len(fuzzAttrs))
			for i := range vals {
				vals[i] = (arg() + Value(i*7)) % fuzzDomain
			}
			got.Insert(vals...)
			ref.Insert(vals...)
		case 6:
			k := int(arg()) * 3 % got.rel.NumRows()
			got.Delete(k)
			ref.Delete(k)
		default:
			head := fuzzAttrs[int(op>>3)%2]
			var tails []string
			mask := arg()
			for i, a := range fuzzAttrs {
				if a != head && mask&(1<<i) != 0 {
					tails = append(tails, a)
				}
			}
			lo := arg() % fuzzDomain
			preds := []AttrPred{{Attr: head, Pred: store.Range(lo, lo+arg()%40)}}
			if op&0x40 != 0 && len(tails) > 0 {
				lo2 := arg() % fuzzDomain
				preds = append(preds, AttrPred{Attr: tails[0], Pred: store.Range(lo2, lo2+50)})
			}
			disj := op&0x80 != 0
			q := fmt.Sprintf("step %d %s: %v projs %v disj=%v", step, ctx, preds, tails, disj)
			sameResult(t, q, got.MultiSelect(preds, tails, disj), ref.MultiSelect(preds, tails, disj))
			gres, gok := got.MultiSelectRO(preds, tails, disj)
			rres, rok := ref.MultiSelectRO(preds, tails, disj)
			if gok != rok {
				t.Fatalf("%s: read-only ok=%v, reference %v", q, gok, rok)
			}
			sameResult(t, q+" (read-only)", gres, rres)
		}
		sameStores(t, fmt.Sprintf("step %d %s", step, ctx), got, ref)
	}
}

func sameResult(t *testing.T, ctx string, got, want Result) {
	t.Helper()
	if got.N != want.N || len(got.Cols) != len(want.Cols) {
		t.Fatalf("%s: %d rows in %d columns, reference %d in %d", ctx, got.N, len(got.Cols), want.N, len(want.Cols))
	}
	for attr, col := range want.Cols {
		if !slices.Equal(got.Cols[attr], col) {
			t.Fatalf("%s: column %s differs from the reference", ctx, attr)
		}
	}
}

func sameStores(t *testing.T, ctx string, got, ref *Store) {
	t.Helper()
	if len(got.sets) != len(ref.sets) {
		t.Fatalf("%s: %d sets, reference %d", ctx, len(got.sets), len(ref.sets))
	}
	for attr, gs := range got.sets {
		rs := ref.sets[attr]
		if rs == nil || len(gs.tape) != len(rs.tape) || len(gs.maps) != len(rs.maps) {
			t.Fatalf("%s: set %s differs from the reference in tape or maps", ctx, attr)
		}
		sameMap(t, ctx+" set "+attr+" key map", gs.keyMap, rs.keyMap)
		for tail, gm := range gs.maps {
			sameMap(t, ctx+" map "+attr+tail, gm, rs.maps[tail])
		}
	}
}

func sameMap(t *testing.T, ctx string, got, ref *Map) {
	t.Helper()
	if got == nil || ref == nil {
		if got != ref {
			t.Fatalf("%s: exists on one side only", ctx)
		}
		return
	}
	if got.cursor != ref.cursor || !slices.Equal(got.pairs.Head, ref.pairs.Head) ||
		!slices.Equal(got.pairs.Tail, ref.pairs.Tail) || !slices.Equal(bounds(got), bounds(ref)) {
		t.Fatalf("%s: cursor, head, tail or index differs from the reference (cursor %d vs %d)", ctx, got.cursor, ref.cursor)
	}
}

type boundAt struct {
	b   crackindex.Bound
	pos int
}

func bounds(m *Map) []boundAt {
	var out []boundAt
	m.pairs.Idx.Walk(func(b crackindex.Bound, pos int) { out = append(out, boundAt{b, pos}) })
	return out
}
