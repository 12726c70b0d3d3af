package engine

import (
	"math/rand"
	"sync"
	"testing"
	"testing/quick"

	"crackstore/internal/store"
)

func TestKindStrings(t *testing.T) {
	want := map[Kind]string{
		Scan: "scan", SelCrack: "selcrack", Presorted: "presorted",
		Sideways: "sideways", PartialSideways: "partial", RowStore: "rowstore",
		Kind(42): "unknown",
	}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", k, k.String(), s)
		}
	}
}

func TestNamesAndNoopPrepare(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(1)), 50, []string{"A", "B"}, 10)
	for _, k := range []Kind{Scan, SelCrack, Sideways, PartialSideways} {
		e := New(k, cloneRel(rel))
		if e.Name() == "" {
			t.Errorf("%v: empty name", k)
		}
		if d := e.Prepare("A"); d != 0 {
			t.Errorf("%v: Prepare should be a no-op, took %v", k, d)
		}
	}
}

// TestAbsentKeyDeleteIsNoop: deletes of keys that name no row change
// nothing on any writable engine. Answers stay the same, a query that
// QueryRO answered before 200 such deletes it still answers after them,
// and a row inserted later under one of those keys is live.
func TestAbsentKeyDeleteIsNoop(t *testing.T) {
	const rows = 1000
	rel := buildRel(rand.New(rand.NewSource(3)), rows, []string{"A", "B"}, 500)
	q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(100, 200)}}, Projs: []string{"B"}}
	engines := map[string]Engine{"snapshot": Snapshot(New(SelCrack, cloneRel(rel)))}
	for _, k := range allKinds() {
		engines[k.String()] = New(k, cloneRel(rel))
	}
	same := func(res Result, want []string) bool {
		got := canonRows(res, q.Projs)
		if len(got) != len(want) {
			return false
		}
		for i := range want {
			if got[i] != want[i] {
				return false
			}
		}
		return true
	}
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			res, _ := e.Query(q)
			want := canonRows(res, q.Projs)
			_, _, roBefore := e.QueryRO(q)
			if name == "snapshot" && !roBefore {
				t.Fatal("QueryRO refused a warm query")
			}
			for i := 0; i < 200; i++ {
				if i%2 == 0 {
					e.Delete(rows + 37*i)
				} else {
					e.Delete(-i)
				}
			}
			if roBefore {
				res, _, ok := e.QueryRO(q)
				if !ok || !same(res, want) {
					t.Fatalf("QueryRO after absent-key deletes: ok=%v, %d rows, want %d", ok, res.N, len(want))
				}
			}
			if res, _ := e.Query(q); !same(res, want) {
				t.Fatalf("Query after absent-key deletes: %d rows, want %d", res.N, len(want))
			}
			// Key rows was deleted while it named no row.
			if key := e.Insert(150, 7); key != rows {
				t.Fatalf("Insert returned key %d, want %d", key, rows)
			}
			if res, _ := e.Query(q); res.N != len(want)+1 {
				t.Fatalf("row inserted under a once-deleted absent key: %d rows, want %d", res.N, len(want)+1)
			}
		})
	}
}

func TestRowStoreEngineAgreesWithScan(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	rel := buildRel(rng, 300, []string{"A", "B", "C"}, 50)
	scan := New(Scan, cloneRel(rel))
	rs := New(RowStore, cloneRel(rel))
	rs.Prepare("A")
	for q := 0; q < 20; q++ {
		lo := rng.Int63n(50)
		query := Query{
			Preds: []AttrPred{
				{Attr: "A", Pred: store.Range(lo, lo+15)},
				{Attr: "B", Pred: store.Range(5, 40)},
			},
			Projs:       []string{"C"},
			Disjunctive: q%3 == 2,
		}
		a, _ := scan.Query(query)
		b, _ := rs.Query(query)
		ra, rb := canonRows(a, query.Projs), canonRows(b, query.Projs)
		if len(ra) != len(rb) {
			t.Fatalf("q%d: rowstore %d rows, scan %d", q, len(rb), len(ra))
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("q%d row %d: %s vs %s", q, i, rb[i], ra[i])
			}
		}
	}
	if rs.Storage() == 0 {
		t.Error("prepared rowstore should report sorted-copy storage")
	}
}

func TestRowStoreReadOnlyPanics(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(3)), 10, []string{"A"}, 10)
	e := New(RowStore, rel)
	for name, f := range map[string]func(){
		"Insert": func() { e.Insert(1) },
		"Delete": func() { e.Delete(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on rowstore should panic", name)
				}
			}()
			f()
		}()
	}
}

func TestBudgetedConstructors(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(4)), 200, []string{"A", "B", "C"}, 50)
	q := Query{Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 25)}}, Projs: []string{"B"}}

	se := NewSidewaysWithBudget(cloneRel(rel), 450)
	for i := 0; i < 5; i++ {
		se.Query(q)
	}
	if se.Storage() > 450 {
		t.Errorf("sideways budget exceeded: %d", se.Storage())
	}
	// The budget must exceed one query's working set (a ~104-tuple chunk
	// here); below that the engine documents a soft overrun.
	pe := NewPartialWithBudget(cloneRel(rel), 150)
	for i := 0; i < 8; i++ {
		lo := Value(i * 6)
		pe.Query(Query{
			Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+25)}},
			Projs: []string{"B", "C"},
		})
	}
	if pe.Storage() > 150 {
		t.Errorf("partial budget exceeded: %d", pe.Storage())
	}
}

func TestJoinCostTotal(t *testing.T) {
	jc := JoinCost{PreSel: 1, Join: 2, PostTR: 3}
	if jc.Total() != 6 {
		t.Fatalf("Total = %d", jc.Total())
	}
}

func TestSynchronizedConcurrentUse(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	rel := buildRel(rng, 1000, []string{"A", "B"}, 200)
	e := Concurrent(New(Sideways, cloneRel(rel)))
	if Concurrent(e) != e {
		t.Fatal("double-wrapping should be a no-op")
	}
	if e.Kind() != Sideways {
		t.Fatal("wrapper must preserve kind")
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				switch r.Intn(10) {
				case 0:
					e.Insert(Value(r.Int63n(200)), Value(r.Int63n(200)))
				default:
					lo := r.Int63n(200)
					res, _ := e.Query(Query{
						Preds: []AttrPred{{Attr: "A", Pred: store.Range(lo, lo+20)}},
						Projs: []string{"B"},
					})
					if res.N < 0 {
						errs <- "negative result size"
					}
				}
			}
		}(int64(g))
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	// Results must still be exact after the concurrent phase.
	res, _ := e.Query(Query{
		Preds: []AttrPred{{Attr: "A", Pred: store.Range(0, 1000)}},
		Projs: []string{"B"},
	})
	if res.N == 0 {
		t.Fatal("post-concurrency query returned nothing")
	}
}

func TestSynchronizedJoinInput(t *testing.T) {
	rel := buildRel(rand.New(rand.NewSource(6)), 100, []string{"A", "B", "C"}, 30)
	e := Concurrent(New(Scan, cloneRel(rel)))
	ji, _ := e.JoinInput([]AttrPred{{Attr: "A", Pred: store.Range(0, 30)}}, "C", []string{"B"})
	if len(ji.JoinVals) == 0 {
		t.Skip("degenerate: no matches")
	}
	v := ji.Fetch("B", 0)
	if v < 0 || v >= 30 {
		t.Fatalf("fetched value %d out of domain", v)
	}
}

// Property: all five updatable engines agree on disjunctive queries under
// interleaved updates.
func TestQuickEnginesAgreeDisjunctiveWithUpdates(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		base := buildRel(rng, 150, []string{"A", "B", "C"}, 40)
		engines := make([]Engine, 0, 5)
		for _, k := range allKinds() {
			engines = append(engines, New(k, cloneRel(base)))
		}
		var live []int
		for i := 0; i < 150; i++ {
			live = append(live, i)
		}
		for step := 0; step < 25; step++ {
			switch rng.Intn(5) {
			case 0:
				vals := []Value{rng.Int63n(40), rng.Int63n(40), rng.Int63n(40)}
				var key int
				for _, e := range engines {
					key = e.Insert(vals...)
				}
				live = append(live, key)
			case 1:
				if len(live) > 0 {
					i := rng.Intn(len(live))
					k := live[i]
					live = append(live[:i], live[i+1:]...)
					for _, e := range engines {
						e.Delete(k)
					}
				}
			default:
				lo1, lo2 := rng.Int63n(40), rng.Int63n(40)
				query := Query{
					Preds: []AttrPred{
						{Attr: "A", Pred: store.Range(lo1, lo1+8)},
						{Attr: "B", Pred: store.Range(lo2, lo2+8)},
					},
					Projs:       []string{"C"},
					Disjunctive: true,
				}
				var ref []string
				for i, e := range engines {
					res, _ := e.Query(query)
					got := canonRows(res, query.Projs)
					if i == 0 {
						ref = got
						continue
					}
					if len(got) != len(ref) {
						return false
					}
					for j := range ref {
						if got[j] != ref[j] {
							return false
						}
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 10}); err != nil {
		t.Fatal(err)
	}
}

// TestCountOnlyQueries: a query that projects nothing still counts its
// rows, on every kind and through both Query and QueryRO, with one
// predicate and with a second one, before and after updates (the
// read-only row store answers the first round only). Sideways
// and partial sideways answer such queries through their key maps and
// must then answer them read-only too.
func TestCountOnlyQueries(t *testing.T) {
	const rows = 1000
	rel := store.Build("R", rows, []string{"A", "B"}, func(attr string, row int) Value {
		if attr == "A" {
			return Value(row)
		}
		return Value(row % 7)
	})
	queries := []Query{
		{Preds: []AttrPred{{Attr: "A", Pred: store.Range(10, 20)}}},
		{Preds: []AttrPred{{Attr: "A", Pred: store.Range(10, 20)}, {Attr: "B", Pred: store.Range(0, 3)}}},
		{Preds: []AttrPred{{Attr: "B", Pred: store.Range(0, 3)}, {Attr: "A", Pred: store.Range(10, 400)}}},
	}
	count := func(rel *store.Relation, dead map[int]bool, q Query) int {
		n := 0
		for i := 0; i < rel.NumRows(); i++ {
			match := !dead[i]
			for _, ap := range q.Preds {
				match = match && ap.Pred.Matches(rel.MustColumn(ap.Attr).Vals[i])
			}
			if match {
				n++
			}
		}
		return n
	}
	engines := map[string]Engine{"snapshot": Snapshot(New(SelCrack, cloneRel(rel)))}
	for _, k := range append(allKinds(), RowStore) {
		engines[k.String()] = New(k, cloneRel(rel))
	}
	for name, e := range engines {
		t.Run(name, func(t *testing.T) {
			model := cloneRel(rel)
			dead := map[int]bool{}
			for round := 0; round < 2; round++ {
				for i, q := range queries {
					want := count(model, dead, q)
					if res, _, ok := e.QueryRO(q); ok && res.N != want {
						t.Fatalf("round %d query %d: cold QueryRO N=%d, want %d", round, i, res.N, want)
					}
					if res, _ := e.Query(q); res.N != want {
						t.Fatalf("round %d query %d: Query N=%d, want %d", round, i, res.N, want)
					}
					res, _, ok := e.QueryRO(q)
					if ok && res.N != want {
						t.Fatalf("round %d query %d: QueryRO N=%d, want %d", round, i, res.N, want)
					}
					if !ok && (name == "sideways" || name == "partial") {
						t.Fatalf("round %d query %d: QueryRO refused a query Query just answered", round, i)
					}
				}
				if name == "rowstore" {
					break // the row-store reference takes no updates
				}
				// Updates inside the queried ranges, merged by the next round.
				for _, key := range []int{12, 14, 300} {
					e.Delete(key)
					dead[key] = true
				}
				for _, v := range []Value{11, 15, 350} {
					e.Insert(v, v%7)
					model.AppendRow(v, v%7)
				}
			}
		})
	}
}
