package main

import (
	"math/rand"
	"runtime"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// paper-seq is the paper's experiment shape: a fresh relation, a cold
// sideways-cracking engine, and one sequence of random 1%-selectivity
// range queries on A projecting B and C, answered by Engine.Query on one
// caller. Rounds repeat until the window is used up; every round is a
// new relation and a new query sequence drawn from the seed.
const (
	seqRows    = 1_000_000
	seqQueries = 2000
	seqSel     = 0.01
)

var seqProjs = []string{"B", "C"}

func runPaperSeq(cfg runCfg, tr *tracer) (*report, error) {
	rep := newReport()
	rep.sizes["rows"] = seqRows
	rep.sizes["queries_per_round"] = seqQueries
	rep.sizes["selectivity"] = seqSel
	rep.sizes["attrs"] = "A,B,C,D"

	var (
		setups, totals, firsts, qps, p50s, p99s []float64
		queries                                 int64
		allocBytes, gcFrac, gcCycles            float64
		kernel                                  engine.KernelReport
		storage, sets                           int
		roots                                   []rootEv
		last                                    engine.Engine
	)
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < cfg.window; round++ {
		rseed := cfg.seed*1_000_003 + int64(round)

		t0 := time.Now()
		rng := rand.New(rand.NewSource(rseed))
		rel := store.Build("R", seqRows, []string{"A", "B", "C", "D"}, func(string, int) store.Value {
			return 1 + rng.Int63n(seqRows)
		})
		var e engine.Engine = engine.New(engine.Sideways, rel)
		setups = append(setups, time.Since(t0).Seconds())
		inner := e
		if tr != nil {
			e = &timedEngine{Engine: e, tr: tr}
		}

		ref := newReference(seqRows, rel.MustColumn("A").Vals, rel.MustColumn("B").Vals, rel.MustColumn("C").Vals)
		gen := workload.New(seqRows, rseed+1)
		qs := make([]engine.Query, seqQueries)
		for i := range qs {
			qs[i] = engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: gen.Range(seqSel)}}, Projs: seqProjs}
		}
		want := make([]answer, len(qs))
		for i, q := range qs {
			want[i] = ref.expect(q.Preds[0].Pred)
		}
		ref = nil

		h := new(hist)
		lats := make([]time.Duration, len(qs))
		p0 := sampleProc()
		for i, q := range qs {
			q0 := time.Now()
			res, _ := e.Query(q)
			q1 := time.Now()
			lats[i] = q1.Sub(q0)
			if tr != nil {
				roots = append(roots, rootEv{name: "engine.Query", fp: fpOfQuery(q), t0: q0, t1: q1})
			}
			rep.attempted++
			if got := answerOf(res, seqProjs); got != want[i] {
				rep.failed++
				if rep.wrong++; rep.wrong == 1 {
					rep.notef("paper-seq round %d query %d %v: got %+v, want %+v", round, i, q.Preds[0].Pred, got, want[i])
				}
			}
		}
		d := deltaProc(p0, sampleProc())
		allocBytes += d.allocBytes
		gcCycles += d.gcCycles
		gcFrac += d.gcCPUFrac

		var sum time.Duration
		for _, l := range lats {
			sum += l
			h.add(l)
		}
		queries += int64(len(qs))
		totals = append(totals, sum.Seconds())
		firsts = append(firsts, float64(lats[0])/1e6)
		qps = append(qps, float64(len(qs))/sum.Seconds())
		p50s = append(p50s, h.quantile(0.50)/1e3)
		p99s = append(p99s, h.quantile(0.99)/1e3)

		k, _ := engine.KernelReportOf(inner)
		kernel.InTwo += k.InTwo
		kernel.InThree += k.InThree
		kernel.Visited += k.Visited
		kernel.Moved += k.Moved
		kernel.Pieces, kernel.Columns = k.Pieces, k.Columns
		storage = inner.Storage()
		if st, ok := inner.(interface{ Store() *sideways.Store }); ok {
			sets = st.Store().NumSets()
		}
		last = inner
	}
	rounds := int64(len(totals))
	rep.notef("paper-seq: %d rounds of %d queries", rounds, seqQueries)
	rep.setE2E("setup_s", "s", median(setups), rounds)
	rep.setE2E("ops_per_s", "ops/s", iqm(qps), queries)
	rep.setE2E("read_p50_us", "us", iqm(p50s), queries)
	rep.setE2E("read_p99_us", "us", iqm(p99s), queries)
	rep.setE2E("seq_total_s", "s", median(totals), rounds)
	rep.setE2E("first_query_ms", "ms", median(firsts), rounds)
	rep.setE2E("alloc_bytes_per_op", "B/op", allocBytes/float64(queries), queries)
	rep.setE2E("live_heap_mb", "MiB", liveHeapMiB(0), 1)
	runtime.KeepAlive(last)

	if tr != nil {
		tr.addRoots(roots)
		q := float64(queries)
		rep.setLayer("crack.visited_per_op", "tuples/op", float64(kernel.Visited)/q, queries)
		rep.setLayer("crack.moved_per_op", "tuples/op", float64(kernel.Moved)/q, queries)
		rep.setLayer("crack.cracks_per_op", "cracks/op", float64(kernel.InTwo+kernel.InThree)/q, queries)
		rep.setLayer("crack.pieces", "count", float64(kernel.Pieces), 1)
		rep.setLayer("crack.structures", "count", float64(kernel.Columns), 1)
		rep.setLayer("sideways.aux_tuples_per_row", "tuples/row", float64(storage)/seqRows, 1)
		rep.setLayer("sideways.map_sets", "count", float64(sets), 1)
		rep.setLayer("gc.cpu_frac", "fraction", gcFrac/float64(rounds), rounds)
		rep.setLayer("gc.cycles_per_kop", "cycles/kop", gcCycles/(q/1000), queries)
		noServing(rep)
		noSnapshot(rep)
		noWAL(rep)
	}
	return rep, nil
}

// The helpers below report the layers a workload does not run through as
// zero, so every traced run prints the same metric names.

func noServing(rep *report) {
	for _, n := range []string{"serve.p50_us", "serve.p99_us"} {
		rep.setLayer(n, "us", 0, 0)
	}
	for _, n := range []string{"serve.sheds", "serve.errors", "net.dedup_hits", "client.retries", "client.redials"} {
		rep.setLayer(n, "count", 0, 0)
	}
	rep.setLayer("net.bytes_per_op", "B/op", 0, 0)
}

func noSnapshot(rep *report) {
	rep.setLayer("engine.snap_published_per_op", "versions/op", 0, 0)
	rep.setLayer("engine.snap_reclaim_frac", "fraction", 0, 0)
	rep.setLayer("engine.snap_limbo", "count", 0, 0)
}

func noWAL(rep *report) {
	rep.setLayer("wal.fsyncs_per_write", "fsyncs/write", 0, 0)
	rep.setLayer("wal.group_commit_frac", "fraction", 0, 0)
	rep.setLayer("wal.bytes_per_user_byte", "B/B", 0, 0)
	rep.setLayer("wal.tape_records_per_op", "records/op", 0, 0)
	rep.setLayer("wal.replayed_records", "count", 0, 0)
	rep.setLayer("wal.write_errs", "count", 0, 0)
}
