package main

import (
	"fmt"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/serve"
	"crackstore/internal/store"
)

// snap-mixed is the embedded-server path: an in-process serve.Server over
// a Snapshot-wrapped selection-cracking engine, two callers, mostly warm
// narrow reads plus a few cold (cracking) reads and inserts and deletes.
// Snapshot cracks and merges copy pieces beside lock-free readers, so the
// copy-per-crack cost and the engine's warm-hit overhead both show here.
const snapRows = 1_000_000

var snapMix = mix{insert: 0.04, delete: 0.01, cold: 0.02}

type snapStack struct {
	rel   *store.Relation
	srv   *serve.Server
	inner engine.Engine // the shared engine, below any decorator
}

// openSnap builds the relation and the serving stack and warms the pool.
// A traced stack puts the timing decorator between serve and the
// Snapshot engine.
func openSnap(seed int64, pool []engine.Query, tr *tracer) (*snapStack, error) {
	s := &snapStack{rel: relationOf(seed, snapRows)}
	base := engine.New(engine.SelCrack, s.rel)
	if tr == nil {
		s.srv = serve.New(base, serve.Options{Snapshot: true})
		s.inner = s.srv.Engine()
	} else {
		s.inner = engine.Snapshot(base)
		s.srv = serve.New(&timedEngine{Engine: s.inner, tr: tr}, serve.Options{Snapshot: true})
	}
	for _, q := range pool {
		if _, _, err := s.srv.Do(q); err != nil {
			s.srv.Close()
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return s, nil
}

func runSnapMixed(cfg runCfg, tr *tracer) (*report, error) {
	rep := newReport()
	rep.sizes["rows"] = snapRows
	rep.sizes["pool"] = poolSize
	rep.sizes["range_width"] = narrowSel
	rep.sizes["mix"] = fmt.Sprintf("%.0f%% insert, %.0f%% delete, %.0f%% cold read, rest warm read",
		snapMix.insert*100, snapMix.delete*100, snapMix.cold*100)
	rep.sizes["callers"] = callers
	rep.sizes["repetitions"] = cfg.reps

	var m measured
	for r := 0; r < cfg.reps; r++ {
		if err := snapOnce(rep, &m, cfg.repSeed(r), cfg.repWindow(), tr); err != nil {
			return nil, err
		}
	}
	m.report(rep)
	return rep, nil
}

// snapOnce sets the stack up, measures one window and checks the store.
func snapOnce(rep *report, m *measured, seed int64, window time.Duration, tr *tracer) error {
	pool := poolOf(seed+1, snapRows)
	t0 := time.Now()
	s, err := openSnap(seed, pool, tr)
	if err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()
	defer s.srv.Close()

	t := target{
		read: "serve.Do", insName: "engine.Insert", delName: "engine.Delete",
		query: func(q engine.Query, sp *serve.SpanTimes) (engine.Result, error) {
			res, _, err := s.srv.DoUntilSpans(q, time.Time{}, sp)
			return res, err
		},
		insert: func(vals ...int64) (int, error) { return s.srv.Engine().Insert(vals...), nil },
		delete: func(key int) error { s.srv.Engine().Delete(key); return nil },
	}
	k0, _ := engine.KernelReportOf(s.inner)
	snap0, _ := engine.SnapshotStatsOf(s.inner)
	srv0 := s.srv.Stats()
	p0 := sampleProc()
	cs := runCallers(seed, snapRows, window, snapMix, pool, nil, t, tr)
	d := deltaProc(p0, sampleProc())
	w := summarize(rep, cs)
	m.add(setup, w, d, liveHeapMiB(w.recBytes))

	if tr != nil {
		k1, _ := engine.KernelReportOf(s.inner)
		kernelDelta(rep, k0, k1, w.ops, snapRows, s.inner.Storage())
		rep.setLayer("sideways.map_sets", "count", 0, 0)
		snapDelta(rep, s.inner, snap0, w.ops)
		serveDelta(rep, srv0, s.srv.Stats())
		for _, n := range []string{"net.dedup_hits", "client.retries", "client.redials"} {
			rep.setLayer(n, "count", 0, 0)
		}
		rep.setLayer("net.bytes_per_op", "B/op", 0, 0)
		noWAL(rep)
	}

	// The store must now hold the seed rows plus every acknowledged
	// insert, minus every acknowledged delete.
	log := seedRows(s.rel, snapRows)
	log.apply(w.rows)
	ref := newReference(snapRows, log.a, log.b)
	asked, bad, err := verifyStore(ref, predsOf(pool), snapRows+1, 256, func(p store.Pred) (engine.Result, error) {
		res, _, err := s.srv.Do(engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: p}}, Projs: []string{"B"}})
		return res, err
	})
	rep.attempted += int64(asked)
	rep.failed += int64(bad)
	rep.wrong += int64(bad)
	if bad > 0 {
		rep.notef("snap-mixed verification: %d of %d ranges wrong; first: %v", bad, asked, err)
	}
	rep.notef("snap-mixed: %d ops (%d inserts, %d deletes), verified %d ranges", w.ops, w.inserts, w.deletes, asked)
	return nil
}
