package main

import (
	"runtime"
	"time"

	"crackstore/client"
	"crackstore/internal/crack"
	"crackstore/internal/engine"
	"crackstore/internal/netserve"
	"crackstore/internal/serve"
	"crackstore/internal/store"
)

// The layer ladder answers the warm-remote pool single-threaded through
// each layer's public call in turn, so each rung's cost over the rung
// below is that layer's overhead on a warm read:
//
//	crack       crack.Col.SelectRO
//	crack.snap  crack.SnapCol.GatherRO (the Snapshot engine's kernel)
//	engine      engine.New(SelCrack).Query
//	engine.snap engine.Snapshot(...).QueryRO
//	serve       serve.Server.Do (Snapshot option)
//	client      loopback client.Query against netserve
//
// Every rung reads the same relation and pool, warmed by one cracking
// pass first. Allocation counts repeat exactly from run to run.

// rungTime is how long each of a rung's three repetitions runs.
const rungTime = 150 * time.Millisecond

type rung struct {
	name, below string
	op          func(i int) error
}

func ladder(rep *report, seed int64) error {
	rel := relationOf(seed, warmRows)
	pool := poolOf(seed+1, warmRows)
	preds := predsOf(pool)

	col := crack.NewCol(rel.MustColumn("A"))
	snapBase := crack.NewCol(rel.MustColumn("A"))
	for _, p := range preds {
		col.Select(p)
		snapBase.Select(p)
	}
	ep := crack.NewEpoch()
	snapCol := crack.SnapColFromCol(snapBase, ep)
	var keys []store.Value

	eng := engine.New(engine.SelCrack, rel)
	snap := engine.Snapshot(engine.New(engine.SelCrack, rel))
	srv := serve.New(engine.New(engine.SelCrack, rel), serve.Options{Snapshot: true})
	defer srv.Close()
	ns, err := netserve.Listen("127.0.0.1:0", engine.New(engine.SelCrack, rel), netserve.Options{Serve: serve.Options{Snapshot: true}})
	if err != nil {
		return err
	}
	defer ns.Close()
	cl, err := client.Dial(ns.Addr().String(), client.Options{})
	if err != nil {
		return err
	}
	defer cl.Close()
	for _, q := range pool {
		eng.Query(q)
		snap.Query(q)
		if _, _, err := srv.Do(q); err != nil {
			return err
		}
		if _, _, err := cl.Query(q); err != nil {
			return err
		}
	}

	rungs := []rung{
		{name: "crack", op: func(i int) error { col.SelectRO(preds[i]); return nil }},
		{name: "crack.snap", op: func(i int) error {
			pin := ep.Enter()
			defer ep.Exit(pin)
			keys, _ = snapCol.GatherRO(preds[i], keys[:0])
			return nil
		}},
		{name: "engine", below: "crack", op: func(i int) error { eng.Query(pool[i]); return nil }},
		{name: "engine.snap", below: "engine", op: func(i int) error { snap.QueryRO(pool[i]); return nil }},
		{name: "serve", below: "engine.snap", op: func(i int) error { _, _, err := srv.Do(pool[i]); return err }},
		{name: "client", below: "serve", op: func(i int) error { _, _, err := cl.Query(pool[i]); return err }},
	}
	type cost struct{ ns, allocs, bytes float64 }
	got := map[string]cost{}
	for _, r := range rungs {
		var nsPerOp []float64
		var mallocs, bytes, ops uint64
		for k := 0; k < 3; k++ {
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			n := 0
			t0 := time.Now()
			for time.Since(t0) < rungTime {
				for j := 0; j < 64; j++ {
					if err := r.op((n + j) % len(pool)); err != nil {
						return err
					}
				}
				n += 64
			}
			el := time.Since(t0)
			runtime.ReadMemStats(&m1)
			nsPerOp = append(nsPerOp, float64(el.Nanoseconds())/float64(n))
			mallocs += m1.Mallocs - m0.Mallocs
			bytes += m1.TotalAlloc - m0.TotalAlloc
			ops += uint64(n)
		}
		c := cost{ns: median(nsPerOp), allocs: float64(mallocs) / float64(ops), bytes: float64(bytes) / float64(ops)}
		got[r.name] = c
		n := int64(ops)
		rep.setLayer(r.name+".ladder_ns", "ns/op", c.ns, n)
		rep.setLayer(r.name+".ladder_allocs", "allocs/op", c.allocs, n)
		rep.setLayer(r.name+".ladder_bytes", "B/op", c.bytes, n)
		if r.below != "" {
			b := got[r.below]
			rep.setLayer(r.name+".ladder_delta_ns", "ns/op", c.ns-b.ns, n)
			rep.setLayer(r.name+".ladder_delta_allocs", "allocs/op", c.allocs-b.allocs, n)
			rep.setLayer(r.name+".ladder_delta_bytes", "B/op", c.bytes-b.bytes, n)
		}
	}
	return nil
}
