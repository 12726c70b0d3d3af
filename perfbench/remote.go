package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"time"

	"crackstore/client"
	"crackstore/internal/engine"
	"crackstore/internal/netserve"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
	"crackstore/internal/store"
	"crackstore/internal/wal"
)

// warm-remote is a loopback netserve server and client in the
// `crackserved -kind selcrack -snapshot` shape, read-only over a pool of
// pre-warmed narrow ranges: the kernel is idle and client, wire, netserve
// and serve take the time.
const warmRows = 200_000

// durable-remote is the `crackserved -data-dir -fsync none` shape: a
// durable sideways engine over loopback with a quarter of the traffic
// writes; after the window the engine is abandoned without a clean close
// and reopened from its directory, which replays the WAL and crack tape.
const durRows = 200_000

var durMix = mix{insert: 0.20, delete: 0.05, cold: 0.02}

// durOpts logs every write but does not wait for fsync. With the default
// group commit, write acks wait on the disk, and on a shared disk whose
// fsync tail swings from 0.2 to 3 ms between minutes the workload's
// throughput varied twofold between runs of one build; the benchmark
// could not tell a regression from the disk.
var durOpts = engine.DurableOptions{Sync: wal.SyncNone}

// remoteStack is one loopback server and its client, as a user of
// crackserved and the client package gets them by default (two pooled
// connections), plus the tracing hooks of a traced run.
type remoteStack struct {
	srv   *netserve.Server
	cl    *client.Client
	inner engine.Engine // the shared engine, below any decorator
	reg   *obs.Registry
}

// openRemote serves e on a loopback port and dials it. snapshot selects
// serve.Options.Snapshot, as `crackserved -snapshot` does.
func openRemote(e engine.Engine, snapshot bool, tr *tracer) (*remoteStack, error) {
	st := &remoteStack{}
	opts := netserve.Options{Serve: serve.Options{Snapshot: snapshot}}
	copts := client.Options{Conns: 2}
	served := e
	if tr != nil {
		if snapshot {
			e = engine.Snapshot(e)
		}
		st.inner = e
		served = &timedEngine{Engine: e, tr: tr}
		st.reg = obs.NewRegistry()
		opts.Metrics = st.reg
		opts.TraceSink = tr
		copts.TraceSample = 1
		copts.OnTrace = tr.onClientTrace
	}
	srv, err := netserve.Listen("127.0.0.1:0", served, opts)
	if err != nil {
		return nil, err
	}
	st.srv = srv
	if st.inner == nil {
		st.inner = srv.Engine()
	}
	if st.cl, err = client.Dial(srv.Addr().String(), copts); err != nil {
		srv.Close()
		return nil, err
	}
	return st, nil
}

func (st *remoteStack) close() {
	st.cl.Close()
	st.srv.Close()
}

func (st *remoteStack) target() target {
	return target{
		read: "client.Query", insName: "client.Insert", delName: "client.Delete",
		query: func(q engine.Query, _ *serve.SpanTimes) (engine.Result, error) {
			res, _, err := st.cl.Query(q)
			return res, err
		},
		insert: func(vals ...int64) (int, error) { return st.cl.Insert(vals...) },
		delete: st.cl.Delete,
	}
}

func (st *remoteStack) warm(pool []engine.Query) error {
	for _, q := range pool {
		if _, _, err := st.cl.Query(q); err != nil {
			return fmt.Errorf("warm-up: %w", err)
		}
	}
	return nil
}

// registry reads the traced server's metric registry.
func (st *remoteStack) registry() map[string]float64 {
	out := map[string]float64{}
	if st.reg == nil {
		return out
	}
	var buf bytes.Buffer
	if st.reg.WriteJSON(&buf) != nil {
		return out
	}
	var fams map[string]struct {
		Value float64 `json:"value"`
	}
	if json.Unmarshal(buf.Bytes(), &fams) == nil {
		for n, f := range fams {
			out[n] = f.Value
		}
	}
	return out
}

// remoteBefore is the counter state a traced window starts from.
type remoteBefore struct {
	kernel engine.KernelReport
	snap   engine.SnapshotStats
	dur    engine.DurStats
	serve  serve.Stats
	reg    map[string]float64
	client client.Counters
}

func (st *remoteStack) before() remoteBefore {
	b := remoteBefore{serve: st.srv.Stats(), reg: st.registry(), client: st.cl.Counters()}
	b.kernel, _ = engine.KernelReportOf(st.inner)
	b.snap, _ = engine.SnapshotStatsOf(st.inner)
	b.dur, _ = engine.DurStatsOf(st.inner)
	return b
}

// layers reports the per-layer counters of a traced remote window.
func (st *remoteStack) layers(rep *report, b remoteBefore, w windowSum, rows int) {
	k1, _ := engine.KernelReportOf(st.inner)
	kernelDelta(rep, b.kernel, k1, w.ops, rows, st.inner.Storage())
	rep.setLayer("sideways.map_sets", "count", 0, 0)
	snapDelta(rep, st.inner, b.snap, w.ops)
	s1 := st.srv.Stats()
	serveDelta(rep, b.serve, s1)
	r1 := st.registry()
	rep.setLayer("serve.sheds", "count", float64(s1.Sheds-b.serve.Sheds)+r1["crack_net_sheds_total"]-b.reg["crack_net_sheds_total"], 1)
	bytesMoved := r1["crack_net_bytes_read_total"] + r1["crack_net_bytes_written_total"] -
		b.reg["crack_net_bytes_read_total"] - b.reg["crack_net_bytes_written_total"]
	rep.setLayer("net.bytes_per_op", "B/op", bytesMoved/float64(w.ops), w.ops)
	rep.setLayer("net.dedup_hits", "count", r1["crack_net_dedup_hits_total"]-b.reg["crack_net_dedup_hits_total"], 1)
	c1 := st.cl.Counters()
	rep.setLayer("client.retries", "count", float64(c1.Retries-b.client.Retries), 1)
	rep.setLayer("client.redials", "count", float64(c1.Redials-b.client.Redials), 1)
}

func runWarmRemote(cfg runCfg, tr *tracer) (*report, error) {
	rep := newReport()
	rep.sizes["rows"] = warmRows
	rep.sizes["pool"] = poolSize
	rep.sizes["range_width"] = narrowSel
	rep.sizes["mix"] = "100% warm read"
	rep.sizes["callers"] = callers
	rep.sizes["conns"] = 2
	rep.sizes["repetitions"] = cfg.reps

	var m measured
	for r := 0; r < cfg.reps; r++ {
		if err := warmOnce(rep, &m, cfg.repSeed(r), cfg.repWindow(), tr); err != nil {
			return nil, err
		}
	}
	m.report(rep)
	return rep, nil
}

// warmOnce sets the stack up, measures one window and checks every
// answer against the reference.
func warmOnce(rep *report, m *measured, seed int64, window time.Duration, tr *tracer) error {
	pool := poolOf(seed+1, warmRows)
	t0 := time.Now()
	rel := relationOf(seed, warmRows)
	st, err := openRemote(engine.New(engine.SelCrack, rel), true, tr)
	if err != nil {
		return err
	}
	defer st.close()
	if err := st.warm(pool); err != nil {
		return err
	}
	setup := time.Since(t0).Seconds()

	ref := newReference(warmRows, rel.MustColumn("A").Vals, rel.MustColumn("B").Vals)
	want := make([]answer, len(pool))
	for i, q := range pool {
		want[i] = ref.expect(q.Preds[0].Pred)
	}
	ref = nil

	b := st.before()
	p0 := sampleProc()
	cs := runCallers(seed, warmRows, window, mix{}, pool, want, st.target(), tr)
	d := deltaProc(p0, sampleProc())
	w := summarize(rep, cs)
	m.add(setup, w, d, liveHeapMiB(w.recBytes))
	if tr != nil {
		st.layers(rep, b, w, warmRows)
		noWAL(rep)
	}
	rep.notef("warm-remote: %d reads, every answer checked", w.reads)
	return nil
}

func runDurableRemote(cfg runCfg, tr *tracer) (*report, error) {
	rep := newReport()
	rep.sizes["rows"] = durRows
	rep.sizes["pool"] = poolSize
	rep.sizes["range_width"] = narrowSel
	rep.sizes["mix"] = fmt.Sprintf("%.0f%% insert, %.0f%% delete, %.0f%% cold read, rest warm read",
		durMix.insert*100, durMix.delete*100, durMix.cold*100)
	rep.sizes["callers"] = callers
	rep.sizes["conns"] = 2
	rep.sizes["fsync"] = durOpts.Sync.String()
	rep.sizes["repetitions"] = cfg.reps

	var m measured
	var recoveries []float64
	for r := 0; r < cfg.reps; r++ {
		rec, err := durableOnce(rep, &m, cfg.repSeed(r), cfg.repWindow(), cfg.workdir, tr)
		if err != nil {
			return nil, err
		}
		recoveries = append(recoveries, rec)
	}
	m.report(rep)
	rep.setE2E("recovery_s", "s", median(recoveries), int64(len(recoveries)))
	return rep, nil
}

// durableOnce opens a fresh durable store, measures one window, crashes
// the store, recovers it and checks every acknowledged write. It returns
// the recovery time in seconds.
func durableOnce(rep *report, m *measured, seed int64, window time.Duration, workdir string, tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(workdir, "durable-")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	pool := poolOf(seed+1, durRows)
	t0 := time.Now()
	rel := relationOf(seed, durRows)
	e, err := engine.OpenDurable(engine.Sideways, rel, dir, durOpts)
	if err != nil {
		return 0, err
	}
	st, err := openRemote(e, false, tr)
	if err != nil {
		return 0, err
	}
	if err := st.warm(pool); err != nil {
		st.close()
		return 0, err
	}
	setup := time.Since(t0).Seconds()

	b := st.before()
	p0 := sampleProc()
	cs := runCallers(seed, durRows, window, durMix, pool, nil, st.target(), tr)
	d := deltaProc(p0, sampleProc())
	w := summarize(rep, cs)
	m.add(setup, w, d, liveHeapMiB(w.recBytes))
	if tr != nil {
		st.layers(rep, b, w, durRows)
		d1, _ := engine.DurStatsOf(e)
		writes := float64(w.inserts + w.deletes)
		appends := float64(d1.Wal.Appends - b.dur.Wal.Appends)
		rep.setLayer("wal.fsyncs_per_write", "fsyncs/write", float64(d1.Wal.Fsyncs-b.dur.Wal.Fsyncs)/writes, w.inserts+w.deletes)
		rep.setLayer("wal.group_commit_frac", "fraction", float64(d1.Wal.GroupCommits-b.dur.Wal.GroupCommits)/appends, int64(appends))
		userBytes := float64(24*w.inserts + 8*w.deletes) // three values per insert, one key per delete
		rep.setLayer("wal.bytes_per_user_byte", "B/B", float64(d1.Wal.Bytes-b.dur.Wal.Bytes)/userBytes, w.inserts+w.deletes)
		rep.setLayer("wal.tape_records_per_op", "records/op", float64(d1.TapeLen-b.dur.TapeLen)/float64(w.ops), w.ops)
		rep.setLayer("wal.write_errs", "count", float64(d1.WriteErrs-b.dur.WriteErrs), 1)
	}

	// Crash: stop serving and abandon the engine without CloseDurable, so
	// the next open must replay the WAL. Then reopen, serve, and time it
	// until the first query is answered.
	st.close()
	t1 := time.Now()
	e2, err := engine.OpenDurable(engine.Sideways, nil, dir, durOpts)
	if err != nil {
		return 0, fmt.Errorf("recovery: %w", err)
	}
	st2, err := openRemote(e2, false, nil)
	if err != nil {
		return 0, err
	}
	defer func() {
		st2.close()
		engine.CloseDurable(e2)
	}()
	if _, _, err := st2.cl.Query(pool[0]); err != nil {
		return 0, fmt.Errorf("first query after recovery: %w", err)
	}
	recovery := time.Since(t1)
	ds, _ := engine.DurStatsOf(e2)
	if tr != nil {
		rep.setLayer("wal.replayed_records", "count", float64(ds.ReplayedRecords), 1)
	}

	// Every acknowledged insert must be back exactly once and no
	// acknowledged delete may be.
	log := seedRows(rel, durRows)
	log.apply(w.rows)
	ref := newReference(durRows, log.a, log.b)
	asked, bad, verr := verifyStore(ref, predsOf(pool), durRows+1, 256, func(p store.Pred) (engine.Result, error) {
		res, _, err := st2.cl.Query(engine.Query{Preds: []engine.AttrPred{{Attr: "A", Pred: p}}, Projs: []string{"B"}})
		return res, err
	})
	rep.attempted += int64(asked)
	rep.failed += int64(bad)
	rep.wrong += int64(bad)
	if bad > 0 {
		rep.notef("durable-remote verification after recovery: %d of %d ranges wrong; first: %v", bad, asked, verr)
	}
	rep.notef("durable-remote: %d ops (%d inserts, %d deletes); recovery replayed %d records in %v; verified %d ranges",
		w.ops, w.inserts, w.deletes, ds.ReplayedRecords, recovery.Round(time.Millisecond), asked)
	return recovery.Seconds(), nil
}
