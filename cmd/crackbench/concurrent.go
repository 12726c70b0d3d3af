package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/exp"
	"crackstore/internal/serve"
	"crackstore/internal/shard"
	"crackstore/internal/store"
	"crackstore/internal/workload"
)

// concurrentConfig drives the -clients mode: a multi-client serving
// benchmark over a warm sideways workload, comparing the serialized
// (global-mutex) baseline against the QueryRO-first Concurrent wrapper —
// and, with -shards N, against a relation range-partitioned across N
// independently locked engines.
type concurrentConfig struct {
	Clients int
	Shards  int // > 1 adds the sharded mode and the sharded JSON emission
	Rows    int
	Queries int
	Pool    int     // distinct predicates in the warm workload
	Sel     float64 // per-query selectivity
	Churn   float64 // fraction of queries over cold, never-warmed ranges
	Seed    int64
	JSONDir string
	// CPUSweep, when non-empty, repeats the serialized/concurrent
	// comparison at each GOMAXPROCS value, emitting one series per value
	// (exp.Series.CPUs) so multi-core scaling claims are reproducible from
	// the artifact. The sharding variant stays out of the sweep.
	CPUSweep []int

	// jsonDefaulted is set when JSONDir was not given explicitly: only the
	// sharded artifact is emitted then, so a bare `-shards N -clients M`
	// cannot silently overwrite the committed single-engine baseline.
	jsonDefaulted bool
}

func (c concurrentConfig) withDefaults() concurrentConfig {
	if c.Rows <= 0 {
		c.Rows = 200_000
	}
	if c.Queries <= 0 {
		c.Queries = 40_000
	}
	if c.Pool <= 0 {
		c.Pool = 64
	}
	if c.Sel <= 0 {
		// Interactive serving is dominated by selective queries (point
		// lookups and narrow ranges); 0.02% of the relation per query
		// mirrors that shape. -sel overrides.
		c.Sel = 0.0002
	}
	if c.Shards > 1 && c.JSONDir == "" {
		// The sharded series is the artifact this mode exists to produce;
		// emit it next to the committed baselines unless told otherwise.
		c.JSONDir = "bench"
		c.jsonDefaulted = true
	}
	return c
}

func (c concurrentConfig) buildRelation() *store.Relation {
	rng := rand.New(rand.NewSource(c.Seed))
	domain := int64(c.Rows)
	return store.Build("R", c.Rows, []string{"A", "B", "C"}, func(attr string, row int) store.Value {
		return rng.Int63n(domain) + 1
	})
}

func (c concurrentConfig) queryPool() []engine.Query {
	gen := workload.New(int64(c.Rows), c.Seed+1)
	pool := make([]engine.Query, c.Pool)
	for i := range pool {
		pool[i] = engine.Query{
			Preds: []engine.AttrPred{{Attr: "A", Pred: gen.Range(c.Sel)}},
			Projs: []string{"B"},
		}
	}
	return pool
}

// churnGeometry returns the cold-range width and the span of valid lower
// bounds, clamped so -sel close to (or above) 1 cannot drive the range
// generator out of the domain. The remote benchmark shares it: both arms
// of the comparison must draw identical cold queries.
func (c concurrentConfig) churnGeometry() (width, span int64) {
	width = int64(float64(c.Rows)*c.Sel) + 1
	if width > int64(c.Rows)-1 {
		width = int64(c.Rows) - 1
	}
	span = int64(c.Rows) - width
	if span < 1 {
		span = 1
	}
	return width, span
}

// coldQuery draws one query over a cold, almost certainly uncracked range:
// it reorganizes and needs exclusive access — one global write lock for a
// single engine, one shard's write lock for a sharded one.
func coldQuery(rng *rand.Rand, width, span int64) engine.Query {
	lo := 1 + rng.Int63n(span)
	return engine.Query{
		Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(lo, lo+width)}},
		Projs: []string{"B"},
	}
}

// runMode measures one engine configuration: build a fresh relation, wrap
// it through build, warm the engine by running the whole pool once (every
// range gets cracked and every map aligned), then fire Clients goroutines
// at a serving layer and collect throughput, latency, and error counts.
func (c concurrentConfig) runMode(name string, build func(*store.Relation) engine.Engine) serve.Stats {
	e := build(c.buildRelation())
	pool := c.queryPool()
	for _, q := range pool {
		e.Query(q)
	}
	// Collect garbage from the build/warm phase so allocation debt does
	// not pollute the measured serving window.
	runtime.GC()

	srv := serve.New(e, serve.Options{Workers: c.Clients, LatencyWindow: c.Queries})
	perClient := c.Queries / c.Clients
	width, span := c.churnGeometry()
	var wg sync.WaitGroup
	for g := 0; g < c.Clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				q := pool[rng.Intn(len(pool))]
				if c.Churn > 0 && rng.Float64() < c.Churn {
					q = coldQuery(rng, width, span)
				}
				if _, _, err := srv.Do(q); err != nil {
					panic(err)
				}
			}
		}(c.Seed + 100 + int64(g))
	}
	wg.Wait()
	st := srv.Stats()
	ss, _ := engine.SnapshotStatsOf(srv.Engine())
	srv.Close()
	fmt.Printf("%-22s %8d queries  %3d errors  %10.0f q/s  p50=%-8s p95=%-8s p99=%-8s max=%s",
		name, st.Queries, st.Errors, st.QPS, st.P50, st.P95, st.P99, st.Max)
	if st.ReaderWaits > 0 {
		fmt.Printf("  wait=%s/%d", st.ReaderWait.Round(time.Microsecond), st.ReaderWaits)
	}
	if ss.Published > 0 {
		fmt.Printf("  snaps=%d", ss.Published)
	}
	fmt.Println()
	return st
}

// runCPUSweep repeats the serialized/concurrent comparison at each
// GOMAXPROCS value of the -cpus flag and emits one series per (mode, CPUs)
// pair, so the artifact carries the scaling curve rather than one point.
func (c concurrentConfig) runCPUSweep(single func(func(engine.Engine) engine.Engine) func(*store.Relation) engine.Engine) {
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	var series []exp.Series
	for _, p := range c.CPUSweep {
		runtime.GOMAXPROCS(p)
		fmt.Printf("\n-- GOMAXPROCS=%d --\n", p)
		serialized := c.runMode(fmt.Sprintf("serialized/p=%d", p), single(engine.Serialized))
		concurrent := c.runMode(fmt.Sprintf("concurrent/p=%d", p), single(engine.Concurrent))
		if serialized.QPS > 0 {
			fmt.Printf("p=%d speedup: %.2fx aggregate QPS over the serialized baseline\n",
				p, concurrent.QPS/serialized.QPS)
		}
		series = append(series,
			exp.Series{Name: fmt.Sprintf("serialized/p=%d", p), Y: serialized.Latencies,
				Errors: serialized.Errors, CPUs: p},
			exp.Series{Name: fmt.Sprintf("concurrent/p=%d", p), Y: concurrent.Latencies,
				Errors: concurrent.Errors, CPUs: p,
				ReaderWait: concurrent.ReaderWait, ReaderWaits: concurrent.ReaderWaits})
	}
	if c.JSONDir != "" && !c.jsonDefaulted {
		title := fmt.Sprintf("Concurrent serving GOMAXPROCS sweep, %d clients (%d rows, warm sideways workload)",
			c.Clients, c.Rows)
		if err := exp.WriteSeriesJSON(c.JSONDir, "concurrent_serving_cpus",
			title, "query (completion order)", series); err != nil {
			fmt.Printf("json export failed: %v\n", err)
		}
	}
}

// runConcurrentBench is the -clients entry point.
func runConcurrentBench(c concurrentConfig) {
	c = c.withDefaults()
	// Micro-second queries make GC pacing the dominant noise source; relax
	// it during the measurement (applies equally to every mode).
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	fmt.Printf("== concurrent serving: %d clients, %d rows, %d queries, %d-predicate warm pool, %.2f%% selectivity, %.0f%% cold churn ==\n",
		c.Clients, c.Rows, c.Queries, c.Pool, c.Sel*100, c.Churn*100)

	single := func(wrap func(engine.Engine) engine.Engine) func(*store.Relation) engine.Engine {
		return func(rel *store.Relation) engine.Engine {
			return wrap(engine.New(engine.Sideways, rel))
		}
	}

	if len(c.CPUSweep) > 0 {
		c.runCPUSweep(single)
		return
	}

	serialized := c.runMode("serialized", single(engine.Serialized))
	concurrent := c.runMode("concurrent", single(engine.Concurrent))
	series := []exp.Series{
		{Name: "serialized", Y: serialized.Latencies, Errors: serialized.Errors},
		{Name: "concurrent", Y: concurrent.Latencies, Errors: concurrent.Errors},
	}

	if serialized.QPS > 0 {
		fmt.Printf("speedup: %.2fx aggregate QPS over the serialized baseline\n",
			concurrent.QPS/serialized.QPS)
	}
	if c.JSONDir != "" && !c.jsonDefaulted {
		title := fmt.Sprintf("Concurrent serving, %d clients (%d rows, warm sideways workload): serialized %.0f q/s vs concurrent %.0f q/s",
			c.Clients, c.Rows, serialized.QPS, concurrent.QPS)
		if err := exp.WriteSeriesJSON(c.JSONDir, "concurrent_serving",
			title, "query (completion order)", series); err != nil {
			fmt.Printf("json export failed: %v\n", err)
		}
	}

	if c.Shards > 1 {
		name := fmt.Sprintf("sharded x%d", c.Shards)
		sharded := c.runMode(name, func(rel *store.Relation) engine.Engine {
			return shard.New(engine.Sideways, rel, c.Shards, shard.Options{Attr: "A"})
		})
		if concurrent.QPS > 0 {
			fmt.Printf("sharded speedup: %.2fx aggregate QPS over the single-engine concurrent wrapper\n",
				sharded.QPS/concurrent.QPS)
		}
		if c.JSONDir != "" {
			title := fmt.Sprintf("Sharded serving, %d clients x %d shards (%d rows, warm sideways workload): concurrent %.0f q/s vs sharded %.0f q/s",
				c.Clients, c.Shards, c.Rows, concurrent.QPS, sharded.QPS)
			shardSeries := []exp.Series{
				{Name: "concurrent", Y: concurrent.Latencies, Errors: concurrent.Errors},
				{Name: name, Y: sharded.Latencies, Errors: sharded.Errors},
			}
			if err := exp.WriteSeriesJSON(c.JSONDir, "sharded_serving",
				title, "query (completion order)", shardSeries); err != nil {
				fmt.Printf("json export failed: %v\n", err)
			}
		}
	}
}
