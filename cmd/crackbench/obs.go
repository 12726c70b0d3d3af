package main

import (
	"fmt"
	"io"
	"math/rand"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/exp"
	"crackstore/internal/obs"
	"crackstore/internal/serve"
)

// obsConfig drives the -obs mode: the observability overhead benchmark.
// It runs the warm concurrent serving workload three times over identical
// relations — uninstrumented, instrumented (metrics registry attached and
// scraped continuously throughout the run), and instrumented with 1/1024
// trace-sampled span capture — and reports the throughput cost of each.
// The instrumentation contract is that the cost is in the noise
// (instrumented QPS >= ~97% of uninstrumented); the emitted
// BENCH_observability.json is the committed evidence.
type obsConfig struct {
	Clients int
	Rows    int
	Queries int
	Pool    int
	Sel     float64
	Seed    int64
	JSONDir string
}

func (c obsConfig) withDefaults() obsConfig {
	base := concurrentConfig{Rows: c.Rows, Queries: c.Queries, Pool: c.Pool, Sel: c.Sel}.withDefaults()
	c.Rows, c.Queries, c.Pool, c.Sel = base.Rows, base.Queries, base.Pool, base.Sel
	if c.Clients <= 0 {
		c.Clients = 8
	}
	if c.JSONDir == "" {
		c.JSONDir = "bench"
	}
	return c
}

// traceSampleN is the sampling rate of the traced variant: the contract
// is that 1-in-1024 tracing has no measurable QPS cost.
const traceSampleN = 1024

// benchMaxPoints caps the per-series samples committed in the JSON
// artifact (strided via mvcc.go's downsample); the headline numbers (QPS
// ratios, percentiles) are computed over the full run before
// downsampling.
const benchMaxPoints = 20_000

// runObsMode measures one variant of the warm serving workload. With a
// registry, the engine bridge and serving layer register into it and a
// scraper goroutine renders the full Prometheus exposition continuously
// for the whole run — the measured overhead includes being scraped, not
// just counting. With traceEvery > 0, 1-in-traceEvery queries go through
// the span-capturing entry point.
func (c obsConfig) runObsMode(name string, reg *obs.Registry, traceEvery int) (serve.Stats, int) {
	base := concurrentConfig{
		Clients: c.Clients, Rows: c.Rows, Queries: c.Queries,
		Pool: c.Pool, Sel: c.Sel, Seed: c.Seed,
	}
	e := engine.Concurrent(engine.New(engine.Sideways, base.buildRelation()))
	pool := base.queryPool()
	for _, q := range pool {
		e.Query(q)
	}
	runtime.GC()

	srv := serve.New(e, serve.Options{Workers: c.Clients, Metrics: reg, LatencyWindow: c.Queries})
	engine.RegisterMetrics(reg, srv.Engine())
	scrapes := 0
	stop := make(chan struct{})
	var scraperDone sync.WaitGroup
	if reg != nil {
		scraperDone.Add(1)
		go func() {
			defer scraperDone.Done()
			tick := time.NewTicker(10 * time.Millisecond)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					reg.WritePrometheus(io.Discard)
					scrapes++
				case <-stop:
					return
				}
			}
		}()
	}
	sampler := obs.NewSampler(traceEvery) // nil when traceEvery <= 0

	perClient := c.Queries / c.Clients
	var wg sync.WaitGroup
	for g := 0; g < c.Clients; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perClient; i++ {
				q := pool[rng.Intn(len(pool))]
				if _, ok := sampler.Next(); ok {
					sp := new(serve.SpanTimes)
					if _, _, err := srv.DoUntilSpans(q, time.Time{}, sp); err != nil {
						panic(err)
					}
					continue
				}
				if _, _, err := srv.Do(q); err != nil {
					panic(err)
				}
			}
		}(c.Seed + 100 + int64(g))
	}
	wg.Wait()
	close(stop)
	scraperDone.Wait()
	st := srv.Stats()
	srv.Close()
	fmt.Printf("%-22s %8d queries  %3d errors  %10.0f q/s  p50=%-8s p99=%-8s max=%s",
		name, st.Queries, st.Errors, st.QPS, st.P50, st.P99, st.Max)
	if scrapes > 0 {
		fmt.Printf("  scrapes=%d", scrapes)
	}
	fmt.Println()
	return st, scrapes
}

// obsReps is how many times each mode runs; the best run per mode is
// reported. The instrumentation cost being measured is a few percent,
// well under scheduler noise on a shared machine, so the reps are
// interleaved round-robin (bare, instrumented, traced, bare, ...) — a
// multi-second interference window from a noisy neighbor then degrades
// all three arms equally instead of sinking whichever arm it landed on —
// and best-of-N per arm strips what remains.
const obsReps = 3

// runObsBench is the -obs entry point.
func runObsBench(c obsConfig) {
	c = c.withDefaults()
	defer debug.SetGCPercent(debug.SetGCPercent(400))
	fmt.Printf("== observability overhead: %d clients, %d rows, %d queries, warm sideways workload, best of %d interleaved ==\n",
		c.Clients, c.Rows, c.Queries, obsReps)

	var bare, inst, traced serve.Stats
	var reg *obs.Registry
	var scrapes int
	tracedName := fmt.Sprintf("instrumented+1/%d", traceSampleN)
	for rep := 1; rep <= obsReps; rep++ {
		st, _ := c.runObsMode(fmt.Sprintf("uninstrumented [%d/%d]", rep, obsReps), nil, 0)
		if st.QPS > bare.QPS {
			bare = st
		}
		r := obs.NewRegistry()
		st, sc := c.runObsMode(fmt.Sprintf("instrumented [%d/%d]", rep, obsReps), r, 0)
		if st.QPS > inst.QPS {
			inst, reg, scrapes = st, r, sc
		}
		st, _ = c.runObsMode(fmt.Sprintf("%s [%d/%d]", tracedName, rep, obsReps), obs.NewRegistry(), traceSampleN)
		if st.QPS > traced.QPS {
			traced = st
		}
	}
	// Cross-check the log2-bucket histogram against the exact nearest-rank
	// percentiles the serving layer computes from raw samples: the bucket
	// upper bound is at most 2x the true value by construction.
	if h := reg.FindHistogram("crack_serve_latency_seconds"); h != nil && inst.P99 > 0 {
		s := h.Snapshot()
		fmt.Printf("histogram cross-check: p50=%v p99=%v max=%v vs exact p50=%v p99=%v max=%v (p99 ratio %.2fx)\n",
			s.P50, s.P99, s.Max, inst.P50, inst.P99, inst.Max, float64(s.P99)/float64(inst.P99))
	}

	if bare.QPS > 0 {
		fmt.Printf("instrumented/uninstrumented QPS ratio: %.3f (scraped %d times during the run)\n",
			inst.QPS/bare.QPS, scrapes)
		fmt.Printf("traced/uninstrumented QPS ratio:       %.3f\n", traced.QPS/bare.QPS)
	}
	if c.JSONDir != "" {
		title := fmt.Sprintf("Observability overhead, %d clients (%d rows, warm sideways workload): uninstrumented %.0f q/s vs instrumented %.0f q/s vs 1/%d traced %.0f q/s",
			c.Clients, c.Rows, bare.QPS, inst.QPS, traceSampleN, traced.QPS)
		series := []exp.Series{
			{Name: "uninstrumented", Y: downsample(bare.Latencies, benchMaxPoints), Errors: bare.Errors},
			{Name: "instrumented", Y: downsample(inst.Latencies, benchMaxPoints), Errors: inst.Errors},
			{Name: fmt.Sprintf("instrumented+1/%d traced", traceSampleN), Y: downsample(traced.Latencies, benchMaxPoints), Errors: traced.Errors},
		}
		meta := map[string]string{
			"rows":               fmt.Sprint(c.Rows),
			"queries":            fmt.Sprint(c.Queries),
			"clients":            fmt.Sprint(c.Clients),
			"selectivity":        fmt.Sprint(c.Sel),
			"seed":               fmt.Sprint(c.Seed),
			"trace_sample":       fmt.Sprint(traceSampleN),
			"best_of":            fmt.Sprint(obsReps),
			"scrapes":            fmt.Sprint(scrapes),
			"instrumented_ratio": fmt.Sprintf("%.4f", inst.QPS/bare.QPS),
			"traced_ratio":       fmt.Sprintf("%.4f", traced.QPS/bare.QPS),
			"uninstrumented_qps": fmt.Sprintf("%.0f", bare.QPS),
			"instrumented_qps":   fmt.Sprintf("%.0f", inst.QPS),
			"traced_qps":         fmt.Sprintf("%.0f", traced.QPS),
			"metric_families":    fmt.Sprint(len(reg.Families())),
		}
		if err := exp.WriteSeriesJSONMeta(c.JSONDir, "observability",
			title, "query (completion order)", meta, series); err != nil {
			fmt.Printf("json export failed: %v\n", err)
		}
	}
}
