// Concurrent serving: many clients, one shared engine. The serving layer
// wraps the engine in the QueryRO-first Concurrent wrapper, so after a
// warm-up the clients' aligned repeat queries run genuinely in parallel
// under a shared read lock — only queries that actually crack new
// ranges or merge updates serialize behind the write lock. Compare against
// the old fully serialized wrapper to see throughput and tail latency
// improve.
package main

import (
	"fmt"
	"math/rand"
	"sync"

	crackstore "crackstore"
)

const (
	rows    = 100_000
	clients = 8
	perEach = 2_000
)

func buildEngine() crackstore.Engine {
	rng := rand.New(rand.NewSource(1))
	rel := crackstore.Build("orders", rows,
		[]string{"amount", "customer"},
		func(string, int) crackstore.Value { return rng.Int63n(rows) })
	return crackstore.Open(crackstore.Sideways, rel)
}

// pool is the clients' shared hot query set: narrow ranges over amount.
func pool() []crackstore.Query {
	rng := rand.New(rand.NewSource(2))
	qs := make([]crackstore.Query, 32)
	for i := range qs {
		lo := rng.Int63n(rows - 200)
		qs[i] = crackstore.Query{
			Preds: []crackstore.AttrPred{{Attr: "amount", Pred: crackstore.Range(lo, lo+100)}},
			Projs: []string{"customer"},
		}
	}
	return qs
}

func run(name string, e crackstore.Engine) {
	qs := pool()
	// Warm-up: one pass over the pool cracks every hot range.
	for _, q := range qs {
		e.Query(q)
	}
	srv := crackstore.Serve(e, crackstore.ServeOptions{Workers: clients})
	defer srv.Close()

	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perEach; i++ {
				if _, _, err := srv.Do(qs[rng.Intn(len(qs))]); err != nil {
					panic(err)
				}
			}
		}(int64(c))
	}
	wg.Wait()

	st := srv.Stats()
	fmt.Printf("%-12s %8d queries  %10.0f q/s   p50=%-9v p99=%-9v max=%v\n",
		name, st.Queries, st.QPS, st.P50, st.P99, st.Max)
}

func main() {
	fmt.Printf("%d clients, %d queries each, one shared sideways engine\n\n", clients, perEach)
	run("serialized", crackstore.Serialized(buildEngine()))
	run("concurrent", crackstore.Concurrent(buildEngine()))
	fmt.Println("\nThe serialized wrapper queues every client behind one mutex; the")
	fmt.Println("concurrent wrapper probes first and serves aligned repeats in parallel.")
}
