package crack

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"crackstore/internal/store"
)

// Benchmarks for the read-only fast path: a probe-hit answers a warm
// predicate entirely under a shared lock (SelectRO), while a probe-miss
// falls back to the exclusive cracking path (Select). Goroutine counts
// 1/4/16 show how the shared-lock path scales with available cores while the
// miss path serializes.

func warmCol(n, pool int) (*Col, []store.Pred) {
	rng := rand.New(rand.NewSource(5))
	vals := make([]Value, n)
	for i := range vals {
		vals[i] = rng.Int63n(int64(n))
	}
	c := NewCol(store.NewColumn("A", vals))
	preds := make([]store.Pred, pool)
	for i := range preds {
		lo := rng.Int63n(int64(n - n/100))
		preds[i] = store.Range(lo, lo+int64(n/1000)+1)
		c.Select(preds[i])
	}
	return c, preds
}

func BenchmarkProbeHit(b *testing.B) {
	for _, gor := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gor), func(b *testing.B) {
			c, preds := warmCol(100_000, 64)
			var mu sync.RWMutex
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / gor
			for g := 0; g < gor; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for i := 0; i < per; i++ {
						mu.RLock()
						keys, ok := c.SelectRO(preds[(g+i)%len(preds)])
						mu.RUnlock()
						if !ok || len(keys) == 0 {
							panic("probe-hit benchmark missed")
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

func BenchmarkProbeMiss(b *testing.B) {
	for _, gor := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("goroutines=%d", gor), func(b *testing.B) {
			// A huge value domain keeps every generated predicate cold, so
			// each query misses the probe and pays the exclusive crack.
			const n = 100_000
			rng := rand.New(rand.NewSource(9))
			vals := make([]Value, n)
			for i := range vals {
				vals[i] = rng.Int63n(1 << 40)
			}
			c := NewCol(store.NewColumn("A", vals))
			var mu sync.RWMutex
			var seq int64
			var seqMu sync.Mutex
			next := func() store.Pred {
				seqMu.Lock()
				seq++
				lo := seq * 997 // distinct, never-repeating ranges
				seqMu.Unlock()
				return store.Range(lo<<20, lo<<20+1<<18)
			}
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / gor
			for g := 0; g < gor; g++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := 0; i < per; i++ {
						pred := next()
						mu.RLock()
						_, ok := c.SelectRO(pred)
						mu.RUnlock()
						if ok {
							continue // unexpectedly warm; nothing to crack
						}
						mu.Lock()
						c.Select(pred)
						mu.Unlock()
					}
				}()
			}
			wg.Wait()
		})
	}
}
