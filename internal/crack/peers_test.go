package crack

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"crackstore/internal/crackindex"
	"crackstore/internal/store"
)

// peerPred draws a predicate over [0, domain) that sometimes takes one of
// the edge shapes CrackRange treats specially: an empty range, an
// inclusive upper bound at MaxInt64 (the non-representable boundary), and
// a full-domain range.
func peerPred(rng *rand.Rand, domain int64) store.Pred {
	switch rng.Intn(8) {
	case 0:
		lo := rng.Int63n(domain)
		return store.Pred{Lo: lo, Hi: math.MaxInt64, LoIncl: rng.Intn(2) == 0, HiIncl: true}
	case 1:
		lo := rng.Int63n(domain)
		return store.Pred{Lo: lo + 3, Hi: lo, LoIncl: true, HiIncl: true}
	case 2:
		return store.Pred{Lo: math.MinInt64, Hi: math.MaxInt64, LoIncl: true, HiIncl: true}
	}
	p := randPred(rng, domain)
	p.LoIncl, p.HiIncl = rng.Intn(2) == 0, rng.Intn(2) == 0
	return p
}

// TestCrackRangePeersMatchIndependent pins CrackRange's peer contract:
// with k peers, the leader and every peer end up byte-identical (head,
// tail, index boundaries, returned area) to the same pairs cracked alone,
// under every policy (auxiliary pivots included), under the predicated and
// the branchy kernel (the branchy one is also the > MaxInt32 fallback),
// through ripple inserts and deletes applied between cracks. It also pins
// the accounting rule of KernelStats: the leader counts what cracking
// alone counts, and a peer counts only Moved and Aux.
func TestCrackRangePeersMatchIndependent(t *testing.T) {
	const n, domain = 600, 200
	policies := []Policy{
		{},
		{Kind: Stochastic, Cap: 24, Seed: 9},
		{Kind: Capped, Cap: 24},
	}
	for seed := int64(1); seed <= 6; seed++ {
		for _, pol := range policies {
			for _, branchy := range []bool{false, true} {
				for _, k := range []int{0, 1, 3} {
					rng := rand.New(rand.NewSource(seed))
					head := make([]Value, n)
					for i := range head {
						head[i] = Value(rng.Int63n(domain))
					}
					// Every column has its own tail, so a tail moved by the
					// wrong schedule shows up.
					mk := func(c int) *Pairs {
						tail := make([]Value, n)
						for i := range tail {
							tail[i] = Value(i*10 + c)
						}
						p := WrapPairs(slices.Clone(head), tail)
						p.Policy = pol
						p.Branchy = branchy
						return p
					}
					group := make([]*Pairs, k+1) // group[0] leads
					alone := make([]*Pairs, k+1)
					for c := range group {
						group[c], alone[c] = mk(c), mk(c)
					}
					for step := 0; step < 40; step++ {
						switch rng.Intn(6) {
						case 0: // one ripple insert, applied to every column
							v := Value(rng.Int63n(domain))
							for c := range group {
								group[c].RippleInsert(v, Value(-step*10-c))
								alone[c].RippleInsert(v, Value(-step*10-c))
							}
						case 1: // one ripple delete
							pos := rng.Intn(group[0].Len())
							for c := range group {
								group[c].RippleDelete(pos)
								alone[c].RippleDelete(pos)
							}
						default:
							pred := peerPred(rng, domain)
							lo, hi := group[0].CrackRange(pred, group[1:]...)
							for c := range group {
								alo, ahi := alone[c].CrackRange(pred)
								if alo != lo || ahi != hi {
									t.Fatalf("seed %d %v branchy=%v k=%d step %d %v: column %d area (%d,%d), alone (%d,%d)",
										seed, pol.Kind, branchy, k, step, pred, c, lo, hi, alo, ahi)
								}
							}
						}
						for c := range group {
							g, a := group[c], alone[c]
							if !slices.Equal(g.Head, a.Head) || !slices.Equal(g.Tail, a.Tail) || !sameBoundaries(g, a) {
								t.Fatalf("seed %d %v branchy=%v k=%d step %d: column %d diverged from cracking alone",
									seed, pol.Kind, branchy, k, step, c)
							}
						}
					}
					if !group[0].CheckPieces() {
						t.Fatal("piece invariant violated")
					}
					if group[0].Stats != alone[0].Stats {
						t.Fatalf("leader stats %+v, alone %+v", group[0].Stats, alone[0].Stats)
					}
					for c := 1; c <= k; c++ {
						want := KernelStats{Moved: alone[c].Stats.Moved, Aux: alone[c].Stats.Aux}
						if group[c].Stats != want {
							t.Fatalf("peer %d stats %+v, want %+v", c, group[c].Stats, want)
						}
					}
					if pol.Kind != Default && alone[0].Stats.Aux == 0 {
						t.Fatalf("%v: no auxiliary pivot exercised", pol.Kind)
					}
				}
			}
		}
	}
}

// TestCrackRangeRejectsBadPeers checks the cheap aliasing and alignment
// guards: a peer that is the leader or repeats would receive every move
// twice, and one of another length or policy cannot be aligned.
func TestCrackRangeRejectsBadPeers(t *testing.T) {
	mk := func(n int) *Pairs {
		rng := rand.New(rand.NewSource(1))
		return randPairs(rng, n, 50)
	}
	p, q := mk(100), mk(100)
	short := mk(99)
	other := mk(100)
	other.Policy = Policy{Kind: Capped}
	for name, peers := range map[string][]*Pairs{
		"leader":   {p},
		"repeated": {q, q},
		"length":   {short},
		"policy":   {other},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: CrackRange accepted the peers", name)
				}
			}()
			p.CrackRange(store.Range(10, 20), peers...)
		}()
	}
}

// BenchmarkCrackRangePeers measures one cold crack-in-three of a 1M-tuple
// piece with 0, 1 and 3 peers: the leader pays the classification, each
// peer only the mirrored moves, so the per-peer cost shows what aligned
// maps save over cracking each one alone (the 0-peer case).
func BenchmarkCrackRangePeers(b *testing.B) {
	const n = 1 << 20
	rng := rand.New(rand.NewSource(1))
	head := make([]Value, n)
	tail := make([]Value, n)
	for i := range head {
		head[i] = Value(rng.Int63n(n))
		tail[i] = Value(i)
	}
	pred := store.Range(n/4, n/4+n/100)
	for _, k := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("peers=%d", k), func(b *testing.B) {
			group := make([]*Pairs, k+1)
			for c := range group {
				group[c] = WrapPairs(make([]Value, n), make([]Value, n))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				for _, p := range group {
					copy(p.Head, head)
					copy(p.Tail, tail)
					p.Idx = crackindex.New()
				}
				b.StartTimer()
				group[0].CrackRange(pred, group[1:]...)
			}
		})
	}
}
