package serve

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"crackstore/internal/engine"
	"crackstore/internal/store"
)

// gatedEngine is a minimal engine whose Query blocks for a configurable
// delay — a stand-in for a crack that takes much longer than the serving
// deadline. QueryRO always refuses, so under the Concurrent wrapper every
// query takes the slow exclusive path, like a real cold crack would.
type gatedEngine struct {
	delay time.Duration
	calls atomic.Int64
}

func (g *gatedEngine) Name() string { return "gated" }
func (g *gatedEngine) Kind() engine.Kind {
	return engine.Scan
}

func (g *gatedEngine) Query(q engine.Query) (engine.Result, engine.Cost) {
	g.calls.Add(1)
	time.Sleep(g.delay)
	return engine.Result{N: 1, Cols: map[string][]store.Value{"B": {1}}}, engine.Cost{}
}

func (g *gatedEngine) QueryRO(q engine.Query) (engine.Result, engine.Cost, bool) {
	return engine.Result{}, engine.Cost{}, false
}
func (g *gatedEngine) Insert(vals ...store.Value) int        { return 0 }
func (g *gatedEngine) Delete(key int)                        {}
func (g *gatedEngine) Prepare(attrs ...string) time.Duration { return 0 }
func (g *gatedEngine) Storage() int                          { return 0 }
func (g *gatedEngine) JoinInput(preds []engine.AttrPred, joinAttr string, projs []string) (engine.JoinInput, engine.Cost) {
	return engine.JoinInput{}, engine.Cost{}
}

var slowQuery = engine.Query{
	Preds: []engine.AttrPred{{Attr: "A", Pred: store.Range(0, 10)}},
	Projs: []string{"B"},
}

// TestTimeoutDuringExecution: the query is already executing when the
// deadline expires. Do must return ErrTimeout long before the execution
// finishes, the execution must release its slot in the background (a
// follow-up query gets a slot), and the timeout must count in Errors.
func TestTimeoutDuringExecution(t *testing.T) {
	g := &gatedEngine{delay: 600 * time.Millisecond}
	srv := New(g, Options{Workers: 1, Timeout: 40 * time.Millisecond})
	t0 := time.Now()
	_, _, err := srv.Do(slowQuery)
	took := time.Since(t0)
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("want ErrTimeout, got %v", err)
	}
	if took >= g.delay {
		t.Fatalf("Do blocked %v — the full execution time; the deadline did not detach", took)
	}
	// Close waits for the detached execution: afterwards the slot has
	// been released and the stats are final.
	srv.Close()
	st := srv.Stats()
	if st.Errors != 1 {
		t.Fatalf("Errors = %d, want 1", st.Errors)
	}
	if st.Queries != 0 {
		t.Fatalf("timed-out query also counted as a success (Queries = %d)", st.Queries)
	}
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want 1", got)
	}
}

// TestTimeoutWhileQueued: one slow query occupies the only worker slot;
// queries stacked behind it must time out without ever touching the
// engine — the skip that keeps a wedged queue from executing a backlog of
// already-abandoned work.
func TestTimeoutWhileQueued(t *testing.T) {
	g := &gatedEngine{delay: 600 * time.Millisecond}
	srv := New(g, Options{Workers: 1, Timeout: 60 * time.Millisecond})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // the wedger
		defer wg.Done()
		srv.Do(slowQuery)
	}()
	time.Sleep(20 * time.Millisecond) // let it take the slot
	const waiters = 4
	timeouts := make(chan error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, _, err := srv.Do(slowQuery)
			timeouts <- err
		}()
	}
	wg.Wait()
	for i := 0; i < waiters; i++ {
		if err := <-timeouts; !errors.Is(err, ErrTimeout) {
			t.Fatalf("waiter got %v, want ErrTimeout", err)
		}
	}
	srv.Close()
	if got := g.calls.Load(); got != 1 {
		t.Fatalf("engine executed %d times, want 1 (abandoned waiters must not execute)", got)
	}
	st := srv.Stats()
	// The wedger itself also timed out (delay >> timeout).
	if st.Errors != waiters+1 {
		t.Fatalf("Errors = %d, want %d", st.Errors, waiters+1)
	}
}

// TestTimeoutAccountingExactlyOnce: under a racy mix of queries that finish
// just around the deadline, every Do call is accounted exactly once —
// Queries + Errors equals the number of calls, regardless of which side of
// the deadline each one landed on.
func TestTimeoutAccountingExactlyOnce(t *testing.T) {
	g := &gatedEngine{delay: 2 * time.Millisecond}
	srv := New(g, Options{Workers: 2, Timeout: 2 * time.Millisecond})
	const calls = 200
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < calls/8; j++ {
				srv.Do(slowQuery)
			}
		}()
	}
	wg.Wait()
	srv.Close()
	st := srv.Stats()
	if st.Queries+st.Errors != calls {
		t.Fatalf("Queries(%d) + Errors(%d) = %d, want %d",
			st.Queries, st.Errors, st.Queries+st.Errors, calls)
	}
}

// TestLatencyWindowBoundsHistory: with LatencyWindow set, the retained
// sample count is bounded while Queries and QPS keep counting everything —
// the invariant that keeps a long-running daemon's memory flat.
func TestLatencyWindowBoundsHistory(t *testing.T) {
	g := &gatedEngine{}
	srv := New(g, Options{Workers: 1, LatencyWindow: 8})
	defer srv.Close()
	const n = 30
	for i := 0; i < n; i++ {
		if _, _, err := srv.Do(slowQuery); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Queries != n {
		t.Fatalf("Queries = %d, want %d (window must not shrink the count)", st.Queries, n)
	}
	if len(st.Latencies) != 8 {
		t.Fatalf("retained %d samples, want the 8-sample window", len(st.Latencies))
	}
	if st.QPS <= 0 || st.P50 <= 0 {
		t.Fatalf("window stats implausible: %+v", st)
	}
}

// TestDefaultLatencyWindow: a server built with default options keeps a
// bounded history too, so an in-process server does not grow 8 B per query
// forever; Queries still counts every query.
func TestDefaultLatencyWindow(t *testing.T) {
	srv := New(&gatedEngine{}, Options{Workers: 1})
	defer srv.Close()
	const extra = 100
	for i := 0; i < defaultLatencyWindow+extra; i++ {
		if _, _, err := srv.Do(slowQuery); err != nil {
			t.Fatal(err)
		}
	}
	st := srv.Stats()
	if st.Queries != defaultLatencyWindow+extra {
		t.Fatalf("Queries = %d, want %d", st.Queries, defaultLatencyWindow+extra)
	}
	if len(st.Latencies) != defaultLatencyWindow {
		t.Fatalf("retained %d samples, want the default %d-sample window", len(st.Latencies), defaultLatencyWindow)
	}
}

// TestNoTimeoutFastQueries: with a deadline comfortably above the execution
// time nothing times out and results flow normally.
func TestNoTimeoutFastQueries(t *testing.T) {
	g := &gatedEngine{}
	srv := New(g, Options{Workers: 2, Timeout: 5 * time.Second})
	for i := 0; i < 20; i++ {
		res, _, err := srv.Do(slowQuery)
		if err != nil {
			t.Fatalf("%v", err)
		}
		if res.N != 1 {
			t.Fatalf("N = %d, want 1", res.N)
		}
	}
	srv.Close()
	st := srv.Stats()
	if st.Queries != 20 || st.Errors != 0 {
		t.Fatalf("stats %d/%d, want 20/0", st.Queries, st.Errors)
	}
}
