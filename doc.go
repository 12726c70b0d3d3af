// Package crackstore is a from-scratch Go implementation of
// "Self-organizing Tuple Reconstruction in Column-stores" (Idreos, Kersten,
// Manegold; SIGMOD 2009): partial sideways cracking and every substrate it
// builds on.
//
// A column-store answers multi-attribute queries by reconstructing tuples
// from per-attribute columns — a join on tuple IDs that dominates query
// cost once selections stop being order-preserving. The paper's answer is
// sideways cracking: auxiliary two-column cracker maps M_AB (attribute A
// alongside attribute B) that are physically reorganized a little more by
// every query, so qualifying tuples of all needed attributes end up
// clustered and positionally aligned, making reconstruction a slice rather
// than a scattered gather. Partial sideways cracking materializes those
// maps lazily, chunk by chunk, so the structure adapts to the workload
// under a storage budget.
//
// The package exposes six interchangeable engines over the same relation
// and query model:
//
//	e := crackstore.Open(crackstore.Sideways, rel)
//	res, cost := e.Query(crackstore.Query{
//	    Preds: []crackstore.AttrPred{{Attr: "A", Pred: crackstore.Range(10, 20)}},
//	    Projs: []string{"B", "C"},
//	})
//
// Engines: Scan (plain column-store), SelCrack (selection cracking,
// CIDR 2007), Presorted (presorted copies), Sideways (Section 3),
// PartialSideways (Section 4) and RowStore (an N-ary reference engine).
// All support the same insert/delete API; cracking engines merge updates
// lazily with the Ripple algorithm (SIGMOD 2007).
//
// All cracking engines share one kernel (internal/crack). A range selection
// whose bounds fall into the same uncracked piece — always the case for the
// first query on a cold column — is resolved by one crack-in-three (a
// single classification pass fixing both split positions, then a
// movement-optimal cycle repair that stores every misplaced tuple exactly
// once) rather than two crack-in-two traversals, and pending insertions
// are merged in batches (one boundary walk and one piece-wise ripple per
// batch instead of one per tuple). The partition inner loops are
// branch-free by default: classification is a 0/1 accumulation and
// misplaced positions are block-compacted into index buffers and swapped
// unconditionally, so throughput does not collapse on random data the way
// a per-tuple branchy loop's does (~2x faster in the kernel
// microbenchmarks). All fast paths are deterministic pure functions of
// (piece contents, operation), which preserves the alignment invariant
// sideways cracking depends on: maps that replay the same cracker tape
// stay physically identical.
//
// # Adaptive cracking policies
//
// Plain cracking converges only as fast as the workload lets it: every
// boundary comes from a query bound, so the sequential sweeps and
// zoom-ins interactive exploration actually produces leave one huge
// uncracked piece that every query re-scans — cumulative cost degrades
// toward quadratic. CrackPolicy breaks that dependence (the stochastic
// cracking remedy of Halim, Idreos, Karras & Yap, VLDB 2012): when a
// crack targets a piece larger than a configurable cap, the piece is
// first split at auxiliary pivots — median-of-sample values under
// StochasticCracking, value-range midpoints under CappedCracking — that
// are recorded in the cracker index like any other boundary, so probes
// and read-only selects benefit from them immediately:
//
//	e := crackstore.OpenWithPolicy(crackstore.SelCrack, rel,
//	    crackstore.CrackPolicy{Kind: crackstore.StochasticCracking})
//
// Policies thread through every layer: SetCrackPolicy applies one to an
// existing engine (including Concurrent/Serialized wrappers),
// ShardOptions.Policy configures every shard, and ServeOptions.Policy
// configures a served engine. Pick StochasticCracking for unknown or
// adversarial access patterns (duplicate-heavy and skewed pieces split
// well because pivots are sampled from the data); CappedCracking when
// deterministic pivot placement matters more (uniform data, reproducible
// layouts without a seed); the default when queries are already uniformly
// spread, where auxiliary pivots only add constant overhead. Policies are
// part of the deterministic layout, so structures that replay shared
// tapes freeze the policy at set creation — configure engines before
// their first query. On a 100k-tuple, 1000-query sequential sweep the
// stochastic policy answers the workload ~16x faster cumulatively than
// plain cracking while staying at or below plain cracking's cost on
// uniform random workloads (committed bench/BENCH_adaptive_workloads.json,
// regenerated by crackbench -policy all -pattern all).
//
// # Concurrent serving
//
// Cracking makes reads into writes, so the paper's engines assume a single
// query executor. Every engine states once, in Engine.QueryRO, whether a
// query can be answered without reorganizing: QueryRO executes it without
// mutating state, or declines when the query would crack a piece, merge a
// pending update, or build or align an auxiliary structure. Concurrent
// wraps an engine with a read-write lock built on that rule — aligned
// repeat queries run in parallel under the shared lock, and only queries
// whose QueryRO declines serialize behind the exclusive lock, where
// QueryRO runs once more before Query (so one crack pays for every
// waiting reader):
//
//	shared := crackstore.Concurrent(e)   // safe for any number of goroutines
//	srv := crackstore.Serve(shared, crackstore.ServeOptions{Workers: 8})
//	res, cost, err := srv.Do(q)          // from any client goroutine
//
// Serve adds a bounded multi-client executor with per-query latency
// capture. The fully serialized single-mutex wrapper remains available as
// Serialized for benchmarking (crackbench -clients N measures both).
//
// Serving statistics (ServeStats) use conservative nearest-rank
// percentiles — the fractional rank is rounded upward, never truncated to
// a rank below the percentile — measure elapsed time from the earliest
// submission, and count failed queries in Errors rather than silently
// shrinking the run.
//
// # Concurrency model
//
// Three wrappers make an engine shared-safe; they trade write-path cost
// for read-path isolation:
//
//   - Serialized: one mutex around every operation. Zero per-version
//     overhead and the simplest possible reasoning; every query — read or
//     crack — waits its turn. Appropriate for single-client embedding and
//     as the honest baseline in benchmarks.
//
//   - Concurrent: the QueryRO-first read-write lock above. Aligned warm
//     reads share the lock and scale with cores, but any query that
//     cracks, or whose range matches a pending insertion, takes (or
//     waits for) the exclusive lock — so read tail latency inherits the
//     duration of whatever reorganization is in flight. Appropriate when
//     the workload is overwhelmingly warm repeats and writes are rare.
//
//   - Snapshot: multi-versioned cracked state with epoch-based
//     reclamation. Writers build repartitioned pieces aside and publish
//     each reorganization as a new immutable version behind an atomic
//     pointer; readers pin an epoch, traverse the version they loaded
//     without taking any lock, and apply the (bounded) pending-update
//     backlog virtually; retired versions are reclaimed once the last
//     epoch that could see them has exited. Reads never wait for cracks:
//     under a continuously cracking-and-inserting writer, read p99 stays
//     within noise of a writer-free baseline while the RWMutex wrapper's
//     p99 inflates by the full crack+merge duration (hundreds of times
//     worse at GOMAXPROCS >= 2 in the committed bench/BENCH_mvcc_reads.json,
//     regenerated by crackbench -mvcc). A version keeps its pieces in a
//     chunked piece table: chunks of at most 64 pieces and their cuts
//     under a flat directory of each chunk and its leading cut, so a cut
//     lookup is two binary searches. A write copies only what it changes:
//     queuing a pending insert or delete shares the whole table, and a
//     crack or merge copies the pieces it rewrites, the chunks holding
//     them and the chunk directory — O(changed + pieces/64), not
//     O(pieces). Pending inserts and deletes are both kept sorted by value
//     (a delete carries the deleted row's value), so a read finds the ones
//     in its range by binary search and a merge visits only the pieces
//     that hold them. The remaining write cost is the piece copy per
//     crack. Appropriate whenever reads must meet a latency target while
//     the store keeps adapting — the common case this package exists for.
//     Implemented for SelCrack engines; other kinds fall back to
//     Concurrent.
//
// ServeOptions.Snapshot selects the Snapshot wrapper in the serving
// layer, crackserved -snapshot selects it in the daemon, and
// ConcurrencyStats exposes the Concurrent wrapper's contention counters
// (reader wait time). Snapshot readers never block, so that wrapper
// reports no contention; its versions published and reclaimed are the
// daemon's crack_snapshot_* metrics.
//
// # Sharding
//
// One Concurrent engine still funnels every crack through a single write
// lock. Sharded splits the relation across n inner engines, each behind
// its own Concurrent wrapper:
//
//	e := crackstore.Sharded(crackstore.Sideways, rel, 4, crackstore.ShardOptions{Attr: "A"})
//	srv := crackstore.Serve(e, crackstore.ServeOptions{Workers: 16})
//
// Rows are range-partitioned on the chosen attribute (boundaries at the
// base data's n-quantiles), so conjunctive queries constraining that
// attribute are pruned to the shards whose value bands can intersect the
// predicate — a crack on one shard never blocks read-only hits on the
// others, and pruned shards are not touched at all. When the attribute
// cannot form n distinct bands (few distinct values, empty relation) or
// ShardOptions.Hash is set, partitioning falls back to hashing, which
// still spreads load and prunes point predicates but cannot prune ranges.
// Inserts and deletes route to the owning shard; global tuple keys are
// preserved. The sharded engine is already shared-safe — Serve and
// Concurrent use it as-is (crackbench -shards S -clients N measures it).
//
// # Remote serving
//
// Everything above runs in one process. The remote-serving subsystem puts
// a network boundary in front of the serving layer, so the self-organizing
// store can be deployed as a daemon and reached from other processes and
// machines:
//
//	// server process (or: crackserved -addr :9090 -rows 1000000)
//	srv, _ := crackstore.ListenAndServe(":9090", e, crackstore.NetServeOptions{
//	    Serve: crackstore.ServeOptions{Workers: 8, Timeout: time.Second},
//	})
//	// client process
//	c, _ := crackstore.Dial("db-host:9090", crackstore.DialOptions{Conns: 2})
//	res, cost, err := c.Query(q) // same types as Engine.Query
//
// The protocol (internal/wire) is length-prefixed binary: a self-validating
// 12-byte frame header (payload length, the length again masked by a
// per-format constant, and a CRC32 of the payload — the internal/codec
// frame the WAL uses too), then a message-type byte, a request-ID varint,
// and the body. The masked length echo is checked before
// the length is trusted, so a corrupted header fails immediately instead of
// mis-framing the stream and stalling the reader on bytes that never
// arrive. Scalars are varints; result columns are fixed 8-byte words (on a
// loopback or datacenter link the path is CPU-bound, so fast en/decoding
// beats small frames). Because every request carries an ID and responses
// return in completion order, one connection pipelines many in-flight
// requests — a crack in progress does not stall the read-only answers
// behind it. Decoding is strict and fuzz-pinned: corrupt, truncated, or
// oversized frames are rejected without panics or unbounded allocation,
// and a malformed peer costs only its own connection.
//
// Server-side, each connection runs one reader and one writer goroutine;
// decoded queries dispatch into the same serve.Server the in-process path
// uses (bounded workers, latency stats), with warm
// read-only queries answered inline on the reader to spare a goroutine
// handoff. ServeOptions.Timeout bounds every query with a distinct
// ErrServeTimeout counted in the stats; a query that overruns its deadline
// finishes in the background without leaking its worker slot, so the
// connection's pipeline keeps moving. Close drains gracefully.
//
// Choose Dial when the engine must live elsewhere — shared across app
// instances, or sized beyond the client machine; choose Open/Serve when
// embedding in-process, which skips the wire entirely (the protocol costs
// ~10µs/query of CPU at saturation on one core, amortized by pipelining;
// an adapting 2M-row workload with 10% cold cracks serves at ~0.3-0.5x the
// in-process rate over loopback on a single shared core, with comparable
// tail latency — bench/BENCH_remote_serving.json, regenerated by
// crackserved + crackbench -remote). A remote client replaying the same
// workload gets byte-identical results to in-process execution for every
// engine kind, sharded or not (the answer-equivalence test pins this).
//
// # Resilience
//
// The remote path assumes the network lies: connections corrupt, stall,
// truncate, and die, and the store must neither return a wrong answer nor
// apply a write twice because of it. Corruption anywhere in a frame —
// header or payload — is caught by the self-validating header and payload
// CRC, kills only that connection, and surfaces to the client as a
// retryable connection error, never as silent data damage.
//
// The client retries transparently: reads and never-sent requests retry on
// a fresh pooled connection with exponential backoff, full jitter, and a
// bounded budget (DialOptions.MaxRetries/RetryBase/RetryMax); writes whose
// fate is unknown — the request hit the wire but the response never came —
// carry an idempotency token, and the server's dedup window replays the
// recorded response for a token it has already executed instead of
// applying the write again, so a retried insert lands exactly once.
// DialOptions.Hedge adds hedged reads for read-only queries: a duplicate
// is fired at a second connection once the first is slower than an
// adaptive p99-derived delay, and the first answer wins. Counters
// (RemoteClient.Counters) expose retries, hedges, sheds, and redials — a
// chaos run whose counters stay zero exercised nothing.
//
// The server protects itself under overload instead of queueing without
// bound: ServeOptions.MaxWaiting and NetServeOptions.MaxInflight draw an
// in-band "overloaded" response (ErrServeOverloaded in process,
// ErrRemoteOverloaded once a remote client's retry budget is spent) at
// the admission watermark, so a saturated server answers cheaply and
// stays responsive — the committed chaos benchmark
// (bench/BENCH_chaos_resilience.json, regenerated by crackbench -chaos)
// shows ~96% of fault-free throughput at a 1% injected fault rate with
// retries on, zero residual errors up to 5% faults, and a 2x-overloaded
// server shedding in-band while every query still completes through
// retries. The fault injector itself is internal/faultnet (also behind
// crackserved -fault-rate), and a remote-vs-local equivalence test runs
// the full stack through it asserting byte-identical answers and
// exactly-once writes under 1-5% fault rates.
//
// # Durability
//
// A cracked store is expensive to lose: the base data could be reloaded,
// but the adaptive layout — every boundary thousands of queries paid for —
// would have to be re-earned one crack at a time. OpenDurable makes both
// survive a process death:
//
//	e, _ := crackstore.OpenDurable(crackstore.SelCrack, rel, "/var/lib/crack",
//	    crackstore.DurableOptions{Sync: crackstore.WALSyncGroup})
//	defer crackstore.CloseDurable(e)
//
// The durable engine is the Concurrent wrapper with a write-ahead hook:
// the same QueryRO-first read lock serves reads, and inside its writer
// critical section the hook appends every Insert and Delete to a
// write-ahead log before it is applied (log order is apply order, so
// replay reproduces tuple keys) and records every reorganizing query on a
// crack tape — the redo log of the layout itself — before it runs. Acks
// wait for durability outside the lock. WAL records and the checkpoint are
// internal/codec frames, the wire protocol's self-validating framing
// (length, masked length echo, payload CRC32) under the WAL's own mask,
// so a torn tail, a zero-filled preallocation, or a flipped bit truncates
// the log at the last intact record instead of replaying garbage; both
// formats decode through codec's one strict decoder, and it is
// fuzz-pinned (no panics, no unbounded allocation, decode/encode fixed
// point, longest-valid-prefix recovery at every byte offset).
//
// Recovery loads the newest checkpoint (base columns, tombstones, and the
// tape, written atomically via temp-file rename), replays the tape so the
// cracker index comes back warm, then applies the WAL tail. Checkpoints
// rotate the log into per-checkpoint segments (wal.00000001.log, ...), so
// file identity — not offsets — decides which records postdate the
// checkpoint, and a crash anywhere in the rotation recovers from exactly
// one consistent (checkpoint, segment) pair. A clean Close leaves a marker
// that lets the next open skip replay entirely; the committed
// bench/BENCH_durability.json (regenerated by crackbench -durable) shows a
// warm restart answering its first-query battery ~40x faster than a cold
// rebuild that must re-crack from scratch.
//
// DurableOptions.Sync picks the ack contract: WALSyncGroup (default)
// blocks each ack on an fsync covering its record, with concurrent writers
// sharing fsyncs (group commit); WALSyncAlways syncs eagerly per record;
// WALSyncNone acks immediately and risks the tail. After any storage
// error the log poisons — every later write is refused with a -1 key
// rather than acked on a log whose durable prefix is unknowable. The
// crash-point property test kills a logged workload at every byte offset
// of its WAL and asserts zero acked-write loss, no phantom rows, and
// answer equivalence to a never-crashed twin — also under injected torn
// writes, short writes, and fsync failures (internal/faultnet's seeded
// fault core, shared between network connections and the faultfs file
// wrapper). crackserved -data-dir serves a durable engine, logs whether
// startup recovery was clean or replayed, and its SIGTERM drain
// checkpoints and marks clean; CI's crash-recovery job SIGKILLs the
// daemon mid-churn and verifies every acked insert survives exactly once.
//
// The cmd/crackbench and cmd/tpchbench tools regenerate every table and
// figure of the paper's evaluation; see DESIGN.md for the experiment index
// and EXPERIMENTS.md for measured results.
//
// # Observability
//
// A self-organizing store makes decisions continuously — every query may
// reorganize data — so operating one means being able to see what it is
// deciding. internal/obs is the stdlib-only observability core: atomic
// counters and gauges, fixed-bucket log₂ latency histograms (Observe is a
// few atomic ops, no locks, no allocation), and a named Registry that
// exposes everything as Prometheus text (version 0.0.4) or JSON.
// Pre-existing stats structs (serve.Stats, engine.ConcStats/DurStats,
// wal.Stats, the kernel counters) are bridged with func-backed metrics
// whose closures run at scrape time only, so instrumentation costs the
// hot path nothing. The committed bench/BENCH_observability.json
// (regenerated by crackbench -obs) pins that contract: instrumented-and-
// continuously-scraped throughput within a few percent of uninstrumented.
//
// Families are named crack_<layer>_<what>[_unit] — layers kernel, index,
// engine, snapshot, wal, serve, net, client — with counters suffixed
// _total and durations in seconds; a histogram family also exports an
// exact _max companion gauge. `crackserved -metrics-addr :9191` mounts
// /metrics (text; ?format=json for the JSON twin) and net/http/pprof on a
// separate mux, so profiling and scraping never contend with the data
// port. `cracktrace -metrics host:9191` turns the JSON exposition into a
// live delta report: counters as per-second rates, histograms with
// current p50/p99/max, idle families suppressed.
//
// Tracing is per-query and sampled. A client dialed with
// DialOptions.TraceSample: N negotiates protocol v2 via a hello exchange
// (an old server fails the hello in-band and the client silently
// downgrades — tracing off, queries unaffected), then tags 1-in-N
// requests with a trace ID that rides a wire extension. The server times
// the tagged query's life as spans — queue wait, execute, the crack
// share of execution (engine Cost.Sel), response encode — returns them
// in the response, and the client re-anchors them into its own timeline
// bracketed by client_send/client_recv spans, delivering one
// obs.Trace to DialOptions.OnTrace. `crackserved -trace-sample N`
// additionally samples server-side (events as one-line JSON on stderr),
// and `crackbench -remote addr -trace N` prints the slowest traces of a
// run. The signals this layer exposes — piece counts, crack rates, queue
// and crack span shares — are exactly the inputs a future adaptive
// tuner (merge-like reorganization scheduling, admission control) would
// observe; see ROADMAP.md.
//
// # Invariants
//
// The concurrency and protocol contracts the runtime layers rely on are
// machine-checked by cmd/crackvet (internal/vet), a stdlib-only static
// analyzer CI runs over the whole tree; `go run ./cmd/crackvet ./...`
// must exit clean. The six contracts:
//
//   - epochpin: every Pin returned by crack.Epoch.Enter is released with
//     Exit on every path out of the acquiring function — deferred, or with
//     provably nothing that can panic between Enter and Exit — and never
//     escapes the frame. A leaked pin blocks version reclamation forever;
//     an escaped pin can be Exited twice, freeing a slot another reader
//     now occupies.
//   - frozenversion: nothing reachable from a value loaded from an
//     atomic.Pointer — a published snapshot version — is ever written.
//     Readers traverse versions lock-free with no way to observe a fix-up;
//     the only legal write path is copy, mutate the copy, publish.
//   - lockpair: sync.Mutex/RWMutex acquisitions pair with their releases
//     on every path of the acquiring function, in the same mode (Lock with
//     Unlock, RLock with RUnlock), and a held lock is never re-acquired —
//     the self-deadlock Go's runtime only reports at execution time.
//   - wirebounds: inside internal/codec, internal/wire and internal/wal,
//     every decode-side preallocation size derives from the shared
//     decoder's bounded count, codec.Decoder.Count (or an explicit bound
//     guard), so a corrupt 5-byte length prefix or a CRC-valid WAL record
//     cannot demand a multi-gigabyte allocation before validation.
//   - exhaustive: switches over wire.Op, wire.Status, engine.Kind,
//     wal.RecType, and obs.Stage either cover every declared constant or
//     carry an explicit default arm, so growing an enum cannot make a
//     dispatcher drop a request — or recovery silently skip a logged
//     write.
//   - detrand: internal/crack, internal/sideways, and internal/partial
//     never read the wall clock or the global math/rand state (explicitly
//     seeded local generators are fine); replaying a crack tape must
//     reproduce the exact layout of the run that recorded it.
//
// A finding is suppressed with a `//crackvet:ignore check-name reason`
// comment on the offending line or the line above it. Suppressions are
// counted in CI logs and budgeted — at most three in the tree, enforced by
// the internal/vet tests — so exceptions stay rare and documented.
package crackstore
