// Package engine provides a uniform query executor over the physical
// designs the paper compares:
//
//	Scan            — plain column-store (MonetDB baseline): full scans,
//	                  order-preserving selects, positional reconstruction
//	SelCrack        — selection cracking (CIDR 2007): cracker columns,
//	                  unordered results, random-access reconstruction
//	Presorted       — presorted copies: binary search + aligned slices,
//	                  heavy Prepare step, updates force re-sorting
//	Sideways        — sideways cracking with full maps (Section 3)
//	PartialSideways — partial sideways cracking (Section 4)
//	RowStore        — N-ary row-store reference (read-only, Figure 14)
//
// All engines answer the same Query type and support the same update API,
// so the experiment harness can replay identical workloads against each and
// compare cost profiles. Costs are split into selection (locating
// qualifying tuples) and tuple reconstruction (materializing projections),
// matching the breakdown in the paper's Section 3.6 table.
package engine

import (
	"time"

	"crackstore/internal/crack"
	"crackstore/internal/partial"
	"crackstore/internal/presort"
	"crackstore/internal/sideways"
	"crackstore/internal/store"
)

// Value aliases the kernel value type.
type Value = store.Value

// AttrPred pairs an attribute with a range predicate.
type AttrPred = store.AttrPred

// Kind identifies a physical design.
type Kind int

// The core engine kinds; RowStore is declared in rowstore.go.
const (
	Scan Kind = iota
	SelCrack
	Presorted
	Sideways
	PartialSideways
)

func (k Kind) String() string {
	switch k {
	case Scan:
		return "scan"
	case SelCrack:
		return "selcrack"
	case Presorted:
		return "presorted"
	case Sideways:
		return "sideways"
	case PartialSideways:
		return "partial"
	case RowStore:
		return "rowstore"
	}
	return "unknown"
}

// KindByName maps an engine kind's String() form ("scan", "selcrack",
// "presorted", "sideways", "partial", "rowstore") back to its Kind, for
// command-line and configuration surfaces.
func KindByName(name string) (Kind, bool) {
	for _, k := range []Kind{Scan, SelCrack, Presorted, Sideways, PartialSideways, RowStore} {
		if k.String() == name {
			return k, true
		}
	}
	return 0, false
}

// Query is a multi-selection, multi-projection query. Preds are combined
// conjunctively unless Disjunctive is set. The first predicate is treated
// as the primary (most selective) one by engines without self-organizing
// histograms; sideways engines choose their own map set.
type Query struct {
	Preds       []AttrPred
	Projs       []string
	Disjunctive bool
}

// Result holds positionally aligned projection columns.
type Result struct {
	Cols map[string][]Value
	N    int
}

// Cost is the per-query cost split used throughout the experiments.
type Cost struct {
	Sel time.Duration // locating qualifying tuples (incl. cracking/alignment)
	TR  time.Duration // tuple reconstruction of projections
}

// Total returns Sel + TR.
func (c Cost) Total() time.Duration { return c.Sel + c.TR }

// Engine is one physical design wrapping a single relation.
//
// Cracking makes reads into writes, so every engine states once, in
// QueryRO, whether a query can be answered without reorganizing: QueryRO
// executes reorganization-free queries and reports ok == false for
// queries that would crack a piece, merge a pending update, or build or
// align an auxiliary structure. Concurrent builds on it: it attempts
// every query under a shared read lock and falls back to Query under
// exclusive access only when QueryRO refuses.
type Engine interface {
	Name() string
	Kind() Kind
	// Query evaluates q and reports the cost split.
	Query(q Query) (Result, Cost)
	// QueryRO answers q without reorganizing anything. ok is false when
	// reorganization is required; callers then fall back to Query under
	// exclusive access. Safe to call concurrently with other read-only
	// operations.
	QueryRO(q Query) (Result, Cost, bool)
	// Insert appends a tuple (attribute order of the relation); returns
	// its key.
	Insert(vals ...Value) int
	// Delete removes the tuple with the given key.
	Delete(key int)
	// Prepare performs any offline preparation (presorting); returns its
	// cost. A no-op for self-organizing engines.
	Prepare(attrs ...string) time.Duration
	// Storage returns the auxiliary-structure footprint in tuples.
	Storage() int
	// JoinInput evaluates the selection side of a join plan: it returns
	// the join-attribute values of qualifying tuples and a fetcher for
	// post-join projection lookups by intermediate row index.
	JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost)
}

// JoinInput is one side of a join: the join column of qualifying tuples
// plus a post-join fetcher. For scan and selection cracking the fetcher
// reaches into full base columns (scattered access); for presorted and
// sideways designs it stays within the small clustered intermediate.
type JoinInput struct {
	JoinVals []Value
	Fetch    func(attr string, i int) Value
}

// PolicyConfigurable is implemented by engines (and their shared-safe
// wrappers) whose cracking kernel supports adaptive pivot policies
// (crack.Policy): SelCrack, Sideways and PartialSideways. SetCrackPolicy
// reports whether a cracking engine received the policy — wrappers
// forward and propagate the inner engine's answer, so a wrapped Scan
// still reports false. Policies must be configured before the first
// query touches the relevant attribute — structures that replay shared
// tapes freeze the policy at creation.
type PolicyConfigurable interface {
	SetCrackPolicy(pol crack.Policy) bool
}

// SetPolicy applies the adaptive cracking policy to e when its physical
// design cracks, reporting whether it did. Non-cracking engines (Scan,
// Presorted, RowStore) ignore policies.
func SetPolicy(e Engine, pol crack.Policy) bool {
	if pc, ok := e.(PolicyConfigurable); ok {
		return pc.SetCrackPolicy(pol)
	}
	return false
}

// NewWithPolicy constructs an engine of the given kind over rel with the
// adaptive cracking policy applied (a no-op for non-cracking kinds).
func NewWithPolicy(kind Kind, rel *store.Relation, pol crack.Policy) Engine {
	e := New(kind, rel)
	SetPolicy(e, pol)
	return e
}

// New constructs an engine of the given kind over rel (not copied).
func New(kind Kind, rel *store.Relation) Engine {
	switch kind {
	case Scan:
		return NewScan(rel)
	case SelCrack:
		return NewSelCrack(rel)
	case Presorted:
		return NewPresorted(rel)
	case Sideways:
		return NewSideways(rel)
	case PartialSideways:
		return NewPartial(rel)
	case RowStore:
		return NewRowStore(rel)
	}
	panic("engine: unknown kind")
}

// MaxPerProj reduces a result to the per-projection maxima (the aggregate
// used by queries q1-q3 in the paper's experiments). ok is false when the
// result is empty.
func MaxPerProj(res Result, projs []string) (map[string]Value, bool) {
	if res.N == 0 {
		return nil, false
	}
	out := make(map[string]Value, len(projs))
	for _, attr := range projs {
		m, _ := store.Max(res.Cols[attr])
		out[attr] = m
	}
	return out, true
}

// ---------------------------------------------------------------------------
// Scan engine: the plain column-store baseline.

type scanEngine struct {
	rel  *store.Relation
	dead map[int]bool
}

// NewScan returns the plain column-store engine (non-cracking MonetDB).
func NewScan(rel *store.Relation) Engine {
	return &scanEngine{rel: rel, dead: make(map[int]bool)}
}

func (e *scanEngine) Name() string { return "MonetDB-style scan" }
func (e *scanEngine) Kind() Kind   { return Scan }

func (e *scanEngine) Insert(vals ...Value) int {
	e.rel.AppendRow(vals...)
	return e.rel.NumRows() - 1
}

func (e *scanEngine) Delete(key int) {
	if hasRow(e.rel, key) {
		e.dead[key] = true
	}
}

func (e *scanEngine) Prepare(attrs ...string) time.Duration { return 0 }
func (e *scanEngine) Storage() int                          { return 0 }

// hasRow reports whether key names a row of rel. Every engine treats a
// delete of any other key as a no-op: a tombstone for it would only wait
// for a row that may be inserted later, and the cracking engines would keep
// a pending deletion that no merge can ever consume.
func hasRow(rel *store.Relation, key int) bool { return key >= 0 && key < rel.NumRows() }

// selectKeys returns the ordered keys matching the query's predicates.
func (e *scanEngine) selectKeys(preds []AttrPred, disjunctive bool) []int {
	n := e.rel.NumRows()
	var keys []int
	cols := make([]*store.Column, len(preds))
	for i, ap := range preds {
		cols[i] = e.rel.MustColumn(ap.Attr)
	}
	for i := 0; i < n; i++ {
		if e.dead[i] {
			continue
		}
		match := !disjunctive
		for j, ap := range preds {
			m := ap.Pred.Matches(cols[j].Vals[i])
			if disjunctive {
				match = match || m
			} else {
				match = match && m
			}
		}
		if match {
			keys = append(keys, i)
		}
	}
	return keys
}

func (e *scanEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeys(q.Preds, q.Disjunctive)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	res := Result{Cols: make(map[string][]Value, len(q.Projs)), N: len(keys)}
	for _, attr := range q.Projs {
		res.Cols[attr] = store.Reconstruct(e.rel.MustColumn(attr), keys)
	}
	cost.TR = time.Since(t0)
	return res, cost
}

func (e *scanEngine) QueryRO(q Query) (Result, Cost, bool) {
	res, cost := e.Query(q)
	return res, cost, true
}

func (e *scanEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeys(preds, false)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	jv := store.Reconstruct(e.rel.MustColumn(joinAttr), keys)
	cost.TR = time.Since(t0)
	// Capture the projection columns' slice headers now: base columns are
	// append-only (deletes are tombstones), so the snapshot stays valid for
	// every selected key even if writers append rows between fetches —
	// which lets shared-safe wrappers hand the fetcher out lock-free.
	fetchCols := fetchSnapshot(e.rel, projs, joinAttr)
	return JoinInput{
		JoinVals: jv,
		// Post-join reconstruction prompts the full base columns: the
		// qualifying tuples are scattered across the whole column.
		Fetch: func(attr string, i int) Value {
			return fetchCols.col(e.rel, attr)[keys[i]]
		},
	}, cost
}

// fetchCols is a snapshot of base-column slice headers captured when a
// JoinInput fetcher is built, so post-join fetches need no lock.
type fetchCols map[string][]Value

func fetchSnapshot(rel *store.Relation, projs []string, joinAttr string) fetchCols {
	fc := make(fetchCols, len(projs)+1)
	for _, a := range projs {
		fc[a] = rel.MustColumn(a).Vals
	}
	fc[joinAttr] = rel.MustColumn(joinAttr).Vals
	return fc
}

// col resolves attr from the snapshot, falling back to the live column for
// attributes outside the join's projection list (join plans never fetch
// those; the fallback only preserves the old any-attribute behavior for
// direct callers).
func (fc fetchCols) col(rel *store.Relation, attr string) []Value {
	if vals, ok := fc[attr]; ok {
		return vals
	}
	return rel.MustColumn(attr).Vals
}

// ---------------------------------------------------------------------------
// Selection cracking engine.

type selCrackEngine struct {
	rel  *store.Relation
	cols map[string]*crack.Col
	dead map[int]bool
	pol  crack.Policy
}

// NewSelCrack returns the selection-cracking engine of CIDR 2007: cracker
// columns per selection attribute, crackers.select + rel_select plans, and
// random-access tuple reconstruction from base columns.
func NewSelCrack(rel *store.Relation) Engine {
	return &selCrackEngine{rel: rel, cols: make(map[string]*crack.Col), dead: make(map[int]bool)}
}

func (e *selCrackEngine) Name() string { return "selection cracking" }
func (e *selCrackEngine) Kind() Kind   { return SelCrack }

// SetCrackPolicy configures the adaptive pivot policy for cracker columns.
// Existing columns adopt it for future cracks (each column is independent,
// so no cross-structure alignment is at stake).
func (e *selCrackEngine) SetCrackPolicy(pol crack.Policy) bool {
	e.pol = pol
	for _, c := range e.cols {
		c.P.Policy = pol
	}
	return true
}

func (e *selCrackEngine) Insert(vals ...Value) int {
	e.rel.AppendRow(vals...)
	key := e.rel.NumRows() - 1
	for _, ap := range e.rel.Order {
		if c, ok := e.cols[ap]; ok {
			c.Insert(key, e.rel.MustColumn(ap).Vals[key])
		}
	}
	return key
}

func (e *selCrackEngine) Delete(key int) {
	if !hasRow(e.rel, key) || e.dead[key] {
		return
	}
	e.dead[key] = true
	for _, c := range e.cols {
		c.Delete(key)
	}
}

func (e *selCrackEngine) Prepare(attrs ...string) time.Duration { return 0 }

func (e *selCrackEngine) Storage() int {
	total := 0
	for _, c := range e.cols {
		total += c.Len()
	}
	return total
}

// col returns the cracker column for attr, creating it on demand from the
// current base state (tombstones become pending deletions).
func (e *selCrackEngine) col(attr string) *crack.Col {
	if c, ok := e.cols[attr]; ok {
		return c
	}
	c := crack.NewColWithPolicy(e.rel.MustColumn(attr), e.pol)
	for k := range e.dead {
		c.Delete(k)
	}
	e.cols[attr] = c
	return c
}

// selectKeys runs crackers.select on the primary predicate and
// crackers.rel_select on the rest. Keys come back unordered.
func (e *selCrackEngine) selectKeys(preds []AttrPred, disjunctive bool) []Value {
	if disjunctive {
		// Disjunctions crack every predicate's column and union the keys.
		seen := make(map[Value]bool)
		var keys []Value
		for _, ap := range preds {
			for _, k := range e.col(ap.Attr).Select(ap.Pred) {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		return keys
	}
	keys := append([]Value(nil), e.col(preds[0].Attr).Select(preds[0].Pred)...)
	for _, ap := range preds[1:] {
		keys = crack.RelSelect(keys, e.rel.MustColumn(ap.Attr), ap.Pred)
		keys = e.dropDead(keys, ap)
	}
	return keys
}

// dropDead removes keys whose tuple is tombstoned but whose deletion has
// not been merged into the cracker column serving this predicate yet.
func (e *selCrackEngine) dropDead(keys []Value, ap AttrPred) []Value {
	if len(e.dead) == 0 {
		return keys
	}
	out := keys[:0]
	for _, k := range keys {
		if !e.dead[int(k)] {
			out = append(out, k)
		}
	}
	return out
}

func (e *selCrackEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeys(q.Preds, q.Disjunctive)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	res := Result{Cols: make(map[string][]Value, len(q.Projs)), N: len(keys)}
	for _, attr := range q.Projs {
		col := e.rel.MustColumn(attr)
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = col.Vals[int(k)] // random access: keys are unordered
		}
		res.Cols[attr] = out
	}
	cost.TR = time.Since(t0)
	return res, cost
}

// selectKeysRO is the reorganization-free twin of selectKeys: it reads the
// qualifying keys out of already-cracked areas. ok is false when any
// touched column would reorganize.
func (e *selCrackEngine) selectKeysRO(preds []AttrPred, disjunctive bool) ([]Value, bool) {
	if len(preds) == 0 {
		return nil, false
	}
	if disjunctive {
		seen := make(map[Value]bool)
		var keys []Value
		for _, ap := range preds {
			c, ok := e.cols[ap.Attr]
			if !ok {
				return nil, false
			}
			view, ok := c.SelectRO(ap.Pred)
			if !ok {
				return nil, false
			}
			for _, k := range view {
				if !seen[k] {
					seen[k] = true
					keys = append(keys, k)
				}
			}
		}
		return keys, true
	}
	c, ok := e.cols[preds[0].Attr]
	if !ok {
		return nil, false
	}
	view, ok := c.SelectRO(preds[0].Pred)
	if !ok {
		return nil, false
	}
	keys := append([]Value(nil), view...)
	for _, ap := range preds[1:] {
		keys = crack.RelSelect(keys, e.rel.MustColumn(ap.Attr), ap.Pred)
		keys = e.dropDead(keys, ap)
	}
	return keys, true
}

func (e *selCrackEngine) QueryRO(q Query) (Result, Cost, bool) {
	var cost Cost
	t0 := time.Now()
	keys, ok := e.selectKeysRO(q.Preds, q.Disjunctive)
	if !ok {
		return Result{}, Cost{}, false
	}
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	res := Result{Cols: make(map[string][]Value, len(q.Projs)), N: len(keys)}
	for _, attr := range q.Projs {
		col := e.rel.MustColumn(attr)
		out := make([]Value, len(keys))
		for i, k := range keys {
			out[i] = col.Vals[int(k)] // random access: keys are unordered
		}
		res.Cols[attr] = out
	}
	cost.TR = time.Since(t0)
	return res, cost, true
}

func (e *selCrackEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	var cost Cost
	t0 := time.Now()
	keys := e.selectKeys(preds, false)
	cost.Sel = time.Since(t0)
	t0 = time.Now()
	col := e.rel.MustColumn(joinAttr)
	jv := make([]Value, len(keys))
	for i, k := range keys {
		jv[i] = col.Vals[int(k)]
	}
	cost.TR = time.Since(t0)
	// Snapshot the projection columns so the fetcher never touches live
	// engine state (see scanEngine.JoinInput).
	fetchCols := fetchSnapshot(e.rel, projs, joinAttr)
	return JoinInput{
		JoinVals: jv,
		Fetch: func(attr string, i int) Value {
			return fetchCols.col(e.rel, attr)[int(keys[i])]
		},
	}, cost
}

// ---------------------------------------------------------------------------
// Presorted engine.

type presortEngine struct {
	ps    *presort.Store
	stale map[string]bool
	dead  map[int]bool
}

// NewPresorted returns the presorted-copies engine. Prepare builds a copy
// per selection attribute; updates mark every copy stale and the next query
// pays a full re-sort — the maintenance problem the paper highlights.
func NewPresorted(rel *store.Relation) Engine {
	return &presortEngine{ps: presort.NewStore(rel), stale: make(map[string]bool), dead: make(map[int]bool)}
}

func (e *presortEngine) Name() string { return "presorted copies" }
func (e *presortEngine) Kind() Kind   { return Presorted }

func (e *presortEngine) Prepare(attrs ...string) time.Duration {
	t0 := time.Now()
	for _, a := range attrs {
		e.rebuild(a)
	}
	return time.Since(t0)
}

func (e *presortEngine) rebuild(attr string) {
	if len(e.dead) == 0 {
		e.ps.Prepare(attr)
	} else {
		e.ps.PrepareFiltered(attr, func(key int) bool { return e.dead[key] })
	}
	delete(e.stale, attr)
}

func (e *presortEngine) Insert(vals ...Value) int {
	rel := e.ps.Relation()
	rel.AppendRow(vals...)
	for a := range e.allCopies() {
		e.stale[a] = true
	}
	return rel.NumRows() - 1
}

func (e *presortEngine) Delete(key int) {
	if !hasRow(e.ps.Relation(), key) || e.dead[key] {
		return
	}
	// There is no efficient way to maintain presorted copies under updates
	// (Section 3.6, Exp6): every copy must be rebuilt.
	e.dead[key] = true
	for a := range e.allCopies() {
		e.stale[a] = true
	}
}

func (e *presortEngine) allCopies() map[string]bool {
	out := make(map[string]bool)
	for _, a := range e.ps.Relation().Order {
		if e.ps.CopyFor(a) != nil {
			out[a] = true
		}
	}
	return out
}

func (e *presortEngine) Storage() int {
	total := 0
	for _, a := range e.ps.Relation().Order {
		if c := e.ps.CopyFor(a); c != nil {
			total += c.Len() * len(e.ps.Relation().Order)
		}
	}
	return total
}

func (e *presortEngine) freshCopy(attr string) {
	if e.ps.CopyFor(attr) == nil || e.stale[attr] {
		e.rebuild(attr)
	}
}

func (e *presortEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	primary := q.Preds[0].Attr
	t0 := time.Now()
	e.freshCopy(primary)
	preds := make([]store.Pred, len(q.Preds))
	attrs := make([]string, len(q.Preds))
	for i, ap := range q.Preds {
		preds[i] = ap.Pred
		attrs[i] = ap.Attr
	}
	pres := e.ps.Query(preds, attrs, 0, q.Projs, q.Disjunctive)
	cost.Sel = time.Since(t0)
	// Selection and reconstruction are fused in the sorted copy; attribute
	// the (small) projection copying to TR by re-measuring it.
	t0 = time.Now()
	res := Result{Cols: pres.Cols, N: pres.N}
	cost.TR = time.Since(t0)
	return res, cost
}

// QueryRO refuses when the primary predicate's presorted copy is missing
// or stale (updates force a full re-sort on the next query).
func (e *presortEngine) QueryRO(q Query) (Result, Cost, bool) {
	if len(q.Preds) == 0 {
		return Result{}, Cost{}, false
	}
	if primary := q.Preds[0].Attr; e.ps.CopyFor(primary) == nil || e.stale[primary] {
		return Result{}, Cost{}, false
	}
	// With a fresh copy the query is a binary search plus aligned scans —
	// no rebuild, no mutation.
	res, cost := e.Query(q)
	return res, cost, true
}

func (e *presortEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	var cost Cost
	t0 := time.Now()
	q := Query{Preds: preds, Projs: append(append([]string(nil), projs...), joinAttr)}
	res, _ := e.Query(q)
	cost.Sel = time.Since(t0)
	return JoinInput{
		JoinVals: res.Cols[joinAttr],
		// Post-join access stays within the small materialized result.
		Fetch: func(attr string, i int) Value {
			return res.Cols[attr][i]
		},
	}, cost
}

// ---------------------------------------------------------------------------
// Sideways cracking engine (full maps).

type sidewaysEngine struct {
	st *sideways.Store
}

// NewSideways returns the full-map sideways cracking engine (Section 3).
func NewSideways(rel *store.Relation) Engine {
	return &sidewaysEngine{st: sideways.NewStore(rel)}
}

// NewSidewaysWithBudget returns a sideways engine with a storage threshold
// (full maps are dropped LFU when the budget is exceeded, Section 4.2).
func NewSidewaysWithBudget(rel *store.Relation, budget int) Engine {
	st := sideways.NewStore(rel)
	st.Budget = budget
	return &sidewaysEngine{st: st}
}

func (e *sidewaysEngine) Name() string { return "sideways cracking" }
func (e *sidewaysEngine) Kind() Kind   { return Sideways }

// SetCrackPolicy configures the adaptive pivot policy for the store's
// maps; it affects map sets created after the call (sets freeze their
// policy at creation to keep tape replay aligned).
func (e *sidewaysEngine) SetCrackPolicy(pol crack.Policy) bool {
	e.st.Policy = pol
	return true
}

func (e *sidewaysEngine) Insert(vals ...Value) int        { return e.st.Insert(vals...) }
func (e *sidewaysEngine) Delete(key int)                  { e.st.Delete(key) }
func (e *sidewaysEngine) Prepare(...string) time.Duration { return 0 }
func (e *sidewaysEngine) Storage() int                    { return e.st.StorageTuples() }
func (e *sidewaysEngine) Store() *sideways.Store          { return e.st }

func (e *sidewaysEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	t0 := time.Now()
	res := e.st.MultiSelect(q.Preds, q.Projs, q.Disjunctive)
	cost.Sel = time.Since(t0)
	return Result{Cols: res.Cols, N: res.N}, cost
}

func (e *sidewaysEngine) QueryRO(q Query) (Result, Cost, bool) {
	if len(q.Preds) == 0 {
		return Result{}, Cost{}, false
	}
	var cost Cost
	t0 := time.Now()
	res, ok := e.st.MultiSelectRO(q.Preds, q.Projs, q.Disjunctive)
	if !ok {
		return Result{}, Cost{}, false
	}
	cost.Sel = time.Since(t0)
	return Result{Cols: res.Cols, N: res.N}, cost, true
}

func (e *sidewaysEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	var cost Cost
	t0 := time.Now()
	res := e.st.MultiSelect(preds, append(append([]string(nil), projs...), joinAttr), false)
	cost.Sel = time.Since(t0)
	return JoinInput{
		JoinVals: res.Cols[joinAttr],
		Fetch: func(attr string, i int) Value {
			return res.Cols[attr][i]
		},
	}, cost
}

// ---------------------------------------------------------------------------
// Partial sideways cracking engine.

type partialEngine struct {
	st *partial.Store
}

// NewPartial returns the partial sideways cracking engine (Section 4).
func NewPartial(rel *store.Relation) Engine {
	return &partialEngine{st: partial.NewStore(rel)}
}

// NewPartialWithBudget returns a partial engine with a chunk storage
// threshold in tuples.
func NewPartialWithBudget(rel *store.Relation, budget int) Engine {
	st := partial.NewStore(rel)
	st.Budget = budget
	return &partialEngine{st: st}
}

// WrapPartial wraps an already-configured partial store in an Engine.
func WrapPartial(st *partial.Store) Engine { return &partialEngine{st: st} }

func (e *partialEngine) Name() string { return "partial sideways cracking" }
func (e *partialEngine) Kind() Kind   { return PartialSideways }

// SetCrackPolicy configures the adaptive pivot policy for chunk maps and
// chunks; it affects sets created after the call (sets freeze their policy
// at creation to keep area-tape replay aligned).
func (e *partialEngine) SetCrackPolicy(pol crack.Policy) bool {
	e.st.Policy = pol
	return true
}

func (e *partialEngine) Insert(vals ...Value) int        { return e.st.Insert(vals...) }
func (e *partialEngine) Delete(key int)                  { e.st.Delete(key) }
func (e *partialEngine) Prepare(...string) time.Duration { return 0 }
func (e *partialEngine) Storage() int                    { return e.st.StorageTuples() }
func (e *partialEngine) Store() *partial.Store           { return e.st }

func (e *partialEngine) Query(q Query) (Result, Cost) {
	var cost Cost
	t0 := time.Now()
	res := e.st.MultiSelect(q.Preds, q.Projs, q.Disjunctive)
	cost.Sel = time.Since(t0)
	return Result{Cols: res.Cols, N: res.N}, cost
}

func (e *partialEngine) QueryRO(q Query) (Result, Cost, bool) {
	if len(q.Preds) == 0 {
		return Result{}, Cost{}, false
	}
	var cost Cost
	t0 := time.Now()
	res, ok := e.st.MultiSelectRO(q.Preds, q.Projs, q.Disjunctive)
	if !ok {
		return Result{}, Cost{}, false
	}
	cost.Sel = time.Since(t0)
	return Result{Cols: res.Cols, N: res.N}, cost, true
}

func (e *partialEngine) JoinInput(preds []AttrPred, joinAttr string, projs []string) (JoinInput, Cost) {
	var cost Cost
	t0 := time.Now()
	res := e.st.MultiSelect(preds, append(append([]string(nil), projs...), joinAttr), false)
	cost.Sel = time.Since(t0)
	return JoinInput{
		JoinVals: res.Cols[joinAttr],
		Fetch: func(attr string, i int) Value {
			return res.Cols[attr][i]
		},
	}, cost
}

// ---------------------------------------------------------------------------
// Join plans (Exp4, q2).

// JoinSide describes one side of a join query.
type JoinSide struct {
	E        Engine
	Preds    []AttrPred
	JoinAttr string
	Projs    []string
}

// JoinCost breaks a join query into the phases reported by Figure 5.
type JoinCost struct {
	PreSel time.Duration // selections + pre-join tuple reconstruction
	Join   time.Duration // the join itself
	PostTR time.Duration // post-join tuple reconstruction
}

// Total returns the summed join cost.
func (c JoinCost) Total() time.Duration { return c.PreSel + c.Join + c.PostTR }

// JoinMax evaluates "select max(projs...) from L, R where preds and
// L.join = R.join" across two engines and returns the maxima keyed by
// side-qualified attribute names ("L.attr", "R.attr").
func JoinMax(l, r JoinSide) (map[string]Value, JoinCost) {
	var jc JoinCost
	li, lc := l.E.JoinInput(l.Preds, l.JoinAttr, l.Projs)
	ri, rc := r.E.JoinInput(r.Preds, r.JoinAttr, r.Projs)
	jc.PreSel = lc.Sel + lc.TR + rc.Sel + rc.TR

	t0 := time.Now()
	pairs := store.Join(li.JoinVals, ri.JoinVals)
	jc.Join = time.Since(t0)

	t0 = time.Now()
	out := make(map[string]Value, len(l.Projs)+len(r.Projs))
	if len(pairs) > 0 {
		for _, attr := range l.Projs {
			m := li.Fetch(attr, pairs[0].L)
			for _, p := range pairs[1:] {
				if v := li.Fetch(attr, p.L); v > m {
					m = v
				}
			}
			out["L."+attr] = m
		}
		for _, attr := range r.Projs {
			m := ri.Fetch(attr, pairs[0].R)
			for _, p := range pairs[1:] {
				if v := ri.Fetch(attr, p.R); v > m {
					m = v
				}
			}
			out["R."+attr] = m
		}
	}
	jc.PostTR = time.Since(t0)
	return out, jc
}
