// Package core assembles the Nimble integration engine: the query
// lifecycle of Figure 1. A query is parsed (xmlql), rewritten over the
// mediated schemas (mediator), compiled into per-source fragments and a
// physical plan (opt + sqlgen), executed with parallel source access and
// the availability policy (exec + algebra), and finally constructed into
// result XML.
package core

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/exec"
	"repro/internal/mediator"
	"repro/internal/obs"
	"repro/internal/opt"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// maxDepth bounds recursion through nested queries and schema
// materialization; well-formed catalogs stay far below it.
const maxDepth = 64

// Engine is one instance of the integration engine. It is safe for
// concurrent queries; configuration methods are not meant to race with
// queries.
type Engine struct {
	cat    *catalog.Catalog
	runner *exec.Runner

	mu         sync.RWMutex
	opts       opt.Options                                         // guarded by mu
	policy     exec.Policy                                         // guarded by mu
	funcs      map[string]func([]xmldm.Value) (xmldm.Value, error) // guarded by mu
	skipUnfold func(string) bool                                   // guarded by mu
	metrics    *obs.Registry                                       // guarded by mu
	traces     *obs.TraceStore                                     // guarded by mu
	slow       *SlowLog                                            // guarded by mu
	active     *ActiveRegistry                                     // guarded by mu

	queriesRun atomic.Int64

	// id names this instance in the cluster registry, /debug/cluster,
	// and the per-instance metric labels.
	idMu sync.RWMutex
	id   string // guarded by idMu

	// inflight guards against cyclic schema materialization: per query
	// execution (per Access), the set of schemas being materialized.
	inflightMu sync.Mutex
	inflight   map[*exec.Access]map[string]bool // guarded by inflightMu
}

// New creates an engine over a catalog.
func New(cat *catalog.Catalog) *Engine {
	e := &Engine{
		cat:      cat,
		opts:     opt.DefaultOptions(),
		policy:   exec.PolicyPartial,
		funcs:    map[string]func([]xmldm.Value) (xmldm.Value, error){},
		inflight: map[*exec.Access]map[string]bool{},
		metrics:  obs.Default(),
	}
	e.runner = &exec.Runner{Cat: cat, Materialize: e.materializeSchema, Metrics: e.metrics}
	return e
}

// SetMetrics redirects the engine's metrics (default obs.Default()) to
// the given registry; nil disables recording.
func (e *Engine) SetMetrics(reg *obs.Registry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.metrics = reg
	e.runner.Metrics = reg
}

// SetTraceStore installs the trace store: when the engine starts its
// own trace (no caller span in the context), the finished span tree is
// offered to the store's sampler. When a front end already owns the
// trace, the engine only hangs its work under the caller's span and the
// owner records it. Nil disables recording; ?profile still works.
func (e *Engine) SetTraceStore(t *obs.TraceStore) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.traces = t
}

// SetIntrospection installs the slow-query log and active-query registry
// this engine reports into. Both may be shared across engine instances
// (the cluster front end wires every engine to one pair) and either may be nil to
// disable that surface.
func (e *Engine) SetIntrospection(slow *SlowLog, active *ActiveRegistry) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.slow = slow
	e.active = active
}

// SetResilience installs the fetch resilience configuration: per-attempt
// timeouts and retry/backoff (res), the per-source circuit-breaker set
// (breakers, shareable across engine instances so all queries agree on
// which sources are quarantined; nil disables breakers), and the clock
// backoff sleeps run on (nil keeps the current clock — real time by
// default; tests inject fake time for determinism).
func (e *Engine) SetResilience(res exec.Resilience, breakers *exec.BreakerSet, clock exec.Clock) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runner.Resilience = res
	e.runner.Breakers = breakers
	if clock != nil {
		e.runner.Clock = clock
	}
}

// Catalog returns the engine's catalog.
func (e *Engine) Catalog() *catalog.Catalog { return e.cat }

// SetPolicy sets the default source-availability policy.
func (e *Engine) SetPolicy(p exec.Policy) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.policy = p
}

// SetPlannerOptions replaces the optimizer options (ablation knob).
func (e *Engine) SetPlannerOptions(o opt.Options) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.opts = o
}

// RegisterFunc adds a scalar function visible to queries — the hook
// through which the cleaning subsystem exposes normalization functions
// for dynamic, query-time cleaning (§3.2).
func (e *Engine) RegisterFunc(name string, fn func([]xmldm.Value) (xmldm.Value, error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.funcs[name] = fn
}

// SetLocalStore installs the local materialized store consulted before
// any remote fetch, and the predicate naming schemas that should not be
// unfolded because the store holds them.
func (e *Engine) SetLocalStore(local func(source string, req catalog.Request) (*xmldm.Node, bool), skipUnfold func(string) bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runner.Local = local
	e.skipUnfold = skipUnfold
}

// SetObserver installs a fetch observer (the materialization advisor's
// feed).
func (e *Engine) SetObserver(fn func(source string, req catalog.Request, cost catalog.Cost, err error)) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.runner.Observe = fn
}

// QueriesRun reports the number of top-level queries executed (the
// cluster front end uses it for per-instance load accounting).
func (e *Engine) QueriesRun() int64 { return e.queriesRun.Load() }

// SetID names this engine instance; the cluster registry, inspector,
// and per-instance metrics use it. Empty (the default) lets the
// cluster fall back to the registration index.
func (e *Engine) SetID(id string) {
	e.idMu.Lock()
	defer e.idMu.Unlock()
	e.id = id
}

// ID reports the instance identity set by SetID.
func (e *Engine) ID() string {
	e.idMu.RLock()
	defer e.idMu.RUnlock()
	return e.id
}

// Stats summarizes one query's execution.
type Stats struct {
	Rewrites       int
	Fetches        int
	TuplesEmitted  int64
	PatternMatches int64
	// DrainNanos / OperatorsRun aggregate operator-tree evaluation wall
	// time and tree sizes across the query (including subqueries).
	DrainNanos   int64
	OperatorsRun int64
	Explain      []string
}

// ExplainTree is the per-operator statistics tree of one execution (the
// EXPLAIN ANALYZE report): a synthetic Query root, one instrumented plan
// per rewrite, and per-source Fetch attribution nodes.
type ExplainTree = algebra.ExplainNode

// Result is a query's answer.
type Result struct {
	// Values are the constructed result elements, in result order.
	Values []xmldm.Value
	// Completeness reports which sources answered (§3.4).
	Completeness exec.Completeness
	Stats        Stats
	// Explain is the per-operator statistics tree; instrumentation is
	// always on, so it is populated for every query.
	Explain *ExplainTree
	// Trace is the execution span tree, set when QueryOptions.Profile
	// was requested.
	Trace *obs.Span
}

// Document wraps the result values under a <results> element.
func (r *Result) Document() *xmldm.Node {
	root := &xmldm.Node{Name: "results"}
	if !r.Completeness.Complete {
		root.Attrs = append(root.Attrs, xmldm.Attr{Name: "complete", Value: "false"})
		for _, s := range r.Completeness.FailedSources() {
			root.Attrs = append(root.Attrs, xmldm.Attr{Name: "failed", Value: s})
			break // first failed source in the attribute; full list in Completeness
		}
	}
	for _, v := range r.Values {
		if n, ok := v.(*xmldm.Node); ok {
			c := algebra.CopyNode(n)
			c.Parent = root
			root.Children = append(root.Children, c)
		} else {
			root.Children = append(root.Children, v)
		}
	}
	xmldm.Finalize(root)
	return root
}

// QueryOptions tune one query execution.
type QueryOptions struct {
	// Policy overrides the engine default when set.
	Policy *exec.Policy
	// Profile requests the execution span tree in Result.Trace (the
	// ?profile=1 query option of the HTTP front end).
	Profile bool
	// Explain requests that the caller-facing surface (HTTP, CLI) render
	// Result.Explain. The tree itself is always collected; this flag only
	// gates output.
	Explain bool
}

// Query parses and executes an XML-QL query.
func (e *Engine) Query(ctx context.Context, src string) (*Result, error) {
	return e.QueryOpt(ctx, src, QueryOptions{})
}

// QueryOpt is Query with per-query options.
func (e *Engine) QueryOpt(ctx context.Context, src string, qo QueryOptions) (*Result, error) {
	q, err := xmlql.Parse(src)
	if err != nil {
		return nil, err
	}
	return e.queryAST(ctx, q, qo, src)
}

// QueryAST executes a parsed query.
func (e *Engine) QueryAST(ctx context.Context, q *xmlql.Query, qo QueryOptions) (*Result, error) {
	return e.queryAST(ctx, q, qo, q.String())
}

// queryAST executes a parsed query; text is the query's source form, as
// reported by the active-query registry and the slow-query log.
func (e *Engine) queryAST(ctx context.Context, q *xmlql.Query, qo QueryOptions, text string) (*Result, error) {
	e.queriesRun.Add(1)
	e.mu.RLock()
	policy := e.policy
	funcs := e.funcs
	metrics := e.metrics
	traces := e.traces
	slow := e.slow
	activeReg := e.active
	e.mu.RUnlock()
	// Precedence: the query's own ON-UNAVAILABLE prelude overrides the
	// engine default; an explicit per-call option overrides both.
	switch q.OnUnavailable {
	case "fail":
		policy = exec.PolicyFail
	case "partial":
		policy = exec.PolicyPartial
	}
	if qo.Policy != nil {
		policy = *qo.Policy
	}

	start := time.Now()
	aq := activeReg.Register(text)
	defer activeReg.Finish(aq)
	// When a caller (the HTTP front end, via the cluster hop) already
	// carries a span, the engine's work hangs under it — one TraceID end
	// to end — and the caller records the finished trace. Only when the
	// engine is the outermost tier does it start (and record) its own
	// root trace.
	var root *obs.Span
	ownRoot := false
	if parent := obs.FromContext(ctx); parent != nil {
		root = parent.StartChild("engine")
	} else if qo.Profile || traces != nil {
		root = traces.NewRoot("engine", obs.TraceContext{})
		ownRoot = true
	}
	if root != nil {
		root.SetAttr("policy", policy.String())
		if id := e.ID(); id != "" {
			root.SetAttr("instance", id)
		}
		ctx = obs.ContextWithSpan(ctx, root)
	}

	access := e.runner.NewAccess(ctx, policy)
	actx := &algebra.Context{Funcs: funcs, Trace: root}
	res := &Result{Explain: &ExplainTree{Op: "Query"}}
	actx.SubqueryEval = func(subq *xmlql.Query, outer algebra.Binding) ([]xmldm.Value, error) {
		return e.run(ctx, subq, outer, access, actx, 1, nil, nil, nil)
	}
	values, err := e.run(ctx, q, nil, access, actx, 0, &res.Stats, aq, res.Explain)
	elapsed := time.Since(start)

	metrics.Counter("nimble_queries_total").Inc()
	// The latency observation carries the trace id as a bucket exemplar:
	// a bad percentile on the histogram links straight to a kept trace.
	metrics.Histogram("nimble_query_seconds").ObserveExemplar(elapsed.Seconds(), root.TraceID().String())
	if err != nil {
		metrics.Counter("nimble_query_errors_total").Inc()
		res.Explain.Finalize()
		attachFetchStats(res.Explain, access.FetchStats(), elapsed)
		slow.Record(SlowEntry{
			Query:      text,
			TraceID:    root.TraceID().String(),
			Start:      start,
			DurationMS: float64(elapsed) / float64(time.Millisecond),
			Error:      err.Error(),
		}, res.Explain.Render)
		root.SetAttr("error", err.Error())
		root.Finish()
		if ownRoot {
			traces.Record(root)
		}
		return nil, err
	}
	res.Values = values
	res.Completeness = access.Report()
	snap := actx.Snapshot()
	res.Stats.TuplesEmitted = snap.TuplesEmitted
	res.Stats.PatternMatches = snap.PatternMatches
	res.Stats.DrainNanos = snap.DrainNanos
	res.Stats.OperatorsRun = snap.OperatorsRun
	res.Explain.RowsOut = int64(len(values))
	res.Explain.Finalize()
	attachFetchStats(res.Explain, access.FetchStats(), elapsed)
	slow.Record(SlowEntry{
		Query:      text,
		TraceID:    root.TraceID().String(),
		Start:      start,
		DurationMS: float64(elapsed) / float64(time.Millisecond),
		Tuples:     snap.TuplesEmitted,
		Complete:   res.Completeness.Complete,
	}, res.Explain.Render)
	if root != nil {
		root.SetInt("results", int64(len(values)))
		root.SetInt("tuples", snap.TuplesEmitted)
		root.SetBool("complete", res.Completeness.Complete)
		root.Finish()
		if ownRoot {
			traces.Record(root)
		}
		if qo.Profile {
			res.Trace = root
		}
	}
	return res, nil
}

// attachFetchStats appends one synthetic Fetch node per accessed source
// under the Query root and stamps the root with the query's wall time.
// Call it after Finalize so the root's rows-in stays the sum of the plan
// roots' output, not of fetched source rows.
func attachFetchStats(ex *ExplainTree, fetches []exec.SourceFetchStat, elapsed time.Duration) {
	ex.NextNanos = elapsed.Nanoseconds()
	for _, fs := range fetches {
		detail := fmt.Sprintf("%s fetches=%d", fs.Source, fs.Fetches)
		if fs.Bytes > 0 {
			detail += fmt.Sprintf(" bytes=%d", fs.Bytes)
		}
		if fs.Retries > 0 {
			detail += fmt.Sprintf(" retries=%d", fs.Retries)
		}
		if fs.Breaker != "" {
			detail += " breaker=" + fs.Breaker
		}
		if fs.Local {
			detail += " local"
		}
		if fs.Err != "" {
			detail += " error=" + fs.Err
		}
		ex.Children = append(ex.Children, &algebra.ExplainNode{
			Op:        "Fetch",
			Detail:    detail,
			RowsOut:   int64(fs.Rows),
			NextNanos: fs.Nanos,
		})
	}
}

// run executes one query (possibly correlated under an outer binding)
// and returns the constructed values in result order. aq (the active-
// query handle) and ex (the EXPLAIN tree collecting one instrumented
// plan per rewrite) are set only for the top-level query; both are
// nil-safe to thread through.
func (e *Engine) run(ctx context.Context, q *xmlql.Query, outer algebra.Binding,
	access *exec.Access, actx *algebra.Context, depth int, stats *Stats,
	aq *ActiveQuery, ex *algebra.ExplainNode) ([]xmldm.Value, error) {

	if depth > maxDepth {
		return nil, fmt.Errorf("core: query nesting exceeds %d levels (cyclic schema definitions?)", maxDepth)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	e.mu.RLock()
	skip := e.skipUnfold
	opts := e.opts
	e.mu.RUnlock()

	sp := obs.FromContext(ctx)
	aq.SetPhase("unfold")
	spUnfold := sp.StartChild("unfold")
	rewrites, err := mediator.UnfoldSkip(e.cat, q, skip)
	if err != nil {
		spUnfold.SetAttr("error", err.Error())
		spUnfold.Finish()
		return nil, err
	}
	spUnfold.SetInt("rewrites", int64(len(rewrites)))
	spUnfold.Finish()
	if stats != nil {
		stats.Rewrites = len(rewrites)
	}
	if ex != nil {
		ex.Detail = fmt.Sprintf("rewrites=%d", len(rewrites))
	}

	type item struct {
		value xmldm.Value
		keys  []xmldm.Value
	}
	var items []item
	orderPushed := len(rewrites) == 1

	for ri, rw := range rewrites {
		var spRw *obs.Span
		if sp != nil {
			spRw = sp.StartChild(fmt.Sprintf("rewrite[%d]", ri))
		}
		planner := opt.New(e.cat, access)
		planner.Opts = opts
		var preBound []string
		var input algebra.Operator
		if outer != nil {
			preBound = outer.Names()
			input = &algebra.TupleScan{Tuples: []algebra.Binding{outer}}
		}
		aq.SetPhase("plan")
		spPlan := spRw.StartChild("plan")
		plan, err := planner.Plan(rw, preBound, input)
		if err != nil {
			spPlan.SetAttr("error", err.Error())
			spPlan.Finish()
			spRw.Finish()
			return nil, err
		}
		spPlan.SetInt("fetches", int64(len(plan.Fetches)))
		spPlan.SetAttr("sources", strings.Join(plan.Sources, ","))
		spPlan.Finish()
		if stats != nil {
			stats.Fetches += len(plan.Fetches)
			stats.Explain = append(stats.Explain, plan.Explain...)
		}
		if !plan.OrderPushed {
			orderPushed = false
		}
		specs := make([]exec.FetchSpec, len(plan.Fetches))
		for i, f := range plan.Fetches {
			specs[i] = exec.FetchSpec{Source: f.Source, Req: f.Req}
		}
		aq.SetPhase("prefetch")
		spPre := spRw.StartChild("prefetch")
		spPre.SetInt("fetches", int64(len(specs)))
		if err := access.Prefetch(specs); err != nil {
			spPre.Finish()
			spRw.Finish()
			return nil, err
		}
		spPre.Finish()
		// The plan is instrumented before draining — per-operator stats
		// accumulate into the EXPLAIN tree under the query root. The
		// shims are transparent (1:1 Open/Next/Close delegation), so
		// lifecycle invariants and span names are unaffected.
		planRoot := plan.Root
		if ex != nil {
			var node *algebra.ExplainNode
			planRoot, node = algebra.Instrument(plan.Root, plan.Labels)
			ex.Children = append(ex.Children, node)
		}
		// Operator evaluation records its span under this rewrite; the
		// previous parent (the query root, or an outer rewrite during
		// correlated subquery evaluation) is restored afterwards.
		prevTrace := actx.Trace
		if spRw != nil {
			actx.Trace = spRw
		}
		aq.SetPhase("eval")
		bindings, err := algebra.Drain(actx, planRoot)
		actx.Trace = prevTrace
		if err != nil {
			spRw.Finish()
			return nil, err
		}
		aq.SetPhase("construct")
		spCons := spRw.StartChild("construct")
		for _, b := range bindings {
			it := item{}
			for _, k := range plan.OrderBy {
				v, err := algebra.Eval(actx, k.Expr, b)
				if err != nil {
					spCons.Finish()
					spRw.Finish()
					return nil, err
				}
				it.keys = append(it.keys, v)
			}
			v, err := algebra.BuildResult(actx, plan.Construct, b)
			if err != nil {
				spCons.Finish()
				spRw.Finish()
				return nil, err
			}
			it.value = v
			items = append(items, it)
		}
		spCons.SetInt("values", int64(len(bindings)))
		spCons.Finish()
		spRw.Finish()
	}

	if len(q.OrderBy) > 0 && !orderPushed {
		aq.SetPhase("sort")
		descs := make([]bool, len(q.OrderBy))
		for i, k := range q.OrderBy {
			descs[i] = k.Desc
		}
		perm := algebra.StableSortIndices(len(items), 1, func(i, j int) int {
			for k := range descs {
				if k >= len(items[i].keys) || k >= len(items[j].keys) {
					return 0
				}
				c := xmldm.Compare(items[i].keys[k], items[j].keys[k])
				if c == 0 {
					continue
				}
				if descs[k] {
					return -c
				}
				return c
			}
			return 0
		})
		sorted := make([]item, len(items))
		for i, p := range perm {
			sorted[i] = items[p]
		}
		items = sorted
	}

	out := make([]xmldm.Value, len(items))
	for i, it := range items {
		out[i] = it.value
	}
	return out, nil
}

// materializeSchema computes a mediated schema's full document by
// running each of its view definitions; it is the fallback for patterns
// that could not be unfolded, and the producer for the materialized
// store.
func (e *Engine) materializeSchema(ctx context.Context, schema string, access *exec.Access) (*xmldm.Node, error) {
	e.inflightMu.Lock()
	set := e.inflight[access]
	if set == nil {
		set = map[string]bool{}
		e.inflight[access] = set
	}
	if set[schema] {
		e.inflightMu.Unlock()
		return nil, fmt.Errorf("core: cyclic materialization of schema %q", schema)
	}
	set[schema] = true
	e.inflightMu.Unlock()
	defer func() {
		e.inflightMu.Lock()
		delete(set, schema)
		if len(set) == 0 {
			delete(e.inflight, access)
		}
		e.inflightMu.Unlock()
	}()

	views, err := e.cat.Views(schema)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	funcs := e.funcs
	e.mu.RUnlock()
	actx := &algebra.Context{Funcs: funcs}
	actx.SubqueryEval = func(subq *xmlql.Query, outer algebra.Binding) ([]xmldm.Value, error) {
		return e.run(ctx, subq, outer, access, actx, maxDepth/2+1, nil, nil, nil)
	}
	root := &xmldm.Node{Name: schema}
	for _, vd := range views {
		vals, err := e.run(ctx, vd.Query, nil, access, actx, maxDepth/2+1, nil, nil, nil)
		if err != nil {
			return nil, err
		}
		for _, v := range vals {
			if n, ok := v.(*xmldm.Node); ok {
				n.Parent = root
				root.Children = append(root.Children, n)
			}
		}
	}
	xmldm.Finalize(root)
	return root, nil
}

// MaterializeSchema computes and returns a schema's document with a
// fresh access (public entry for the materialized-view manager).
func (e *Engine) MaterializeSchema(ctx context.Context, schema string) (*xmldm.Node, exec.Completeness, error) {
	e.mu.RLock()
	policy := e.policy
	e.mu.RUnlock()
	access := e.runner.NewAccess(ctx, policy)
	doc, err := e.materializeSchema(ctx, schema, access)
	if err != nil {
		return nil, access.Report(), err
	}
	return doc, access.Report(), nil
}
