package main

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"time"

	nimble "repro"
	"repro/internal/algebra"
	"repro/internal/core"
	"repro/internal/exec"
	"repro/internal/mediator"
	"repro/internal/opt"
	"repro/internal/sched"
	"repro/internal/xmldm"
	"repro/internal/xmlparse"
	"repro/internal/xmlql"
)

// stepCounts are the work counts of one stepped execution.
type stepCounts struct {
	rewrites, fetches, pushed int
	fetchRows                 int
	tuples                    int64 // operator output rows, subqueries included
	topTuples                 int64 // operator output rows of the top-level plans
	results                   int
	bytes                     int
	fetchAllocs, evalAllocs   uint64
	rdbExec                   time.Duration
	rdbScanned, rdbReturned   int
}

// stepper re-executes one query layer by layer with each layer's public
// function, in the order core.Engine runs them, recording a span per
// call. Subqueries (correlated aggregates) recurse through it too, so
// their layers nest under the outer construct step.
type stepper struct {
	dep   *deployment
	tr    *tracer
	req   uint64
	scope *fetchScope
	cnt   stepCounts
}

func (st *stepper) span(name string, parent int, fn func() error) (int, error) {
	id := st.tr.begin(name, parent, st.req)
	err := fn()
	st.tr.end(id, 0)
	return id, err
}

// query runs text and returns its serialized result document.
func (st *stepper) query(ctx context.Context, text string, root int) (string, error) {
	var q *xmlql.Query
	if _, err := st.span("xmlql.parse", root, func() (err error) {
		q, err = xmlql.Parse(strings.TrimSpace(text))
		return err
	}); err != nil {
		return "", err
	}
	e := st.dep.sys.Engine(0)
	grant := st.dep.sys.Scheduler().Acquire(0, sched.Interactive)
	defer grant.Release()
	runner := &exec.Runner{Cat: e.Catalog(), Local: st.dep.sys.Views().Lookup}
	ctx = context.WithValue(ctx, scopeKey{}, st.scope)
	access := runner.NewAccess(ctx, exec.PolicyPartial)
	actx := &algebra.Context{Funcs: st.dep.funcs}
	subEx := &algebra.ExplainNode{Op: "Subqueries"}
	cur := root // the span subqueries nest under
	actx.SubqueryEval = func(sq *xmlql.Query, outer algebra.Binding) ([]xmldm.Value, error) {
		return st.run(sq, outer, access, actx, 1, cur, subEx, grant, &cur)
	}
	ex := &algebra.ExplainNode{Op: "Query"}
	values, err := st.run(q, nil, access, actx, 0, root, ex, grant, &cur)
	if err != nil {
		return "", err
	}
	ex.RowsOut = int64(len(values))
	ex.Finalize()
	for _, fs := range access.FetchStats() {
		ex.Children = append(ex.Children, &algebra.ExplainNode{Op: "Fetch",
			Detail: fmt.Sprintf("%s fetches=%d", fs.Source, fs.Fetches), RowsOut: int64(fs.Rows)})
	}
	st.span("obs.explain_render", root, func() error { _ = ex.Render(); return nil })
	subEx.Finalize()
	for i, n := range []*algebra.ExplainNode{ex, subEx} {
		n.Walk(func(x *algebra.ExplainNode) {
			if x.Op != "Query" && x.Op != "Fetch" && x.Op != "Subqueries" {
				st.cnt.tuples += x.RowsOut
				if i == 0 {
					st.cnt.topTuples += x.RowsOut
				}
			}
		})
	}
	st.cnt.results += len(values)
	var out string
	st.span("xmlparse.serialize", root, func() error {
		res := &core.Result{Values: values, Completeness: access.Report()}
		out = xmlparse.SerializeString(res.Document(), 2)
		return nil
	})
	st.cnt.bytes += len(out)
	return out, nil
}

// run mirrors core.Engine's per-query pipeline: unfold, then per
// rewrite plan, prefetch, eval and construct, then sort.
func (st *stepper) run(q *xmlql.Query, outer algebra.Binding, access *exec.Access,
	actx *algebra.Context, depth, parent int, ex *algebra.ExplainNode, grant *sched.Grant, cur *int) ([]xmldm.Value, error) {

	e := st.dep.sys.Engine(0)
	var rewrites []mediator.Rewrite
	if _, err := st.span("mediator.unfold", parent, func() (err error) {
		rewrites, err = mediator.UnfoldSkip(e.Catalog(), q, st.dep.sys.Views().Holds)
		return err
	}); err != nil {
		return nil, err
	}
	st.cnt.rewrites += len(rewrites)
	degree := func() int {
		if depth == 0 {
			return grant.Checkpoint()
		}
		return grant.Degree()
	}
	type item struct {
		value xmldm.Value
		keys  []xmldm.Value
	}
	var items []item
	orderPushed := len(rewrites) == 1
	for _, rw := range rewrites {
		opts := opt.DefaultOptions()
		opts.Parallelism = degree()
		planner := opt.New(e.Catalog(), access)
		planner.Opts = opts
		var preBound []string
		var input algebra.Operator
		if outer != nil {
			preBound = outer.Names()
			input = &algebra.TupleScan{Tuples: []algebra.Binding{outer}}
		}
		var plan *opt.Plan
		if _, err := st.span("opt.plan", parent, func() (err error) {
			plan, err = planner.Plan(rw, preBound, input)
			return err
		}); err != nil {
			return nil, err
		}
		if !plan.OrderPushed {
			orderPushed = false
		}
		specs := make([]exec.FetchSpec, len(plan.Fetches))
		for i, f := range plan.Fetches {
			specs[i] = exec.FetchSpec{Source: f.Source, Req: f.Req}
			st.cnt.fetches++
			if strings.Contains(f.Req.Native, " WHERE ") {
				st.cnt.pushed++
			}
		}
		// Allocation counts stop the world, so only the top level takes
		// them: inside a subquery they would inflate the enclosing step.
		var a0 uint64
		rows0 := fetchedRows(access)
		if depth == 0 {
			a0 = mallocs()
		}
		pid := st.tr.begin("exec.prefetch", parent, st.req)
		st.scope.parent.Store(int64(pid))
		err := access.Prefetch(specs)
		st.tr.end(pid, 0)
		if depth == 0 {
			st.cnt.fetchAllocs += mallocs() - a0
			st.cnt.fetchRows += fetchedRows(access) - rows0
		}
		if err != nil {
			return nil, err
		}
		planRoot, node := algebra.Instrument(plan.Root, plan.Labels)
		ex.Children = append(ex.Children, node)
		var bindings []algebra.Binding
		if depth == 0 {
			a0 = mallocs()
		}
		if _, err := st.span("algebra.eval", parent, func() (err error) {
			bindings, err = algebra.Drain(actx, planRoot)
			return err
		}); err != nil {
			return nil, err
		}
		if depth == 0 {
			st.cnt.evalAllocs += mallocs() - a0
		}
		cid := st.tr.begin("algebra.construct", parent, st.req)
		prev := *cur
		*cur = cid
		for _, b := range bindings {
			it := item{}
			for _, k := range plan.OrderBy {
				v, err := algebra.Eval(actx, k.Expr, b)
				if err != nil {
					return nil, err
				}
				it.keys = append(it.keys, v)
			}
			v, err := algebra.BuildResult(actx, plan.Construct, b)
			if err != nil {
				return nil, err
			}
			it.value = v
			items = append(items, it)
		}
		*cur = prev
		st.tr.end(cid, 0)
	}
	var out []xmldm.Value
	st.span("algebra.sort", parent, func() error {
		if len(q.OrderBy) > 0 && !orderPushed {
			perm := algebra.StableSortIndices(len(items), degree(), func(i, j int) int {
				for k, key := range q.OrderBy {
					if k >= len(items[i].keys) || k >= len(items[j].keys) {
						return 0
					}
					c := xmldm.Compare(items[i].keys[k], items[j].keys[k])
					if c == 0 {
						continue
					}
					if key.Desc {
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
		out = make([]xmldm.Value, len(items))
		for i, it := range items {
			out[i] = it.value
		}
		return nil
	})
	return out, nil
}

// rdbProbe runs the SQL fragments q pushes into the relational sources
// directly against them, timing the rdb executor alone. It unfolds past
// materialized views, so a read the view answers locally is probed with
// the SQL it would push without the view.
func (st *stepper) rdbProbe(text string) error {
	q, err := xmlql.Parse(strings.TrimSpace(text))
	if err != nil {
		return err
	}
	e := st.dep.sys.Engine(0)
	rewrites, err := mediator.Unfold(e.Catalog(), q)
	if err != nil {
		return err
	}
	runner := &exec.Runner{Cat: e.Catalog()}
	for _, rw := range rewrites {
		planner := opt.New(e.Catalog(), runner.NewAccess(context.Background(), exec.PolicyPartial))
		planner.Opts = opt.DefaultOptions()
		plan, err := planner.Plan(rw, nil, nil)
		if err != nil {
			return err
		}
		for _, f := range plan.Fetches {
			db := map[string]*nimble.Database{"crmdb": st.dep.crm, "ordersdb": st.dep.ord}[f.Source]
			if db == nil || f.Req.Native == "" {
				continue
			}
			t0 := time.Now()
			res, err := db.Exec(f.Req.Native)
			st.cnt.rdbExec += time.Since(t0)
			if err != nil {
				return fmt.Errorf("rdb probe: %w", err)
			}
			st.cnt.rdbScanned += res.Stats.RowsScanned
			st.cnt.rdbReturned += len(res.Rows)
		}
	}
	return nil
}

func fetchedRows(a *exec.Access) int {
	n := 0
	for _, fs := range a.FetchStats() {
		n += fs.Rows
	}
	return n
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}
