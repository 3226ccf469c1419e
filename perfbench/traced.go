package main

import (
	"context"
	"fmt"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
)

const (
	replayReps  = 5                      // repetitions per replayed query; times are medians
	traceWindow = 500 * time.Millisecond // tracing alternates off and on in windows this long
)

// tracedRun gives the per-layer metrics. Part (a) runs the workload with
// benchmark tracing (timing source wrapper, request ids, client spans)
// switched on in every other window, so drift cancels and the tracing
// overhead is the latency difference between on and off windows; the
// public cluster, cache, scheduler and runtime counters are read around
// the whole run. Part (b) replays sampled queries step by step on a
// fresh deployment without a result cache.
func tracedRun(r *runner, d *dataset, dur time.Duration, rec map[string]any) (*result, error) {
	tr := newTracer()
	r.tr = tr
	dep := r.dep
	dep.sys.WrapSources(wrapTimed(tr, &r.tracing))
	localFetches := dep.reg.Counter("nimble_fetch_local_total", "source", "customers")
	cs0, st0, sn0 := dep.sys.CacheStats(), dep.sys.Cluster().Status(), dep.sys.Scheduler().Snap()
	gc0, cpu0 := readMetric("/cpu/classes/gc/total:cpu-seconds"), readMetric("/cpu/classes/total:cpu-seconds")
	local0 := localFetches.Value()
	smp := startSampler(dep, &r.tracing)
	samples, _, err := r.run(dur, 0)
	smp.stop()
	gc1, cpu1 := readMetric("/cpu/classes/gc/total:cpu-seconds"), readMetric("/cpu/classes/total:cpu-seconds")
	cs1, st1, sn1 := dep.sys.CacheStats(), dep.sys.Cluster().Status(), dep.sys.Scheduler().Snap()
	local1 := localFetches.Value()
	if err != nil {
		dep.close()
		return nil, err
	}
	if err := dep.close(); err != nil {
		return nil, err
	}
	if err := judge(r, d, samples); err != nil {
		return nil, err
	}
	res, _ := summarize(r, samples)
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-load.jsonl", r.w.name))); err != nil {
		return nil, err
	}

	reads, tracedReads, stale := 0, 0, 0
	var on, off []sample
	for _, s := range samples {
		if r.ops[s.op].class != classWrite {
			reads++
			if s.traced {
				tracedReads++
			}
		}
		if s.outcome == outStale {
			stale++
		}
		if s.traced {
			on = append(on, s)
		} else {
			off = append(off, s)
		}
	}
	var fetchDur []float64
	reqFetches, reqRows := 0, 0
	for _, s := range tr.snapshot() {
		if s.Name != "sources.fetch" {
			continue
		}
		fetchDur = append(fetchDur, us(time.Duration(s.End-s.Start)))
		if s.Parent != 0 {
			reqFetches++
			reqRows += s.Rows
		}
	}
	hits, misses := float64(cs1.Hits-cs0.Hits), float64(cs1.Misses-cs0.Misses)
	// Local answers are counted in every window, traced source fetches
	// only in traced ones; scale the latter to the whole run.
	local := float64(local1 - local0)
	remote := frac(float64(reqFetches*reads), float64(tracedReads))
	m := map[string]metric{
		"failed_frac":            {frac(float64(res.Failed), float64(res.Attempted)), "frac"},
		"trace.overhead_frac":    {medianLatency(on)/medianLatency(off) - 1, "frac"},
		"cluster.queued_max":     {float64(smp.queuedMax), "count"},
		"cluster.shed":           {float64(st1.ShedQueueFull + st1.ShedDeadline - st0.ShedQueueFull - st0.ShedDeadline), "count"},
		"sched.degree_mean":      {smp.degreeMean(), "workers"},
		"sched.downgrades":       {frac(float64(sn1.Downgrades-sn0.Downgrades), float64(reads)), "1/query"},
		"qcache.hit_ratio":       {frac(hits, hits+misses), "frac"},
		"qcache.evictions":       {float64(cs1.Evictions - cs0.Evictions), "count"},
		"qcache.stale_hits":      {float64(stale), "count"},
		"matview.local_frac":     {frac(local, local+remote), "frac"},
		"sources.fetch_us":       {mean(fetchDur), "us"},
		"sources.rows_per_query": {frac(float64(reqRows), float64(tracedReads)), "rows"},
		"runtime.gc_cpu_frac":    {frac(gc1-gc0, cpu1-cpu0), "frac"},
	}
	if len(r.refreshes) > 0 {
		var rs []float64
		for _, d := range r.refreshes {
			rs = append(rs, ms(d))
		}
		m["matview.refresh_ms"] = metric{median(rs), "ms"}
	}
	if err := replayRun(r, d, m, rec); err != nil {
		return nil, err
	}
	res.Metrics = m
	return res, nil
}

func medianLatency(samples []sample) float64 {
	var xs []float64
	for _, s := range samples {
		if s.status == 200 {
			xs = append(xs, ms(s.lat))
		}
	}
	return median(xs)
}

// sampler polls the public cluster and scheduler counters every
// millisecond, and switches tracing between windows.
type sampler struct {
	stopc     chan struct{}
	wg        sync.WaitGroup
	queuedMax int
	granted   int64 // summed over polls that saw a live query
	queries   int64
}

func startSampler(dep *deployment, tracing *atomic.Bool) *sampler {
	s := &sampler{stopc: make(chan struct{})}
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		defer tracing.Store(false)
		t := time.NewTicker(time.Millisecond)
		defer t.Stop()
		start := time.Now()
		for {
			select {
			case <-s.stopc:
				return
			case now := <-t.C:
				tracing.Store(now.Sub(start)/traceWindow%2 == 1)
			}
			s.queuedMax = max(s.queuedMax, dep.sys.Cluster().Queued())
			if sn := dep.sys.Scheduler().Snap(); sn.Queries > 0 {
				s.granted += int64(sn.Granted)
				s.queries += int64(sn.Queries)
			}
		}
	}()
	return s
}

func (s *sampler) stop() {
	close(s.stopc)
	s.wg.Wait()
}

// degreeMean is the mean granted degree of live queries: each holds
// degree−1 slots, so it is 1 + slots/queries.
func (s *sampler) degreeMean() float64 {
	return 1 + frac(float64(s.granted), float64(s.queries))
}

// replayQueries picks the queries of the stepped replay: the first two
// distinct queries of each read class in the op stream, weighted so
// each class counts by its mix share.
func replayQueries(w *workload, ops []op) ([]string, []string, []float64) {
	share := map[string]float64{}
	total := 0
	for _, e := range w.deck {
		total += e.n
	}
	for _, e := range w.deck {
		share[e.class] = float64(e.n) / float64(total)
	}
	const per = 2
	seen := map[string]bool{}
	count := map[string]int{}
	var qs, classes []string
	for _, o := range ops {
		if o.class == classWrite || seen[o.query] || count[o.class] == per {
			continue
		}
		seen[o.query] = true
		count[o.class]++
		qs = append(qs, o.query)
		classes = append(classes, o.class)
	}
	weights := make([]float64, len(qs))
	norm := 0.0
	for i, c := range classes {
		weights[i] = share[c] / float64(count[c])
		norm += weights[i]
	}
	for i := range weights {
		weights[i] /= norm
	}
	return qs, classes, weights
}

// replayed is one query's stepped replay: layer self times and the
// outer timings are medians over replayReps.
type replayed struct {
	Class    string             `json:"class"`
	Weight   float64            `json:"weight"`
	LayersUS map[string]float64 `json:"layers_us"`
	cnt      stepCounts
}

// Layers whose self times add up to what core.Engine.QueryOpt does.
var engineLayers = []string{"xmlql.parse", "mediator.unfold", "opt.plan", "exec.prefetch",
	"sources.fetch", "algebra.eval", "algebra.construct", "algebra.sort", "obs.explain_render"}

func replayRun(r *runner, d *dataset, m map[string]metric, rec map[string]any) error {
	cfg := r.w.cfg
	cfg.CacheEntries, cfg.CachePerInstance = 0, false
	dep, err := newDeployment(d, cfg)
	if err != nil {
		return err
	}
	defer dep.close()
	if err := dep.serve(1); err != nil {
		return err
	}
	ctx := context.Background()
	if r.w.materialize {
		if err := dep.sys.Materialize(ctx, "customers"); err != nil {
			return err
		}
	}
	tr := newTracer()
	var on atomic.Bool
	on.Store(true)
	dep.sys.WrapSources(wrapTimed(tr, &on))
	rp := &runner{w: r.w, dep: dep}
	qs, classes, weights := replayQueries(r.w, r.ops)
	var out []replayed
	for qi, q := range qs {
		reps := map[string][]float64{}
		var cnt stepCounts
		for rep := 0; rep < replayReps; rep++ {
			t0 := time.Now()
			status, body, err := rp.post("/query", q, 0, false)
			httpT := time.Since(t0)
			if err != nil || status != 200 {
				return fmt.Errorf("replay http: status %d: %v", status, err)
			}
			t0 = time.Now()
			if _, err := dep.sys.Cluster().QueryOpt(ctx, q, core.QueryOptions{}); err != nil {
				return err
			}
			clusterT := time.Since(t0)
			t0 = time.Now()
			if _, err := dep.sys.Engine(0).QueryOpt(ctx, q, core.QueryOptions{}); err != nil {
				return err
			}
			engineT := time.Since(t0)
			ref, err := dep.sys.Query(ctx, q)
			if err != nil {
				return err
			}
			req := uint64(1_000_000*(qi+1) + rep)
			st := &stepper{dep: dep, tr: tr, req: req, scope: &fetchScope{req: req}}
			root := tr.begin("replay", 0, req)
			got, err := st.query(ctx, q, root)
			tr.end(root, 0)
			if err != nil {
				return fmt.Errorf("stepped replay: %w", err)
			}
			if got != ref.XML() || string(body) != ref.XML() {
				return fmt.Errorf("stepped replay of a %s query is not byte-identical to System.Query", classes[qi])
			}
			if err := st.rdbProbe(q); err != nil {
				return err
			}
			var spans []span
			for _, s := range tr.snapshot() {
				if s.Req == req {
					spans = append(spans, s)
				}
			}
			layers := selfByName(spans)
			attributed := time.Duration(0)
			for _, l := range engineLayers {
				attributed += layers[l]
				reps[l] = append(reps[l], us(layers[l]))
			}
			// The outer calls run the same query as the stepped replay;
			// their differences are the front end's, the cluster hop's,
			// and what Engine.QueryOpt does beyond the replayed steps.
			reps["xmlparse.serialize"] = append(reps["xmlparse.serialize"], us(layers["xmlparse.serialize"]))
			reps["server.self"] = append(reps["server.self"], us(httpT-clusterT))
			reps["cluster.self"] = append(reps["cluster.self"], us(clusterT-engineT))
			reps["core.overhead"] = append(reps["core.overhead"], us(engineT-attributed))
			reps["core.query"] = append(reps["core.query"], us(engineT))
			reps["rdb.exec"] = append(reps["rdb.exec"], us(st.cnt.rdbExec))
			if rep == 0 {
				cnt = st.cnt
			}
		}
		rq := replayed{Class: classes[qi], Weight: weights[qi], LayersUS: map[string]float64{}, cnt: cnt}
		for l, xs := range reps {
			rq.LayersUS[l] = median(xs)
		}
		rq.LayersUS["algebra.tuples_per_result"] = frac(float64(cnt.tuples), float64(cnt.results))
		out = append(out, rq)
	}
	if err := tr.write(filepath.Join(outDir, fmt.Sprintf("spans-%s-replay.jsonl", r.w.name))); err != nil {
		return err
	}
	rec["replay"] = out

	wmean := func(layer string) float64 {
		v := 0.0
		for _, rq := range out {
			v += rq.Weight * rq.LayersUS[layer]
		}
		return v
	}
	wsum := func(f func(stepCounts) float64) float64 {
		v := 0.0
		for _, rq := range out {
			v += rq.Weight * f(rq.cnt)
		}
		return v
	}
	for name, layer := range map[string]string{
		"server.self_us": "server.self", "cluster.self_us": "cluster.self", "core.overhead_us": "core.overhead",
		"obs.explain_render_us": "obs.explain_render", "xmlql.parse_us": "xmlql.parse",
		"mediator.unfold_us": "mediator.unfold", "opt.plan_us": "opt.plan", "rdb.exec_us": "rdb.exec",
		"exec.prefetch_us": "exec.prefetch", "algebra.eval_us": "algebra.eval",
		"algebra.construct_us": "algebra.construct", "algebra.sort_us": "algebra.sort",
		"xmlparse.serialize_us": "xmlparse.serialize",
	} {
		m[name] = metric{wmean(layer), "us"}
	}
	m["core.unattributed_frac"] = metric{frac(wmean("core.overhead"), wmean("core.query")), "frac"}
	m["mediator.rewrites_per_query"] = metric{wsum(func(c stepCounts) float64 { return float64(c.rewrites) }), "count"}
	m["exec.fetches_per_query"] = metric{wsum(func(c stepCounts) float64 { return float64(c.fetches) }), "count"}
	m["opt.pushdown_frac"] = metric{frac(wsum(func(c stepCounts) float64 { return float64(c.pushed) }),
		wsum(func(c stepCounts) float64 { return float64(c.fetches) })), "frac"}
	m["rdb.scanned_per_returned"] = metric{frac(wsum(func(c stepCounts) float64 { return float64(c.rdbScanned) }),
		wsum(func(c stepCounts) float64 { return float64(c.rdbReturned) })), "rows"}
	m["sources.allocs_per_row"] = metric{frac(wsum(func(c stepCounts) float64 { return float64(c.fetchAllocs) }),
		wsum(func(c stepCounts) float64 { return float64(c.fetchRows) })), "count"}
	results := wsum(func(c stepCounts) float64 { return float64(c.results) })
	m["algebra.tuples_per_result"] = metric{frac(wsum(func(c stepCounts) float64 { return float64(c.tuples) }), results), "count"}
	m["algebra.allocs_per_tuple"] = metric{frac(wsum(func(c stepCounts) float64 { return float64(c.evalAllocs) }),
		wsum(func(c stepCounts) float64 { return float64(c.topTuples) })), "count"}
	m["xmlparse.bytes_per_row"] = metric{frac(wsum(func(c stepCounts) float64 { return float64(c.bytes) }), results), "bytes"}

	if _, ok := m["matview.refresh_ms"]; !ok {
		// No refresh ran under load: time refreshes of a materialized
		// customers schema on this workload's data.
		if !r.w.materialize {
			if err := dep.sys.Materialize(ctx, "customers"); err != nil {
				return err
			}
		}
		var rs []float64
		for i := 0; i < replayReps; i++ {
			t0 := time.Now()
			if status, _, err := rp.post("/admin/refresh?schema=customers&token="+adminToken, "", 0, false); err != nil || status != 200 {
				return fmt.Errorf("refresh: status %d: %v", status, err)
			}
			rs = append(rs, ms(time.Since(t0)))
		}
		m["matview.refresh_ms"] = metric{median(rs), "ms"}
	}
	return nil
}
