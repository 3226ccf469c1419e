package main

import (
	"bytes"
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// maxStreamFactor bounds a run's wall time as a multiple of --seconds.
const maxStreamFactor = 4

// Outcomes of one op.
const (
	outOK    = "ok"
	outStale = "stale" // an earlier version of the data, after a newer one was refreshed
	outWrong = "wrong" // matches no version of the data
	outShed  = "shed"  // 503 from admission control
	outError = "error"
)

// sample is one attempted op.
type sample struct {
	op      int           // index into the op stream
	lat     time.Duration // from send to the last byte of the response
	traced  bool          // sent while benchmark tracing was on
	status  int           // HTTP status, 0 on transport error
	hash    uint64        // of the response body
	rows    int           // result rows in the response body
	vLo     int           // writes completed when the read was sent
	vHi     int           // writes started when the read completed
	outcome string
}

// runner drives one deployment with one op stream.
type runner struct {
	w   *workload
	dep *deployment
	ops []op
	tr  *tracer // nil: benchmark tracing off
	// heapBase is the live heap after a GC once the dataset and the op
	// stream exist, before the program is loaded.
	heapBase float64
	// tracing switches the tracer on and off during a traced run; the
	// timing source wrapper shares it.
	tracing atomic.Bool
	req     atomic.Uint64

	// Writes apply one at a time; version v is the data after the v-th
	// applied insert and its refresh.
	writeMu   sync.Mutex
	started   atomic.Int64
	completed atomic.Int64
	applied   []customer      // guarded by writeMu; inserts in apply order
	refreshes []time.Duration // guarded by writeMu
}

// run measures the op stream with w.clients closed-loop clients. A
// read-only stream is cycled for at least dur and until there are
// minSamples samples; a stream with writes is sent once, whole (a
// second pass would repeat the inserts), and fails if that takes over
// maxStreamFactor*dur. It returns the samples and the wall time to the
// last completion.
func (r *runner) run(dur time.Duration, minSamples int) ([]sample, time.Duration, error) {
	var (
		mu      sync.Mutex
		samples []sample
		next    atomic.Int64
		lastEnd time.Time
		wg      sync.WaitGroup
	)
	whole := r.w.opsPerSec > 0
	start := time.Now()
	for c := 0; c < r.w.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				el := time.Since(start)
				if whole {
					if i >= len(r.ops) || el >= maxStreamFactor*dur {
						return
					}
				} else {
					mu.Lock()
					enough := len(samples) >= minSamples
					mu.Unlock()
					if (el >= dur && enough) || el >= maxStreamFactor*dur {
						return
					}
				}
				send := time.Now()
				s := r.do(i % len(r.ops))
				end := time.Now()
				s.lat = end.Sub(send)
				mu.Lock()
				samples = append(samples, s)
				if end.After(lastEnd) {
					lastEnd = end
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	if whole && len(samples) < len(r.ops) {
		return nil, 0, fmt.Errorf("sent %d of %d ops in %v, the limit for a %v run", len(samples), len(r.ops), maxStreamFactor*dur, dur)
	}
	return samples, lastEnd.Sub(start), nil
}

// do executes op i.
func (r *runner) do(i int) sample {
	o := &r.ops[i]
	s := sample{op: i}
	if o.class == classWrite {
		s.status = r.write(o)
		s.outcome = outOK
		if s.status != http.StatusOK {
			s.outcome = outError
		}
		return s
	}
	s.vLo = int(r.completed.Load())
	req := r.req.Add(1)
	s.traced = r.tr != nil && r.tracing.Load()
	sid := 0
	if s.traced {
		sid = r.tr.begin("http", 0, req)
	}
	status, body, err := r.post("/query", o.query, req, s.traced)
	if s.traced {
		r.tr.end(sid, 0)
	}
	s.vHi = int(r.started.Load())
	s.status = status
	switch {
	case err != nil:
		s.outcome = outError
	case status == http.StatusServiceUnavailable:
		s.outcome = outShed
	case status != http.StatusOK:
		s.outcome = outError
	default:
		h := fnv.New64a()
		h.Write(body)
		s.hash = h.Sum64()
		s.rows = countRows(body)
	}
	return s
}

// write inserts one customer into crmdb and refreshes the materialized
// customers schema through the admin endpoint.
func (r *runner) write(o *op) int {
	r.writeMu.Lock()
	defer r.writeMu.Unlock()
	r.started.Add(1)
	if _, err := r.dep.crm.Exec(o.ins.insertSQL()); err != nil {
		return 0
	}
	r.applied = append(r.applied, o.ins)
	t0 := time.Now()
	status, _, err := r.post("/admin/refresh?schema=customers&token="+adminToken, "", r.req.Add(1), false)
	r.refreshes = append(r.refreshes, time.Since(t0))
	if err != nil {
		return 0
	}
	r.completed.Add(1)
	return status
}

// post sends one request; traced requests carry their id to the server.
func (r *runner) post(path, body string, req uint64, traced bool) (int, []byte, error) {
	hr, err := http.NewRequestWithContext(context.Background(), http.MethodPost, r.dep.url+path, strings.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	if traced {
		hr.Header.Set("traceparent", traceparent(req))
	}
	resp, err := r.dep.client.Do(hr)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, fmt.Errorf("read %s: %w", path, err)
	}
	return resp.StatusCode, b, nil
}

// countRows counts the result elements of a serialized <results>
// document: the elements opened at the first indentation level.
func countRows(body []byte) int {
	return bytes.Count(body, []byte("\n  <")) - bytes.Count(body, []byte("\n  </"))
}
