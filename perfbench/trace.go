package main

import (
	"bufio"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/obs"
	"repro/internal/xmldm"
)

// span is one timed interval at a layer boundary. Spans of one request
// share Req; Parent is the id of the enclosing span (0 for a root).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    uint64 `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"` // since the tracer's origin
	End    int64  `json:"end_ns"`
	Rows   int    `json:"rows,omitempty"`
}

// tracer keeps spans in memory; write dumps them at the end of a run.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span         // guarded by mu; span id = index+1
	byReq  map[uint64]int // guarded by mu; request id → its root span
}

func newTracer() *tracer {
	return &tracer{origin: time.Now(), byReq: map[uint64]int{}}
}

func (t *tracer) begin(name string, parent int, req uint64) int {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name, Start: now})
	if parent == 0 {
		t.byReq[req] = id
	}
	return id
}

func (t *tracer) end(id, rows int) {
	now := int64(time.Since(t.origin))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[id-1].End = now
	t.spans[id-1].Rows = rows
}

// rootOf is the root span of a request (0 if none was begun).
func (t *tracer) rootOf(req uint64) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.byReq[req]
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes returns each span's duration minus the part of its interval
// that its children cover (overlapping children count once).
func selfTimes(spans []span) map[int]time.Duration {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self := make(map[int]time.Duration, len(spans))
	for _, s := range spans {
		iv := children[s.ID]
		sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
		covered := int64(0)
		cur := s.Start // everything before cur is already counted
		for _, c := range iv {
			lo, hi := max(c[0], cur), min(c[1], s.End)
			if hi > lo {
				covered += hi - lo
				cur = hi
			}
		}
		self[s.ID] = time.Duration(s.End - s.Start - covered)
	}
	return self
}

// selfByName sums self time per span name.
func selfByName(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for _, s := range spans {
		out[s.Name] += self[s.ID]
	}
	return out
}

// Request ids travel to the server as the low half of a W3C trace id,
// so spans recorded behind the front end can name their request.
func traceparent(req uint64) string {
	return fmt.Sprintf("00-%016x%016x-%016x-01", uint64(1), req, req)
}

func reqOfTrace(id obs.TraceID) uint64 { return binary.BigEndian.Uint64(id[8:]) }

// fetchScope tells the timing wrapper which span a stepped-replay fetch
// belongs under; under load the wrapper reads the request id from the
// server's trace context instead.
type fetchScope struct {
	req    uint64
	parent atomic.Int64
}

type scopeKey struct{}

// timedSource records a sources.fetch span around every fetch. It keeps
// Inner so the planner still sees the relational descriptors through it
// and pushdown survives the wrapping.
type timedSource struct {
	inner catalog.Source
	tr    *tracer
	on    *atomic.Bool
}

func (s *timedSource) Name() string                       { return s.inner.Name() }
func (s *timedSource) Capabilities() catalog.Capabilities { return s.inner.Capabilities() }
func (s *timedSource) Inner() catalog.Source              { return s.inner }

func (s *timedSource) Fetch(ctx context.Context, req catalog.Request) (*xmldm.Node, catalog.Cost, error) {
	if !s.on.Load() {
		return s.inner.Fetch(ctx, req)
	}
	var id uint64
	parent := 0
	if sc, ok := ctx.Value(scopeKey{}).(*fetchScope); ok {
		id, parent = sc.req, int(sc.parent.Load())
	} else if sp := obs.FromContext(ctx); sp != nil {
		id = reqOfTrace(sp.TraceID())
		parent = s.tr.rootOf(id)
	}
	sid := s.tr.begin("sources.fetch", parent, id)
	doc, cost, err := s.inner.Fetch(ctx, req)
	s.tr.end(sid, cost.RowsReturned)
	return doc, cost, err
}

// wrapTimed returns the WrapSources function installing timedSource;
// it records while on is set.
func wrapTimed(tr *tracer, on *atomic.Bool) func(catalog.Source) catalog.Source {
	return func(src catalog.Source) catalog.Source {
		if _, done := src.(*timedSource); done {
			return nil
		}
		return &timedSource{inner: src, tr: tr, on: on}
	}
}
