package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	nimble "repro"
)

func TestSameSeedSameOpStream(t *testing.T) {
	for _, name := range workloadNames() {
		w := workloads[name]
		d := genData(7)
		a := genOps(w, d, 7, 500)
		b := genOps(w, genData(7), 7, 500)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: seed 7 gave two different op streams", name)
		}
		if reflect.DeepEqual(a, genOps(w, d, 8, 500)) {
			t.Errorf("%s: seeds 7 and 8 gave the same op stream", name)
		}
		if !reflect.DeepEqual(genData(7), d) {
			t.Errorf("%s: seed 7 gave two different datasets", name)
		}
	}
}

func TestDeckSharesAreExact(t *testing.T) {
	w := workloads["interactive_lookup"]
	ops := genOps(w, genData(1), 1, 40*25)
	got := map[string]int{}
	for _, o := range ops {
		got[o.class]++
	}
	for _, e := range w.deck {
		if got[e.class] != 25*e.n {
			t.Errorf("class %s: %d ops, want %d", e.class, got[e.class], 25*e.n)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	// root [0,100) has children [10,40) and [30,60) (overlapping: they
	// cover 50) and [90,120) (clipped to 10); child 2 has a child [35,45).
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 30, End: 60},
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},
		{ID: 5, Parent: 2, Name: "d", Start: 35, End: 45},
	}
	self := selfTimes(spans)
	want := map[int]time.Duration{1: 40, 2: 25, 3: 30, 4: 30, 5: 10}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("span %d: self %d, want %d", id, self[id], w)
		}
	}
	if got := selfByName(spans)["a"]; got != 25 {
		t.Errorf("selfByName a = %d, want 25", got)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	xs := make([]float64, 200)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, ok := percentile(xs, 0.95); v != 190 || !ok {
		t.Errorf("p95 of 1..200 = %v, %v; want 190 with 10 beyond", v, ok)
	}
	if v, ok := percentile(xs[:199], 0.95); v != 190 || ok {
		t.Errorf("p95 of 1..199 = %v, %v; want 190 with only 9 beyond", v, ok)
	}
	if v, ok := percentile(xs, 0.5); v != 100 || !ok {
		t.Errorf("p50 of 1..200 = %v, %v; want 100", v, ok)
	}
	if n := minSamplesFor(0.95); n != 200 {
		t.Errorf("minSamplesFor(0.95) = %d, want 200", n)
	}
	if n := minSamplesFor(0.5); n != 20 {
		t.Errorf("minSamplesFor(0.5) = %d, want 20", n)
	}
}

func TestTimingWrapperKeepsPushdown(t *testing.T) {
	dep, err := newDeployment(genData(1), nimble.Config{})
	if err != nil {
		t.Fatal(err)
	}
	tr := newTracer()
	var on atomic.Bool
	on.Store(true)
	dep.sys.WrapSources(wrapTimed(tr, &on))
	q := interactiveQuery("point", rand.New(rand.NewSource(1)), nil)
	res, err := dep.sys.Query(context.Background(), q)
	if err != nil {
		t.Fatal(err)
	}
	pushed := false
	for _, line := range res.Stats.Explain {
		if strings.HasPrefix(line, "pushdown crmdb: SELECT") && strings.Contains(line, "WHERE") {
			pushed = true
		}
	}
	if !pushed {
		t.Errorf("no pushed crmdb selection through the wrapper; EXPLAIN: %q", res.Stats.Explain)
	}
	fetches := 0
	for _, s := range tr.snapshot() {
		if s.Name == "sources.fetch" && s.End >= s.Start && s.Rows == 1 {
			fetches++
		}
	}
	if fetches != 1 {
		t.Errorf("recorded %d one-row fetch spans, want 1", fetches)
	}
}

// The latency limits are set once, in this package, and repeated in
// BENCHMARK.json; keep the two equal.
func TestBenchmarkJSONRecordsLimits(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		Workloads []struct{ Name, Why string }
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, bw := range bench.Workloads {
		w := workloads[bw.Name]
		if w == nil {
			t.Errorf("BENCHMARK.json names unknown workload %q", bw.Name)
			continue
		}
		seen[bw.Name] = true
		if want := fmt.Sprintf("SLO %g ms", w.sloMS); !strings.Contains(bw.Why, want) {
			t.Errorf("%s: why %q lacks %q", bw.Name, bw.Why, want)
		}
	}
	for _, name := range workloadNames() {
		if !seen[name] {
			t.Errorf("workload %s is missing from BENCHMARK.json", name)
		}
	}
}

// A short stream with frequent writes: it is sent once and whole, every
// op gets an outcome, every write applies, and no answer matches no
// version of the data.
func TestStreamWithWritesIsJudged(t *testing.T) {
	w := *workloads["cached_serving"]
	w.deck = []deckEntry{{classRead, 9}, {classWrite, 1}}
	d := genData(3)
	ops := genOps(&w, d, 3, 200)
	dep, err := newDeployment(d, w.cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := dep.serve(w.clients); err != nil {
		t.Fatal(err)
	}
	if err := dep.sys.Materialize(context.Background(), "customers"); err != nil {
		t.Fatal(err)
	}
	r := &runner{w: &w, dep: dep, ops: ops}
	samples, _, err := r.run(10*time.Second, 0)
	if cerr := dep.close(); cerr != nil {
		t.Fatal(cerr)
	}
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) != len(ops) {
		t.Fatalf("%d samples for a stream of %d ops", len(samples), len(ops))
	}
	if err := judge(r, d, samples); err != nil {
		t.Fatal(err)
	}
	writes := 0
	for _, s := range samples {
		if s.outcome == "" || s.outcome == outWrong || s.outcome == outError {
			t.Errorf("op %d (%s): outcome %q", s.op, ops[s.op].class, s.outcome)
		}
		if ops[s.op].class == classWrite {
			writes++
		}
	}
	if writes != 20 || len(r.applied) != writes {
		t.Errorf("%d writes sent, %d applied; want 20", writes, len(r.applied))
	}
}
