package core

import (
	"context"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/catalog"
	"repro/internal/sources"
)

// scrubTimes replaces wall-clock figures and the unfolder's process-
// global variable counter in a rendered EXPLAIN tree, so golden
// comparisons see only the deterministic structure and counts.
var (
	timeRE = regexp.MustCompile(`time=[0-9.]+ms`)
	unfRE  = regexp.MustCompile(`_u[0-9]+_`)
)

func scrubTimes(s string) string {
	return unfRE.ReplaceAllString(timeRE.ReplaceAllString(s, "time=?ms"), "_uN_")
}

const twoSourceJoinQL = `
	WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets"
	CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`

func TestExplainGoldenTwoSourceJoin(t *testing.T) {
	e, _ := newTestEngine(t)
	slow := NewSlowLog(4, 0)
	active := NewActiveRegistry()
	e.SetIntrospection(slow, active)

	res, err := e.Query(context.Background(), twoSourceJoinQL)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Values) != 3 {
		t.Fatalf("values = %d, want 3", len(res.Values))
	}
	if res.Explain == nil {
		t.Fatal("Explain = nil (instrumentation must be on by default)")
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=3 in=3 time=?ms
├─ Select [($i = $_uN_i)] out=3 in=3 time=?ms
│  └─ HashJoin out=3 in=6 time=?ms peak=3
│     ├─ FuncScan [pushdown crmdb: SELECT city AS v__uN_c, id AS v__uN_i, name AS v__uN_n FROM customers] out=3 time=?ms
│     └─ Match [fetch tickets <ticket>] out=3 in=1 time=?ms peak=2
│        └─ Singleton out=1 time=?ms
├─ Fetch [crmdb fetches=1 bytes=144] out=3 time=?ms
└─ Fetch [tickets fetches=1 bytes=240] out=10 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}

	// The execution also lands in the slow log (threshold 0) with the
	// same rendered plan, and the active registry is drained.
	entries := slow.Entries()
	if len(entries) != 1 {
		t.Fatalf("slow entries = %d", len(entries))
	}
	if entries[0].Plan != res.Explain.Render() {
		t.Error("slow entry plan differs from the result's explain tree")
	}
	if !entries[0].Complete || entries[0].Tuples != res.Stats.TuplesEmitted {
		t.Errorf("slow entry = %+v", entries[0])
	}
	if !strings.Contains(entries[0].Query, "<ticket>") {
		t.Errorf("slow entry query = %q", entries[0].Query)
	}
	if active.Len() != 0 {
		t.Errorf("active queries after completion = %d", active.Len())
	}
	if res.Stats.OperatorsRun <= 0 || res.Stats.DrainNanos <= 0 {
		t.Errorf("stats = %+v (drain accounting missing)", res.Stats)
	}
}

// TestExplainGoldenPointJoinPushesConstant: a constant on the join
// variable of a join through a mediated schema reaches the relational
// side through the equivalence $i = $_uN_i, so the crmdb fragment
// carries WHERE (id = 2) and exports one row instead of the table.
func TestExplainGoldenPointJoinPushesConstant(t *testing.T) {
	e, _ := newTestEngine(t)
	res, err := e.Query(context.Background(), `
	WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
	      <ticket><cust>$i</cust><subject>$s</subject></ticket> IN "tickets", $i = 2
	CONSTRUCT <r><who>$w</who><subject>$s</subject></r>`)
	if err != nil {
		t.Fatal(err)
	}
	if got := texts(res.Values); len(got) != 1 || got[0] != "Alan TuringManual unclear" {
		t.Fatalf("values = %q", got)
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=1 in=1 time=?ms
├─ Select [($i = $_uN_i)] out=1 in=1 time=?ms
│  └─ HashJoin out=1 in=2 time=?ms peak=1
│     ├─ Select [($i = 2)] out=1 in=3 time=?ms
│     │  └─ Match [fetch tickets <ticket>] out=3 in=1 time=?ms peak=2
│     │     └─ Singleton out=1 time=?ms
│     └─ FuncScan [pushdown crmdb: SELECT city AS v__uN_c, id AS v__uN_i, name AS v__uN_n FROM customers WHERE (id = 2)] out=1 time=?ms
├─ Fetch [crmdb fetches=1 bytes=48] out=1 time=?ms
└─ Fetch [tickets fetches=1 bytes=240] out=10 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
}

// TestExplainGoldenCorrelatedSubqueryPushesOuterValue: a correlated
// subquery runs once per outer binding, and each run pushes the outer
// value into its fragment, so salesdb is read by one indexed
// WHERE (cust = N) lookup per customer instead of a full export.
func TestExplainGoldenCorrelatedSubqueryPushesOuterValue(t *testing.T) {
	e, _ := newTestEngine(t)
	src, err := e.Catalog().Source("salesdb")
	if err != nil {
		t.Fatal(err)
	}
	sales := src.(*sources.RelationalSource).DB()
	sales.MustExec(`CREATE INDEX ON orders (cust)`)
	var sqls []string
	e.SetObserver(func(source string, req catalog.Request, _ catalog.Cost, _ error) {
		if source == "salesdb" {
			sqls = append(sqls, req.Native)
		}
	})
	res, err := e.Query(context.Background(), `
		WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers"
		CONSTRUCT <p><who>$w</who><n>{ count({ WHERE <order><cust>$i</cust></order> IN "salesdb" CONSTRUCT <o/> }) }</n></p>
		ORDER-BY $w`)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(texts(res.Values), ","); got != "Ada Lovelace2,Alan Turing1,Grace Hopper1" {
		t.Fatalf("values = %s", got)
	}
	got := scrubTimes(res.Explain.Render())
	want := strings.TrimPrefix(`
Query [rewrites=1] out=3 in=3 time=?ms
├─ FuncScan [pushdown crmdb: SELECT city AS v__uN_c, id AS v__uN_i, name AS v__uN_n FROM customers ORDER BY name] out=3 time=?ms
├─ Fetch [crmdb fetches=1 bytes=144] out=3 time=?ms
└─ Fetch [salesdb fetches=3 bytes=64] out=4 time=?ms
`, "\n")
	if got != want {
		t.Errorf("explain tree:\n%s\nwant:\n%s", got, want)
	}
	sort.Strings(sqls)
	wantSQL := []string{
		"SELECT cust AS v__uN_i FROM orders WHERE (cust = 1)",
		"SELECT cust AS v__uN_i FROM orders WHERE (cust = 2)",
		"SELECT cust AS v__uN_i FROM orders WHERE (cust = 3)",
	}
	if len(sqls) != len(wantSQL) {
		t.Fatalf("salesdb requests = %q, want %q", sqls, wantSQL)
	}
	for i, q := range sqls {
		if scrubTimes(q) != wantSQL[i] {
			t.Errorf("salesdb request %d = %q, want %q", i, q, wantSQL[i])
		}
		r, err := sales.Exec(q)
		if err != nil || !r.Stats.IndexUsed {
			t.Errorf("%s: err=%v index used=%v, want an index lookup", q, err, r != nil && r.Stats.IndexUsed)
		}
	}
}

func TestSlowLogThresholdAndOrder(t *testing.T) {
	l := NewSlowLog(2, 5*time.Millisecond)
	l.Record(SlowEntry{Query: "fast", DurationMS: 1}, nil)
	l.Record(SlowEntry{Query: "slow", DurationMS: 50}, nil)
	l.Record(SlowEntry{Query: "slower", DurationMS: 80}, nil)
	l.Record(SlowEntry{Query: "mid", DurationMS: 20}, nil)
	entries := l.Entries()
	if len(entries) != 2 {
		t.Fatalf("entries = %d, want 2", len(entries))
	}
	if entries[0].Query != "slower" || entries[1].Query != "slow" {
		t.Errorf("order = %q, %q", entries[0].Query, entries[1].Query)
	}
}

// TestSlowLogRendersOnlyKeptEntries: the plan renderer runs only for an
// entry the log inserts, never for one below the threshold or outranked
// in a full log.
func TestSlowLogRendersOnlyKeptEntries(t *testing.T) {
	l := NewSlowLog(2, 5*time.Millisecond)
	renders := 0
	plan := func(name string) func() string {
		return func() string { renders++; return "plan " + name }
	}
	l.Record(SlowEntry{Query: "fast", DurationMS: 1}, plan("fast"))
	if renders != 0 {
		t.Fatalf("renders after below-threshold entry = %d, want 0", renders)
	}
	l.Record(SlowEntry{Query: "slow", DurationMS: 50}, plan("slow"))
	l.Record(SlowEntry{Query: "slower", DurationMS: 80}, plan("slower"))
	if renders != 2 {
		t.Fatalf("renders after two kept entries = %d, want 2", renders)
	}
	l.Record(SlowEntry{Query: "mid", DurationMS: 20}, plan("mid"))
	if renders != 2 {
		t.Fatalf("renders after outranked entry = %d, want 2", renders)
	}
	entries := l.Entries()
	if len(entries) != 2 || entries[0].Plan != "plan slower" || entries[1].Plan != "plan slow" {
		t.Errorf("entries = %+v", entries)
	}
}

func TestActiveRegistrySnapshot(t *testing.T) {
	r := NewActiveRegistry()
	a := r.Register("WHERE ... CONSTRUCT ...")
	a.SetPhase("eval")
	snap := r.Snapshot()
	if len(snap) != 1 || snap[0].Phase != "eval" || snap[0].Query != "WHERE ... CONSTRUCT ..." {
		t.Fatalf("snapshot = %+v", snap)
	}
	r.Finish(a)
	if r.Len() != 0 {
		t.Errorf("len after finish = %d", r.Len())
	}
	// Nil receivers are inert.
	var nilReg *ActiveRegistry
	if aq := nilReg.Register("x"); aq != nil {
		t.Error("nil registry must return nil handle")
	}
	var nilAQ *ActiveQuery
	nilAQ.SetPhase("eval")
	var nilLog *SlowLog
	nilLog.Record(SlowEntry{DurationMS: 100}, nil)
}
