// Benchmarks: one per experiment in DESIGN.md's per-experiment index
// (F1, E1..E8), regenerating the EXPERIMENTS.md tables under the Go
// bench harness, plus fine-grained operator and end-to-end query
// benchmarks. Run:
//
//	go test -bench=. -benchmem
//	go run ./cmd/nimble-bench          # the same tables, printed
package nimble_test

import (
	"context"
	"fmt"
	"strings"
	"testing"

	nimble "repro"
	"repro/internal/algebra"
	"repro/internal/catalog"
	"repro/internal/experiments"
	"repro/internal/mediator"
	"repro/internal/sources"
	"repro/internal/workload"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// benchScale keeps the per-iteration work small; the printed tables come
// from cmd/nimble-bench.
func benchScale() experiments.Scale {
	return experiments.Scale{Customers: 200, Queries: 40, Trials: 2}
}

func BenchmarkF1_Architecture(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.F1Architecture(benchScale())
	}
}

func BenchmarkE1_WarehousingVsVirtual(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E1WarehousingVsVirtual(benchScale())
	}
}

func BenchmarkE2_ViewSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E2ViewSelection(benchScale())
	}
}

func BenchmarkE3_QueryCache(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E3QueryCache(benchScale())
	}
}

func BenchmarkE4_PartialResults(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E4PartialResults(benchScale())
	}
}

func BenchmarkE5_Pushdown(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E5Pushdown(benchScale())
	}
}

func BenchmarkE6_Cleaning(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E6Cleaning(benchScale())
	}
}

func BenchmarkE7_LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E7LoadBalance(benchScale())
	}
}

// BenchmarkE7_PolicySweep drives the cluster front end directly: one
// sub-benchmark per routing policy × fleet size over the zipf city
// workload, with per-instance caches so the affinity rows show their
// warm-cache advantage. Compare with:
//
//	go test -bench 'E7_PolicySweep' -benchtime 1000x
func BenchmarkE7_PolicySweep(b *testing.B) {
	for _, policy := range []string{"rr", "least", "p2c", "affinity"} {
		for _, instances := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("%s-%d", policy, instances), func(b *testing.B) {
				sys := benchSystem(b, 500, nimble.Config{
					Instances:        instances,
					RoutePolicy:      policy,
					InstanceCapacity: 2,
					CacheEntries:     64,
					CachePerInstance: true,
				})
				queries := workload.CityQueries(64, 0.9, 13)
				ctx := context.Background()
				b.ResetTimer()
				b.RunParallel(func(pb *testing.PB) {
					i := 0
					for pb.Next() {
						if _, err := sys.Query(ctx, queries[i%len(queries)]); err != nil {
							b.Fatal(err)
						}
						i++
					}
				})
			})
		}
	}
}

func BenchmarkE8_Algebra(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E8Algebra(benchScale())
	}
}

func BenchmarkE9_Hierarchy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		experiments.E9Hierarchy(benchScale())
	}
}

// --- Fine-grained benchmarks under the same harness ---------------------

// benchSystem builds the standard deployment once per benchmark.
func benchSystem(b *testing.B, customers int, cfg nimble.Config) *nimble.System {
	b.Helper()
	sys := nimble.New(cfg)
	if err := sys.AddRelationalSource("crmdb", workload.CustomerDB("crm", customers, 2, 1)); err != nil {
		b.Fatal(err)
	}
	if err := sys.DefineSchema("customers", `
		WHERE <customer><id>$i</id><name>$n</name><city>$c</city><tier>$t</tier></customer> IN "crmdb"
		CONSTRUCT <cust><cid>$i</cid><who>$n</who><where>$c</where><tier>$t</tier></cust>`); err != nil {
		b.Fatal(err)
	}
	return sys
}

func BenchmarkQuery_PushdownSelective(b *testing.B) {
	sys := benchSystem(b, 2000, nimble.Config{})
	q := `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Seattle" CONSTRUCT <r>$w</r>`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_NoPushdown(b *testing.B) {
	sys := benchSystem(b, 2000, nimble.Config{DisablePushdown: true})
	q := `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Seattle" CONSTRUCT <r>$w</r>`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_Materialized(b *testing.B) {
	sys := benchSystem(b, 2000, nimble.Config{})
	if err := sys.Materialize(context.Background(), "customers"); err != nil {
		b.Fatal(err)
	}
	q := `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Seattle" CONSTRUCT <r>$w</r>`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_Cached(b *testing.B) {
	sys := benchSystem(b, 2000, nimble.Config{CacheEntries: 8})
	q := `WHERE <cust><who>$w</who><where>$p</where></cust> IN "customers", $p = "Seattle" CONSTRUCT <r>$w</r>`
	ctx := context.Background()
	if _, err := sys.Query(ctx, q); err != nil { // warm
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkQuery_CorrelatedAggregate(b *testing.B) {
	sys := benchSystem(b, 200, nimble.Config{})
	q := `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers", $i < 20
		CONSTRUCT <p name=$w><n>{ count({ WHERE <customer><id>$i</id></customer> IN "crmdb" CONSTRUCT <o/> }) }</n></p>`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuery_ViewJoin joins the customers mediated schema with a
// second relational source. Unfolding leaves the join as $i = $_uN_i,
// which the planner turns into hash-join keys.
func BenchmarkQuery_ViewJoin(b *testing.B) {
	sys := benchSystem(b, 2000, nimble.Config{})
	if err := sys.AddRelationalSource("salesdb", workload.CustomerDB("sales", 2000, 2, 1)); err != nil {
		b.Fatal(err)
	}
	q := `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		<order><cust>$i</cust><oid>$o</oid><total>$t</total></order> IN "salesdb", $o < 20
		CONSTRUCT <r><o>$o</o><w>$w</w><t>$t</t></r> ORDER-BY $o`
	benchQuery(b, sys, q, 20)
}

// BenchmarkQuery_FederatedPointJoin joins the customers mediated schema
// with an XML source for one customer id; the constant reaches the
// crmdb fragment through the join's equivalence class.
func BenchmarkQuery_FederatedPointJoin(b *testing.B) {
	sys := benchSystem(b, 2000, nimble.Config{})
	var tickets strings.Builder
	tickets.WriteString("<tickets>")
	for i := 0; i < 300; i++ {
		fmt.Fprintf(&tickets, "<ticket><cust>%d</cust><issue>issue %d</issue></ticket>", i*5, i)
	}
	tickets.WriteString("</tickets>")
	if err := sys.AddXMLSource("tickets", tickets.String()); err != nil {
		b.Fatal(err)
	}
	q := `WHERE <cust><cid>$i</cid><who>$w</who></cust> IN "customers",
		<ticket><cust>$i</cust><issue>$s</issue></ticket> IN "tickets", $i = 35
		CONSTRUCT <r><w>$w</w><s>$s</s></r>`
	benchQuery(b, sys, q, 1)
}

// benchQuery runs q b.N times and checks the answer has want results.
func benchQuery(b *testing.B, sys *nimble.System, q string, want int) {
	b.Helper()
	ctx := context.Background()
	res, err := sys.Query(ctx, q)
	if err != nil {
		b.Fatal(err)
	}
	if n := len(res.Values); n != want {
		b.Fatalf("results = %d, want %d", n, want)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCleaningFlow(b *testing.B) {
	set := workload.DirtyCustomers(500, 0.3, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys := nimble.New(nimble.Config{})
		flow := benchFlow()
		if _, err := sys.RunCleaningFlow(flow, set.Records, nil, 0); err != nil {
			b.Fatal(err)
		}
	}
}

func benchFlow() *nimble.Flow {
	return experimentsFlowForBench()
}

// experimentsFlowForBench mirrors the E6 flow without exporting it.
func experimentsFlowForBench() *nimble.Flow {
	return &nimble.Flow{
		Name: "bench",
		BlockKey: func(r nimble.Record) string {
			city := r.Get("city")
			if city == "" {
				addr := r.Get("address")
				for i := len(addr) - 1; i >= 0; i-- {
					if addr[i] == ' ' {
						return addr[i+1:]
					}
				}
			}
			return city
		},
		Matcher: func(a, b nimble.Record) float64 {
			if a.Get("name") == b.Get("name") {
				return 1
			}
			return 0
		},
		MatchThreshold:  0.9,
		ReviewThreshold: 0.9,
	}
}

// --- Ablation benchmarks for DESIGN.md §5's design decisions ----------

// Decision 5.1: the hybrid model lets relational data stay tuple-shaped.
// This pair measures the selectivity-1.0 end of the spectrum (the whole
// table is the answer), where the two paths converge: extraction and
// matching each touch every row once. The separation appears under
// selection — compare BenchmarkQuery_PushdownSelective vs
// BenchmarkQuery_NoPushdown (~7× apart at selectivity ≈ 0.1) and
// experiment E8's operator rates.
func BenchmarkAblation_TuplePath(b *testing.B) {
	sys := benchSystem(b, 1000, nimble.Config{})
	q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_TreePath(b *testing.B) {
	sys := benchSystem(b, 1000, nimble.Config{DisablePushdown: true})
	q := `WHERE <cust><who>$w</who></cust> IN "customers" CONSTRUCT <r>$w</r>`
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sys.Query(ctx, q); err != nil {
			b.Fatal(err)
		}
	}
}

// Decision 5.3 (capability-based planning) join-strategy ablation: hash
// join on shared variables vs the nested-loop fallback, on the binding
// streams the planner produces.
func BenchmarkAblation_HashJoin(b *testing.B) {
	left, right := joinInputs(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := &algebra.HashJoin{
			Left:  &algebra.TupleScan{Tuples: left},
			Right: &algebra.TupleScan{Tuples: right},
		}
		if _, err := algebra.Drain(&algebra.Context{}, op); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblation_NestedLoopJoin(b *testing.B) {
	left, right := joinInputs(2000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op := &algebra.NestedLoopJoin{
			Left:  &algebra.TupleScan{Tuples: left},
			Right: &algebra.TupleScan{Tuples: right},
		}
		if _, err := algebra.Drain(&algebra.Context{}, op); err != nil {
			b.Fatal(err)
		}
	}
}

func joinInputs(n int) (l, r []algebra.Binding) {
	l = make([]algebra.Binding, n)
	r = make([]algebra.Binding, n)
	for i := 0; i < n; i++ {
		l[i] = xmldm.NewTuple(xmldm.Field{Name: "k", Value: xmldm.Int(int64(i))},
			xmldm.Field{Name: "a", Value: xmldm.String("l")})
		r[i] = xmldm.NewTuple(xmldm.Field{Name: "k", Value: xmldm.Int(int64(i))},
			xmldm.Field{Name: "b", Value: xmldm.String("r")})
	}
	return l, r
}

// Decision 5.2 (no logical algebra): the full rewrite pipeline cost —
// parse + two-level unfold — per query, the overhead the direct
// compilation strategy must keep small.
func BenchmarkMediatorUnfoldTwoLevels(b *testing.B) {
	cat := catalog.New()
	db := nimble.NewDatabase("crm")
	db.MustExec(`CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR)`)
	cat.AddSource(sources.NewRelationalSource("crmdb", db))
	cat.DefineViewQL("l1", `WHERE <customer><name>$n</name></customer> IN "crmdb" CONSTRUCT <a><x>$n</x></a>`)
	cat.DefineViewQL("l2", `WHERE <a><x>$v</x></a> IN "l1" CONSTRUCT <b><y>$v</y></b>`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q := xmlql.MustParse(`WHERE <b><y>$w</y></b> IN "l2", $w = "z" CONSTRUCT <r>$w</r>`)
		if _, err := mediator.Unfold(cat, q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkXMLParse(b *testing.B) {
	var doc string
	{
		s := "<bib>"
		for i := 0; i < 500; i++ {
			s += fmt.Sprintf("<book year=\"%d\"><title>Book %d</title><price>%d</price></book>", 1990+i%20, i, 10+i%90)
		}
		doc = s + "</bib>"
	}
	b.SetBytes(int64(len(doc)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := nimble.ParseXML(doc); err != nil {
			b.Fatal(err)
		}
	}
}
