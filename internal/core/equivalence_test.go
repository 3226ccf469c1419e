package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/catalog"
	"repro/internal/rdb"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// The unfolding equivalence property: for any query over a mediated
// schema, executing the unfolded rewrite against the sources must
// produce the same multiset of results as matching the original query
// against the fully materialized schema document. This is the soundness
// + completeness statement for the mediator's GAV rewriting — the core
// of the paper's system — checked over a randomized space of view
// shapes and query shapes.

// randomDeployment builds an engine with a random relational dataset and
// a random (but unfoldable) view over it.
func randomDeployment(t *testing.T, rng *rand.Rand) (*Engine, string) {
	t.Helper()
	db := rdb.NewDatabase("d")
	db.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, cat VARCHAR, val INT, label VARCHAR)`)
	cats := []string{"a", "b", "c"}
	n := 10 + rng.Intn(30)
	for i := 0; i < n; i++ {
		db.MustExec(fmt.Sprintf(`INSERT INTO items VALUES (%d, '%s', %d, 'L%d')`,
			i, cats[rng.Intn(len(cats))], rng.Intn(50), rng.Intn(8)))
	}
	cat := catalog.New()
	if err := cat.AddSource(sources.NewRelationalSource("db", db)); err != nil {
		t.Fatal(err)
	}

	// Random view shape: a subset of columns under varying nesting.
	views := []string{
		`WHERE <item><id>$i</id><cat>$c</cat><val>$v</val></item> IN "db"
		 CONSTRUCT <rec><key>$i</key><group>$c</group><score>$v</score></rec>`,
		`WHERE <item><id>$i</id><cat>$c</cat><val>$v</val><label>$l</label></item> IN "db"
		 CONSTRUCT <rec key=$i><group>$c</group><info><score>$v</score><tag>$l</tag></info></rec>`,
		`WHERE <item><id>$i</id><val>$v</val></item> IN "db", $v > 10
		 CONSTRUCT <rec><key>$i</key><score>$v</score></rec>`,
	}
	view := views[rng.Intn(len(views))]
	if err := cat.DefineViewQL("recs", view); err != nil {
		t.Fatal(err)
	}
	return New(cat), view
}

// randomQuery builds a query over the "recs" schema compatible with all
// view shapes above (key/score always exist; group/info may not bind).
func randomQuery(rng *rand.Rand, viewHasAttrKey bool) string {
	preds := []string{
		``,
		`, $s > 25`,
		`, $s >= 10, $s < 40`,
	}
	pred := preds[rng.Intn(len(preds))]
	key := `<key>$k</key>`
	if viewHasAttrKey {
		key = `` // the attr-key view has no <key> element; bind score only
	}
	order := ``
	if rng.Intn(2) == 0 {
		order = ` ORDER-BY $s DESCENDING, $k`
	}
	return `WHERE <rec>` + key + `<//score>$s</></rec> IN "recs"` + pred + `
		CONSTRUCT <out><k>$k</k><s>$s</s></out>` + order
}

// materializedAnswer answers the query by materializing the schema
// document into a static source and querying that — the semantic
// reference implementation.
func materializedAnswer(t *testing.T, e *Engine, q string) []string {
	t.Helper()
	doc, comp, err := e.MaterializeSchema(context.Background(), "recs")
	if err != nil || !comp.Complete {
		t.Fatalf("materialize: %v %+v", err, comp)
	}
	refCat := catalog.New()
	if err := refCat.AddSource(catalog.NewStaticSource("recs", doc)); err != nil {
		t.Fatal(err)
	}
	ref := New(refCat)
	res, err := ref.Query(context.Background(), q)
	if err != nil {
		t.Fatalf("reference query: %v", err)
	}
	return renderAll(res.Values)
}

func renderAll(vals []xmldm.Value) []string {
	out := make([]string, len(vals))
	for i, v := range vals {
		out[i] = v.String()
	}
	return out
}

func TestUnfoldingEquivalence_Property(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, view := randomDeployment(t, rng)
		attrKey := rng.Intn(10) < 3 && view != "" && containsAttrKey(view)
		q := randomQuery(rng, attrKey)

		got, err := e.Query(context.Background(), q)
		if err != nil {
			t.Fatalf("seed %d: unfolded query failed: %v\nquery: %s", seed, err, q)
		}
		want := materializedAnswer(t, e, q)
		gotS := renderAll(got.Values)

		// Ordered comparison when the query orders; multiset otherwise.
		ordered := len(got.Values) > 0 && hasOrderBy(q)
		if !ordered {
			sort.Strings(gotS)
			sort.Strings(want)
		}
		if len(gotS) != len(want) {
			t.Fatalf("seed %d: %d vs %d results\nquery: %s\nview: %s\ngot: %v\nwant: %v",
				seed, len(gotS), len(want), q, view, head(gotS), head(want))
		}
		for i := range gotS {
			if gotS[i] != want[i] {
				t.Fatalf("seed %d: result %d differs\nquery: %s\nview: %s\ngot:  %s\nwant: %s",
					seed, i, q, view, gotS[i], want[i])
			}
		}
	}
}

func containsAttrKey(view string) bool {
	return false // randomQuery always uses the element-key form; kept for clarity
}

func hasOrderBy(q string) bool {
	for i := 0; i+8 <= len(q); i++ {
		if q[i:i+8] == "ORDER-BY" {
			return true
		}
	}
	return false
}

func head(s []string) []string {
	if len(s) > 4 {
		return s[:4]
	}
	return s
}
