package core

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"repro/internal/catalog"
	"repro/internal/opt"
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

// The join-through-a-view equivalence property: the planner's
// equivalence classes turn the `$k = $_uN_i` conjunct that unfolding
// leaves into hash-join keys, push constants across them, and push a
// correlated subquery's outer values into SQL. None of that may change
// an answer: the default plan, the plan without selection pushdown, the
// plan without join reordering and the answer over the materialized
// view must be byte-identical, in order. The generated data mixes the
// cases where SQL and the mediator could disagree: NULL join columns
// (exported as empty text), padded and non-canonical numeric strings
// (" 7", "07", "7.0"), INT keys joined with VARCHAR ones, a DATE column
// the mediator sees as text, and outer values such as " 24", "24.0" and
// "abc" against an INT column.

// joinDeployment builds the "recs" view over relational items plus a
// relational "s2" (links) and an XML "x" (feed) source whose keys refer
// to item ids in assorted spellings.
func joinDeployment(t *testing.T, rng *rand.Rand) (*Engine, *catalog.Catalog) {
	t.Helper()
	spell := func(id int) string {
		switch rng.Intn(8) {
		case 0:
			return fmt.Sprintf(" %d", id)
		case 1:
			return fmt.Sprintf("0%d", id)
		case 2:
			return fmt.Sprintf("%d.0", id)
		case 3:
			return "abc"
		case 4:
			return ""
		default:
			return fmt.Sprint(id)
		}
	}
	sqlText := func(s string) string {
		if rng.Intn(6) == 0 {
			return "NULL"
		}
		return "'" + s + "'"
	}
	var ids []int
	for id := 0; id < 30; id++ {
		if rng.Intn(3) > 0 {
			ids = append(ids, id)
		}
	}
	ids = append(ids, 7, 24) // ids the queries' constants name
	pick := func() int { return ids[rng.Intn(len(ids))] }

	d := rdb.NewDatabase("d")
	d.MustExec(`CREATE TABLE items (id INT PRIMARY KEY, cat VARCHAR, val INT, day DATE)`)
	seen := map[int]bool{}
	for _, id := range ids {
		if seen[id] {
			continue
		}
		seen[id] = true
		d.MustExec(fmt.Sprintf(`INSERT INTO items VALUES (%d, %s, %d, %s)`,
			id, sqlText([]string{"a", "b", "c"}[rng.Intn(3)]), rng.Intn(50), sqlText(fmt.Sprintf("2001-01-0%d", 1+rng.Intn(2)))))
	}

	s2 := rdb.NewDatabase("s2")
	s2.MustExec(`CREATE TABLE links (lid INT PRIMARY KEY, ref VARCHAR, num INT, note VARCHAR)`)
	s2.MustExec(`CREATE INDEX ON links (ref)`)
	s2.MustExec(`CREATE INDEX ON links (num)`)
	for lid := 0; lid < 6+rng.Intn(20); lid++ {
		num := "NULL"
		if rng.Intn(4) > 0 {
			num = fmt.Sprint(pick())
		}
		ref := spell(pick())
		if rng.Intn(4) == 0 {
			ref = []string{" 24", "24.0", "abc"}[rng.Intn(3)]
		}
		s2.MustExec(fmt.Sprintf(`INSERT INTO links VALUES (%d, %s, %s, %s)`,
			lid, sqlText(ref), num, sqlText([]string{"a", "b", "c", "n"}[rng.Intn(4)])))
	}

	var feed strings.Builder
	feed.WriteString("<feed>")
	for eid := 0; eid < 4+rng.Intn(10); eid++ {
		fmt.Fprintf(&feed, "<e><eid>%d</eid><ref>%s</ref><tag>%s</tag><when>2001-01-0%dT00:00:00Z</when></e>",
			eid, spell(pick()), []string{"", "a", "b"}[rng.Intn(3)], 1+rng.Intn(2))
	}
	feed.WriteString("</feed>")

	cat := catalog.New()
	xs, err := sources.NewXMLSource("x", feed.String())
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []catalog.Source{sources.NewRelationalSource("d", d), sources.NewRelationalSource("s2", s2), xs} {
		if err := cat.AddSource(src); err != nil {
			t.Fatal(err)
		}
	}
	if err := cat.DefineViewQL("recs", `
		WHERE <item><id>$i</id><cat>$c</cat><val>$v</val><day>$w</day></item> IN "d"
		CONSTRUCT <rec><key>$i</key><group>$c</group><score>$v</score><when>$w</when></rec>`); err != nil {
		t.Fatal(err)
	}
	return New(cat), cat
}

// joinQuery draws one join or correlated query over the deployment. Each
// orders by a unique key first, so byte-identical answers are well defined.
func joinQuery(rng *rand.Rand) string {
	consts := []string{``, ``, `, $k = 7`, `, $k = "7"`, `, $k = 24`, `, $k = " 24"`, `, $k = "abc"`, `, $k = ""`}
	c := consts[rng.Intn(len(consts))]
	switch rng.Intn(10) {
	case 0: // INT view key = VARCHAR column
		return `WHERE <rec><key>$k</key><score>$s</score></rec> IN "recs",
			<link><lid>$l</lid><ref>$k</ref><note>$n</note></link> IN "s2"` + c + `
			CONSTRUCT <o><l>$l</l><s>$s</s><n>$n</n></o> ORDER-BY $l`
	case 1: // INT view key = nullable INT column
		return `WHERE <link><lid>$l</lid><num>$k</num></link> IN "s2",
			<rec><key>$k</key><group>$g</group></rec> IN "recs"` + c + `
			CONSTRUCT <o><l>$l</l><g>$g</g></o> ORDER-BY $l DESCENDING`
	case 2: // INT view key = XML text
		return `WHERE <rec><key>$k</key><score>$s</score></rec> IN "recs",
			<e><eid>$e</eid><ref>$k</ref></e> IN "x"` + c + `
			CONSTRUCT <o><e>$e</e><s>$s</s></o> ORDER-BY $e`
	case 3: // nullable VARCHAR on both sides: NULL cells export as ""
		return `WHERE <rec><key>$k</key><group>$g</group></rec> IN "recs",
			<link><lid>$l</lid><note>$g</note></link> IN "s2"
			CONSTRUCT <o><l>$l</l><k>$k</k></o> ORDER-BY $l, $k`
	case 9: // a constant on XML text joined to a nullable VARCHAR column
		c = []string{``, `, $g = ""`, `, $g = "a"`}[rng.Intn(3)]
		return `WHERE <e><eid>$e</eid><tag>$g</tag></e> IN "x",
			<rec><key>$k</key><group>$g</group></rec> IN "recs"` + c + `
			CONSTRUCT <o><e>$e</e><k>$k</k></o> ORDER-BY $e, $k`
	case 7: // a DATE column, which the mediator sees as text
		return `WHERE <rec><key>$k</key><when>$w</when></rec> IN "recs",
			<e><eid>$e</eid><when>$w</when></e> IN "x", $w = "2001-01-02T00:00:00Z"
			CONSTRUCT <o><e>$e</e><k>$k</k></o> ORDER-BY $e, $k`
	case 8: // outer "" (a NULL cell) against a nullable VARCHAR column
		return `WHERE <rec><key>$k</key><group>$g</group></rec> IN "recs"
			CONSTRUCT <o><k>$k</k><c>{ count({ WHERE <link><note>$g</note></link> IN "s2" CONSTRUCT <x/> }) }</c></o> ORDER-BY $k`
	case 4: // outer VARCHAR values against the INT id column
		return `WHERE <link><lid>$l</lid><ref>$r</ref></link> IN "s2"
			CONSTRUCT <o><l>$l</l><c>{ count({ WHERE <item><id>$r</id></item> IN "d" CONSTRUCT <x/> }) }</c></o> ORDER-BY $l`
	case 5: // outer values joined to the INT id through a class
		return `WHERE <link><lid>$l</lid><ref>$r</ref></link> IN "s2"
			CONSTRUCT <o><l>$l</l><c>{ count({ WHERE <item><id>$i</id></item> IN "d", $i = $r CONSTRUCT <x/> }) }</c></o> ORDER-BY $l`
	default: // outer INT view keys against the VARCHAR ref column
		return `WHERE <rec><key>$k</key></rec> IN "recs"` + c + `
			CONSTRUCT <o><k>$k</k><c>{ count({ WHERE <link><ref>$k</ref></link> IN "s2" CONSTRUCT <x/> }) }</c></o> ORDER-BY $k`
	}
}

func TestJoinThroughViewEquivalence_Property(t *testing.T) {
	variants := []struct {
		name string
		opts func(*opt.Options)
	}{
		{"no-push-selections", func(o *opt.Options) { o.PushSelections = false }},
		{"no-reorder", func(o *opt.Options) { o.ReorderJoins = false }},
	}
	for seed := int64(0); seed < 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e, cat := joinDeployment(t, rng)
		q := joinQuery(rng)
		run := func(eng *Engine) []string {
			res, err := eng.Query(context.Background(), q)
			if err != nil {
				t.Fatalf("seed %d: %v\nquery: %s", seed, err, q)
			}
			return renderAll(res.Values)
		}
		want := run(e)
		check := func(name string, got []string) {
			if strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("seed %d: %s answer differs from the default plan\nquery: %s\ndefault: %q\n%s: %q",
					seed, name, q, want, name, got)
			}
		}
		for _, v := range variants {
			o := opt.DefaultOptions()
			v.opts(&o)
			e.SetPlannerOptions(o)
			check(v.name, run(e))
		}
		e.SetPlannerOptions(opt.DefaultOptions())

		doc, comp, err := e.MaterializeSchema(context.Background(), "recs")
		if err != nil || !comp.Complete {
			t.Fatalf("seed %d: materialize: %v %+v", seed, err, comp)
		}
		refCat := catalog.New()
		for _, name := range []string{"d", "s2", "x"} {
			src, err := cat.Source(name)
			if err != nil {
				t.Fatal(err)
			}
			if err := refCat.AddSource(src); err != nil {
				t.Fatal(err)
			}
		}
		if err := refCat.AddSource(catalog.NewStaticSource("recs", doc)); err != nil {
			t.Fatal(err)
		}
		check("materialized", run(New(refCat)))
	}
}
