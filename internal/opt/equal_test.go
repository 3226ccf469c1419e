package opt

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/algebra"
	"repro/internal/mediator"
	"repro/internal/sources"
	"repro/internal/xmldm"
)

// hashJoins lists the plan's HashJoins, outermost first.
func hashJoins(op algebra.Operator) []*algebra.HashJoin {
	var out []*algebra.HashJoin
	var walk func(algebra.Operator)
	walk = func(op algebra.Operator) {
		switch x := op.(type) {
		case *algebra.Select:
			walk(x.Input)
		case *algebra.HashJoin:
			out = append(out, x)
			walk(x.Left)
			walk(x.Right)
		case *algebra.Match:
			walk(x.Input)
		}
	}
	walk(op)
	return out
}

// crmSQL returns the SQL of the plan's crmdb fetch.
func crmSQL(plan *Plan) string {
	for _, f := range plan.Fetches {
		if f.Source == "crmdb" {
			return f.Req.Native
		}
	}
	return ""
}

func TestJoinKeysBetweenSourceGroups(t *testing.T) {
	p, _ := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><id>$i</id><name>$n</name></customer> IN "crmdb",
		      <entry><v>$v</v></entry> IN "feed", $i = $v
		CONSTRUCT <r>$n</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	joins := hashJoins(plan.Root)
	if len(joins) != 1 {
		t.Fatalf("hash joins = %d, want 1", len(joins))
	}
	if want := []algebra.KeyPair{{Left: "i", Right: "v"}}; !reflect.DeepEqual(joins[0].Keys, want) {
		t.Errorf("keys = %+v, want %+v", joins[0].Keys, want)
	}
	// The residual predicate stays above the join.
	if sel, ok := plan.Root.(*algebra.Select); !ok || !strings.Contains(algebra.Explain(sel, nil).Detail, "$i = $v") {
		t.Errorf("root = %T, want the residual Select", plan.Root)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d, want 2 (ids 1, 2 match feed values 1, 2)", len(bindings))
	}
}

func TestJoinKeysBetweenPatternsOfOneSource(t *testing.T) {
	p, _ := newPlannerEnv(t)
	plan, err := p.Plan(rewriteOf(t, `
		WHERE <customer><id>$a</id><name>$n</name></customer> IN "crmdb",
		      <customer><id>$b</id><city>$c</city></customer> IN "crmdb", $a = $b
		CONSTRUCT <r>$n $c</r>`), nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	joins := hashJoins(plan.Root)
	if len(joins) != 1 {
		t.Fatalf("hash joins = %d, want 1", len(joins))
	}
	if want := []algebra.KeyPair{{Left: "a", Right: "b"}}; !reflect.DeepEqual(joins[0].Keys, want) {
		t.Errorf("keys = %+v, want %+v", joins[0].Keys, want)
	}
	bindings, err := algebra.Drain(&algebra.Context{}, plan.Root)
	if err != nil {
		t.Fatal(err)
	}
	if len(bindings) != 2 {
		t.Fatalf("bindings = %d, want 2", len(bindings))
	}
}

// A variable bound on both sides joins by name; a class it belongs to
// needs no extra pair, and a chain $a = $b, $b = $c pairs a with c.
func TestJoinKeysNaturalAndTransitive(t *testing.T) {
	q := rewriteOf(t, `WHERE <x>$a</x> IN "s", $a = $b, $b = $c, $d = $e CONSTRUCT <r/>`)
	eq := newEqualities(mediator.Decompose(q.Query).Predicates, nil, nil)
	left := map[string]bool{"a": true, "d": true, "e": true}
	got := eq.joinKeys(left, []string{"c", "e", "z"})
	if want := []algebra.KeyPair{{Left: "a", Right: "c"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("keys = %+v, want %+v", got, want)
	}
}

// A constant on a variable that only an XML or hierarchical source
// binds cannot be pushed there: the plan keeps the whole-document fetch
// and gains no Select.
func TestDerivedPredicateNonRelationalLeavesPlanUnchanged(t *testing.T) {
	for _, src := range []string{"feed", "staff"} {
		p, access := newPlannerEnv(t)
		dir := sources.NewDirectorySource("staff", "staff")
		if err := p.Cat.AddSource(dir); err != nil {
			t.Fatal(err)
		}
		access.docs["staff"] = `<staff><entry><v>1</v></entry><entry><v>3</v></entry></staff>`
		q := `WHERE <customer><id>$i</id></customer> IN "crmdb",
		      <entry><v>$v</v></entry> IN "` + src + `", $i = $v, $i = 1
		CONSTRUCT <r>$v</r>`
		plan, err := p.Plan(rewriteOf(t, q), nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := algebra.Explain(plan.Root, plan.Labels).Render()
		want := strings.ReplaceAll(strings.TrimPrefix(`
Select [($i = $v)] out=0 in=0 time=0.000ms
└─ HashJoin out=0 in=0 time=0.000ms
   ├─ FuncScan [pushdown crmdb: SELECT id AS v_i FROM customers WHERE (id = 1)] out=0 time=0.000ms
   └─ Match [fetch SRC <entry>] out=0 in=0 time=0.000ms
      └─ Singleton out=0 time=0.000ms
`, "\n"), "SRC", src)
		if got != want {
			t.Errorf("%s: plan:\n%s\nwant:\n%s", src, got, want)
		}
		if len(plan.Fetches) != 2 || plan.Fetches[1].Source != src || plan.Fetches[1].Req.Native != "" {
			t.Errorf("%s: fetches = %+v, want a whole-document fetch", src, plan.Fetches)
		}
	}
}

// Without selection pushdown no derived predicate reaches SQL: neither a
// constant across a class nor a correlated subquery's outer value.
func TestNoDerivedPredicatesWithoutPushSelections(t *testing.T) {
	outer := &algebra.TupleScan{Tuples: []algebra.Binding{xmldm.NewTuple(xmldm.Field{Name: "i", Value: xmldm.String("1")})}}
	cases := []struct {
		q        string
		preBound []string
		input    algebra.Operator
		pushed   string
	}{
		{`WHERE <customer><id>$i</id></customer> IN "crmdb", <entry><v>$v</v></entry> IN "feed", $v = 1, $i = $v CONSTRUCT <r/>`,
			nil, nil, "SELECT id AS v_i FROM customers WHERE (id = 1)"},
		{`WHERE <customer><id>$i</id></customer> IN "crmdb" CONSTRUCT <r/>`,
			[]string{"i"}, outer, "SELECT id AS v_i FROM customers WHERE (id = 1)"},
	}
	for _, c := range cases {
		for _, push := range []bool{true, false} {
			p, _ := newPlannerEnv(t)
			p.Opts.PushSelections = push
			plan, err := p.Plan(rewriteOf(t, c.q), c.preBound, c.input)
			if err != nil {
				t.Fatal(err)
			}
			want := c.pushed
			if !push {
				want = "SELECT id AS v_i FROM customers"
			}
			if got := crmSQL(plan); got != want {
				t.Errorf("push=%v %s: SQL = %q, want %q", push, c.q, got, want)
			}
		}
	}
}

// Outer values reach SQL only where SQL equality agrees with the
// mediator's: canonical integers and non-numeric strings, never padded
// or decimal spellings of numbers or the empty string.
func TestOuterValuePushdownRule(t *testing.T) {
	cases := []struct {
		v     xmldm.Value
		col   string
		where string
	}{
		{xmldm.String("1"), "id", " WHERE (id = 1)"},
		{xmldm.Int(2), "id", " WHERE (id = 2)"},
		{xmldm.String(" 1"), "id", ""},
		{xmldm.String("1.0"), "id", ""},
		{xmldm.String("01"), "id", ""},
		{xmldm.String("abc"), "id", ""},
		{xmldm.Float(1), "id", ""},
		{xmldm.String("Ada"), "name", " WHERE (name = 'Ada')"},
		{xmldm.String(""), "name", ""},
		{xmldm.String("1"), "name", " WHERE (name = 1)"},
	}
	for _, c := range cases {
		p, _ := newPlannerEnv(t)
		input := &algebra.TupleScan{Tuples: []algebra.Binding{xmldm.NewTuple(xmldm.Field{Name: "x", Value: c.v})}}
		plan, err := p.Plan(rewriteOf(t, `WHERE <customer><`+c.col+`>$x</`+c.col+`></customer> IN "crmdb" CONSTRUCT <r/>`),
			[]string{"x"}, input)
		if err != nil {
			t.Fatal(err)
		}
		want := "SELECT " + c.col + " AS v_x FROM customers" + c.where
		if got := crmSQL(plan); got != want {
			t.Errorf("outer %s on %s: SQL = %q, want %q", c.v, c.col, got, want)
		}
	}
}
