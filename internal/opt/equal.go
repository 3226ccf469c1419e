package opt

import (
	"sort"

	"repro/internal/algebra"
	"repro/internal/xmldm"
	"repro/internal/xmlql"
)

// equalities is what the planner learns from a decomposition's top-level
// `=` conjuncts: the variable equivalence classes that `$a = $b`
// conjuncts form (union-find), and the values each class is pinned to
// by `$v = literal` conjuncts or by a correlated subquery's outer
// binding. View unfolding leaves a join through a mediated schema as
// such a conjunct (`$i = $_u1_i`); the classes turn it into hash-join
// keys and let a constant on one side reach the other side's source.
//
// Everything derived here is implied by conjuncts that stay in the plan:
// `=` is Compare(a, b) == 0 on non-Null values, and Compare is a total
// preorder, so equal variables compare alike with every value. The
// `$a = $b` conjuncts remain Selects above the joins, which keeps `=`'s
// Null→false semantics (a hash key matches Null to Null).
type equalities struct {
	parent  map[string]string
	members map[string][]string // class root -> sorted members
	pins    map[string][]pin    // class root -> pinned values
}

// pin is a value a class must equal. from names the variable of the
// literal conjunct it came from (that conjunct is offered to sources as
// it is); an outer-binding value has from == "".
type pin struct {
	from  string
	value xmldm.Value
}

// newEqualities makes the one pass over preds. outer, if non-nil, is the
// correlated subquery's outer binding; the preBound variables it carries
// pin their classes.
func newEqualities(preds []xmlql.Expr, preBound []string, outer algebra.Binding) *equalities {
	q := &equalities{parent: map[string]string{}, members: map[string][]string{}, pins: map[string][]pin{}}
	var consts []pin
	for _, pred := range preds {
		for _, c := range conjuncts(pred) {
			b, ok := c.(*xmlql.BinExpr)
			if !ok || b.Op != "=" {
				continue
			}
			lv, lIsVar := b.L.(*xmlql.VarExpr)
			rv, rIsVar := b.R.(*xmlql.VarExpr)
			switch {
			case lIsVar && rIsVar:
				q.union(lv.Name, rv.Name)
			case lIsVar:
				if v, ok := literalValue(b.R); ok {
					consts = append(consts, pin{from: lv.Name, value: v})
				}
			case rIsVar:
				if v, ok := literalValue(b.L); ok {
					consts = append(consts, pin{from: rv.Name, value: v})
				}
			}
		}
	}
	for v := range q.parent {
		root := q.find(v)
		q.members[root] = append(q.members[root], v)
	}
	for _, m := range q.members {
		sort.Strings(m)
	}
	for _, c := range consts {
		root := q.find(c.from)
		q.pins[root] = append(q.pins[root], c)
	}
	if outer != nil {
		for _, v := range preBound {
			if val, ok := outer.Get(v); ok {
				root := q.find(v)
				q.pins[root] = append(q.pins[root], pin{value: val})
			}
		}
	}
	return q
}

func (q *equalities) find(v string) string {
	p, ok := q.parent[v]
	if !ok || p == v {
		return v
	}
	root := q.find(p)
	q.parent[v] = root
	return root
}

func (q *equalities) union(a, b string) {
	for _, v := range []string{a, b} {
		if _, ok := q.parent[v]; !ok {
			q.parent[v] = v
		}
	}
	ra, rb := q.find(a), q.find(b)
	if ra != rb {
		q.parent[rb] = ra
	}
}

// joinKeys picks the hash-join key pairs for joining a stream that binds
// left with one that binds right: per class with members on both sides,
// the first right member paired with the smallest left member. A class
// with a variable bound on both sides needs no pair; the natural join
// on the shared name already equates it.
func (q *equalities) joinKeys(left map[string]bool, right []string) []algebra.KeyPair {
	done := map[string]bool{}
	for _, r := range right {
		if left[r] {
			done[q.find(r)] = true
		}
	}
	var keys []algebra.KeyPair
	for _, r := range right {
		root := q.find(r)
		if done[root] {
			continue
		}
		for _, l := range q.members[root] {
			if left[l] {
				keys = append(keys, algebra.KeyPair{Left: l, Right: r})
				done[root] = true
				break
			}
		}
	}
	return keys
}

// pinned returns, per variable, the values its class is pinned to that
// an offered predicate does not already state for that variable itself.
func (q *equalities) pinned(vars []string) map[string][]xmldm.Value {
	var out map[string][]xmldm.Value
	for _, v := range vars {
		var vals []xmldm.Value
	pins:
		for _, p := range q.pins[q.find(v)] {
			if p.from == v {
				continue
			}
			for _, seen := range vals {
				if xmldm.Equal(seen, p.value) {
					continue pins
				}
			}
			vals = append(vals, p.value)
		}
		if len(vals) > 0 {
			if out == nil {
				out = map[string][]xmldm.Value{}
			}
			out[v] = vals
		}
	}
	return out
}

// conjuncts splits an expression at its top-level ANDs.
func conjuncts(e xmlql.Expr) []xmlql.Expr {
	if b, ok := e.(*xmlql.BinExpr); ok && b.Op == "AND" {
		return append(conjuncts(b.L), conjuncts(b.R)...)
	}
	return []xmlql.Expr{e}
}

// literalValue converts an integer or string literal to its value.
func literalValue(e xmlql.Expr) (xmldm.Value, bool) {
	lit, ok := e.(*xmlql.LitExpr)
	if !ok {
		return nil, false
	}
	switch v := lit.Value.(type) {
	case int64:
		return xmldm.Int(v), true
	case string:
		return xmldm.String(v), true
	}
	return nil, false
}
