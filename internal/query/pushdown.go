package query

import (
	"strconv"
	"strings"

	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/oodb"
	"repro/internal/relational"
	"repro/internal/wtl"
)

// Residual predicate compensation. A conjunct the planner kept at the
// coordinator must select exactly the rows the engine would have selected
// had the conjunct been pushed — otherwise pushdown-on and pushdown-off
// answers diverge. The two engine families disagree on mixed-kind
// comparisons (the relational engines fall back to rendered-string
// comparison across kinds; the object engines treat a kind mismatch as
// no-match), so compensation is routed through each family's own comparison
// kernel (relational.Compare/MatchLike, oodb.Cond) rather than a private
// approximation of either.

// residual is one conjunct compiled once per plan — literal typed, operator
// resolved — to run over a page column.
type residual struct {
	col   int              // fetch-column index of the conjunct's column
	oql   *oodb.Cond       // object family; nil: relational
	lit   relational.Value // relational literal; a LIKE pattern is rendered to text
	like  bool             // relational LIKE, else a comparison
	order uint8            // relational comparison: bit cmp+1 set when it admits cmp
}

// relOrders maps an operator to the orders it admits (cmp as bit cmp+1).
var relOrders = map[string]uint8{"<": 1, "=": 2, ">": 4, "<=": 3, ">=": 6, "<>": 5}

// compileResidual compiles conjunct c over fetch column col under the
// semantics of the family the rows come from.
func compileResidual(c wtl.Condition, col int, oql bool) residual {
	if oql {
		return residual{col: col, oql: oodb.NewCond(c.Op, oqlLiteral(c))}
	}
	r := residual{col: col, lit: relLiteral(c), like: c.Op == "LIKE", order: relOrders[c.Op]}
	if r.like {
		r.lit = relational.TextValue(r.lit.String())
	}
	return r
}

// keep narrows b to the rows the conjunct admits. A column the batch does
// not have admits none.
func (r *residual) keep(b *gateway.Batch) {
	b.Keep(func(i int) bool { return r.col < b.Cols() && r.match(b.Value(r.col, i)) })
}

// match evaluates the conjunct against one value.
func (r *residual) match(v idl.Any) bool {
	if r.oql != nil {
		return r.oql.Match(anyToOO(v))
	}
	if r.like && v.Kind == idl.KindString {
		return relational.MatchLike(v.Str, r.lit.Str)
	}
	lv := anyToRel(v)
	if lv.IsNull() {
		return false // SQL three-valued logic: NULL never satisfies WHERE
	}
	if r.like {
		return relational.MatchLike(lv.String(), r.lit.Str)
	}
	return r.order>>(relational.Compare(lv, r.lit)+1)&1 != 0
}

// relLiteral types a WebTassili literal the way the relational lexer would
// have typed it inside a rendered fragment.
func relLiteral(c wtl.Condition) relational.Value {
	if c.IsStr {
		return relational.TextValue(c.Value)
	}
	if !strings.Contains(c.Value, ".") {
		if n, err := strconv.ParseInt(c.Value, 10, 64); err == nil {
			return relational.IntValue(n)
		}
	}
	if f, err := strconv.ParseFloat(c.Value, 64); err == nil {
		return relational.FloatValue(f)
	}
	switch strings.ToLower(c.Value) {
	case "true":
		return relational.BoolValue(true)
	case "false":
		return relational.BoolValue(false)
	}
	// Bare words are never pushed (pushableCond), so this typing is only a
	// residual-side definition; Text keeps it deterministic in both modes.
	return relational.TextValue(c.Value)
}

// oqlLiteral types a WebTassili literal the way the OQL parser would have;
// nil when it could not, which matches nothing.
func oqlLiteral(c wtl.Condition) any {
	if c.IsStr {
		return c.Value
	}
	if strings.Contains(c.Value, ".") {
		if f, err := strconv.ParseFloat(c.Value, 64); err == nil {
			return f
		}
		return nil
	}
	if n, err := strconv.ParseInt(c.Value, 10, 64); err == nil {
		return n
	}
	switch strings.ToLower(c.Value) {
	case "true":
		return true
	case "false":
		return false
	}
	return nil
}

// anyToRel inverts the gateway's relational-to-Any conversion.
func anyToRel(v idl.Any) relational.Value {
	switch v.Kind {
	case idl.KindBool:
		return relational.BoolValue(v.Bool)
	case idl.KindShort, idl.KindUShort, idl.KindLong, idl.KindULong, idl.KindLongLong, idl.KindULongLong, idl.KindOctet:
		return relational.IntValue(v.Int)
	case idl.KindFloat, idl.KindDouble:
		return relational.FloatValue(v.Float)
	case idl.KindString:
		return relational.TextValue(v.Str)
	}
	return relational.NullValue()
}

// anyToOO inverts the gateway's object-to-Any conversion.
func anyToOO(v idl.Any) any {
	switch v.Kind {
	case idl.KindString:
		return v.Str
	case idl.KindShort, idl.KindUShort, idl.KindLong, idl.KindULong, idl.KindLongLong, idl.KindULongLong, idl.KindOctet:
		return v.Int
	case idl.KindFloat, idl.KindDouble:
		return v.Float
	case idl.KindBool:
		return v.Bool
	}
	return nil
}
