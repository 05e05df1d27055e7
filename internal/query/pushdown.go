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
// kernel (relational.Compare/MatchLike, oodb.MatchCond) rather than a
// private approximation of either.

// residualMatch applies a fragment's compensated conjuncts to row i of a
// fetched batch.
func residualMatch(b *gateway.Batch, i int, ex *fragmentExec) bool {
	for k, c := range ex.Residual {
		at := ex.ResidualIdx[k]
		if at >= b.Cols() {
			return false
		}
		if !condMatch(ex.OQL, b.Value(at, i), c) {
			return false
		}
	}
	return true
}

// condMatch evaluates one conjunct against one value under the semantics of
// the family the row came from.
func condMatch(oql bool, v idl.Any, c wtl.Condition) bool {
	if oql {
		lit, ok := oqlLiteral(c)
		if !ok {
			return false
		}
		return oodb.MatchCond(anyToOO(v), c.Op, lit)
	}
	lv := anyToRel(v)
	rv := relLiteral(c)
	if lv.IsNull() || rv.IsNull() {
		return false // SQL three-valued logic: NULL never satisfies WHERE
	}
	if c.Op == "LIKE" {
		return relational.MatchLike(lv.String(), rv.String())
	}
	cmp := relational.Compare(lv, rv)
	switch c.Op {
	case "=":
		return cmp == 0
	case "<>":
		return cmp != 0
	case "<":
		return cmp < 0
	case "<=":
		return cmp <= 0
	case ">":
		return cmp > 0
	case ">=":
		return cmp >= 0
	}
	return false
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

// oqlLiteral types a WebTassili literal the way the OQL parser would have.
func oqlLiteral(c wtl.Condition) (any, bool) {
	if c.IsStr {
		return c.Value, true
	}
	if strings.Contains(c.Value, ".") {
		f, err := strconv.ParseFloat(c.Value, 64)
		return f, err == nil
	}
	if n, err := strconv.ParseInt(c.Value, 10, 64); err == nil {
		return n, true
	}
	switch strings.ToLower(c.Value) {
	case "true":
		return true, true
	case "false":
		return false, true
	}
	return nil, false
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
