package relational

import (
	"fmt"
	"strings"
)

// colBinding names one column visible to an expression: qualifier (table or
// alias, lower-cased) plus column name (lower-cased).
type colBinding struct {
	table string
	name  string
}

// resolveCol maps a column reference to its ordinal in cols: by name, and
// by qualifier too when it has one. A table's column names are distinct.
func resolveCol(cols []colBinding, c *ColRef) (int, error) {
	tbl := strings.ToLower(c.Table)
	name := strings.ToLower(c.Name)
	for i, b := range cols {
		if b.name == name && (tbl == "" || b.table == tbl) {
			return i, nil
		}
	}
	if tbl != "" {
		return 0, fmt.Errorf("sql: unknown column %s.%s", c.Table, c.Name)
	}
	return 0, fmt.Errorf("sql: unknown column %s", c.Name)
}

// applyNot is three-valued NOT.
func applyNot(v Value) (Value, error) {
	if v.Null {
		return NullValue(), nil
	}
	b, ok := v.Truthy()
	if !ok {
		return Value{}, fmt.Errorf("sql: NOT applied to %s value", v.Kind)
	}
	return BoolValue(!b), nil
}

// applyBinary applies a comparison or LIKE to evaluated operands. The test
// oracle applies operators through it too, so operator semantics are the one
// thing the oracle does not check independently.
func applyBinary(op string, l, r Value) (Value, error) {
	switch op {
	case "=", "<>", "<", "<=", ">", ">=":
		if l.Null || r.Null {
			return NullValue(), nil
		}
		c := Compare(l, r)
		switch op {
		case "=":
			return BoolValue(c == 0), nil
		case "<>":
			return BoolValue(c != 0), nil
		case "<":
			return BoolValue(c < 0), nil
		case "<=":
			return BoolValue(c <= 0), nil
		case ">":
			return BoolValue(c > 0), nil
		default:
			return BoolValue(c >= 0), nil
		}
	case "LIKE":
		if l.Null || r.Null {
			return NullValue(), nil
		}
		return BoolValue(MatchLike(l.String(), r.String())), nil
	}
	return Value{}, fmt.Errorf("sql: unknown operator %s", op)
}

// MatchLike implements SQL LIKE with % and _ wildcards (case-sensitive). The
// federated planner compensates with it at the coordinator when a LIKE could
// not be pushed into a fragment, so both sides share the engine's semantics.
func MatchLike(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on '%'.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		switch {
		case pi < len(p) && (p[pi] == '_' || p[pi] == s[si]):
			si++
			pi++
		case pi < len(p) && p[pi] == '%':
			star = pi
			match = si
			pi++
		case star >= 0:
			pi = star + 1
			match++
			si = match
		default:
			return false
		}
	}
	for pi < len(p) && p[pi] == '%' {
		pi++
	}
	return pi == len(p)
}
