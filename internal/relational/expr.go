package relational

import (
	"fmt"
	"strings"
	"unicode/utf8"
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

// applyBinary applies a comparison or LIKE to evaluated operands. The test
// oracle applies operators through it too, so operator semantics are the one
// thing the oracle does not check independently.
func applyBinary(op string, l, r Value) Value {
	if l.Null || r.Null {
		return NullValue()
	}
	switch op {
	case "=":
		return BoolValue(Compare(l, r) == 0)
	case "<>":
		return BoolValue(Compare(l, r) != 0)
	case "<":
		return BoolValue(Compare(l, r) < 0)
	case "<=":
		return BoolValue(Compare(l, r) <= 0)
	case ">":
		return BoolValue(Compare(l, r) > 0)
	case ">=":
		return BoolValue(Compare(l, r) >= 0)
	case "LIKE":
		return BoolValue(MatchLike(l.String(), r.String()))
	}
	panic("relational: unknown operator " + op)
}

// MatchLike implements SQL LIKE with % and _ wildcards (case-sensitive): _
// is one character (a UTF-8 sequence, or one byte that is not part of one),
// and % is always a wildcard, also where the text holds a %. A trailing %
// matches the rest of the text unread, so 'x%' costs its prefix. The object
// engine and the federated planner's compensation at the coordinator match
// with it too, so every side shares one semantics.
func MatchLike(s, p string) bool {
	// Iterative two-pointer matcher with backtracking on '%'.
	si, pi := 0, 0
	star, match := -1, 0
	for si < len(s) {
		n := charLen(s, si)
		switch {
		case pi < len(p) && p[pi] == '%':
			if pi == len(p)-1 {
				return true
			}
			star = pi
			match = si
			pi++
		case pi < len(p) && p[pi] == '_':
			si += n
			pi++
		case strings.HasPrefix(p[pi:], s[si:si+n]):
			si += n
			pi += n
		case star >= 0:
			pi = star + 1
			match += charLen(s, match)
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

// charLen is the length of the character at s[i]: its UTF-8 sequence, or
// one byte.
func charLen(s string, i int) int {
	if s[i] < utf8.RuneSelf {
		return 1
	}
	_, n := utf8.DecodeRuneInString(s[i:])
	return n
}
