package relational

import (
	"fmt"
	"math"
	"strings"
)

// colBinding names one column visible to an expression: qualifier (table or
// alias, lower-cased) plus column name (lower-cased).
type colBinding struct {
	table string
	name  string
}

// resolveCol maps a column reference to its ordinal in cols: by name alone
// when unqualified (an error if two bindings carry it), by qualifier and name
// otherwise.
func resolveCol(cols []colBinding, c *ColRef) (int, error) {
	tbl := strings.ToLower(c.Table)
	name := strings.ToLower(c.Name)
	if tbl == "" {
		found := -1
		for i, b := range cols {
			if b.name == name {
				if found >= 0 {
					return 0, fmt.Errorf("sql: ambiguous column %s", c.Name)
				}
				found = i
			}
		}
		if found < 0 {
			return 0, fmt.Errorf("sql: unknown column %s", c.Name)
		}
		return found, nil
	}
	for i, b := range cols {
		if b.table == tbl && b.name == name {
			return i, nil
		}
	}
	return 0, fmt.Errorf("sql: unknown column %s.%s", c.Table, c.Name)
}

// applyUnary applies a unary operator to an evaluated operand.
func applyUnary(op string, v Value) (Value, error) {
	switch op {
	case "-":
		if v.Null {
			return NullValue(), nil
		}
		switch v.Kind {
		case TypeInt:
			return IntValue(-v.Int), nil
		case TypeFloat:
			return FloatValue(-v.Float), nil
		}
		return Value{}, fmt.Errorf("sql: cannot negate %s value", v.Kind)
	case "NOT":
		if v.Null {
			return NullValue(), nil
		}
		b, ok := v.Truthy()
		if !ok {
			return Value{}, fmt.Errorf("sql: NOT applied to %s value", v.Kind)
		}
		return BoolValue(!b), nil
	}
	return Value{}, fmt.Errorf("sql: unknown unary operator %s", op)
}

// applyBinary applies a non-logical binary operator to evaluated operands.
// The test oracle applies operators through it too, so operator semantics are
// the one thing the oracle does not check independently.
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
		return BoolValue(matchLike(l.String(), r.String())), nil
	case "||":
		if l.Null || r.Null {
			return NullValue(), nil
		}
		return TextValue(l.String() + r.String()), nil
	case "+", "-", "*", "/", "%":
		return evalArith(op, l, r)
	}
	return Value{}, fmt.Errorf("sql: unknown operator %s", op)
}

func evalArith(op string, l, r Value) (Value, error) {
	if l.Null || r.Null {
		return NullValue(), nil
	}
	if l.Kind == TypeInt && r.Kind == TypeInt {
		switch op {
		case "+":
			return IntValue(l.Int + r.Int), nil
		case "-":
			return IntValue(l.Int - r.Int), nil
		case "*":
			return IntValue(l.Int * r.Int), nil
		case "/":
			if r.Int == 0 {
				return Value{}, fmt.Errorf("sql: division by zero")
			}
			return IntValue(l.Int / r.Int), nil
		case "%":
			if r.Int == 0 {
				return Value{}, fmt.Errorf("sql: division by zero")
			}
			return IntValue(l.Int % r.Int), nil
		}
	}
	lf, lok := l.AsFloat()
	rf, rok := r.AsFloat()
	if !lok || !rok {
		return Value{}, fmt.Errorf("sql: arithmetic on non-numeric values (%s %s %s)", l.Kind, op, r.Kind)
	}
	switch op {
	case "+":
		return FloatValue(lf + rf), nil
	case "-":
		return FloatValue(lf - rf), nil
	case "*":
		return FloatValue(lf * rf), nil
	case "/":
		if rf == 0 {
			return Value{}, fmt.Errorf("sql: division by zero")
		}
		return FloatValue(lf / rf), nil
	case "%":
		if rf == 0 {
			return Value{}, fmt.Errorf("sql: division by zero")
		}
		return FloatValue(math.Mod(lf, rf)), nil
	}
	return Value{}, fmt.Errorf("sql: unknown arithmetic operator %s", op)
}

// applyScalarFunc applies a scalar function to evaluated arguments.
func applyScalarFunc(f *FuncCall, args []Value) (Value, error) {
	need := func(n int) error {
		if len(args) != n {
			return fmt.Errorf("sql: %s takes %d argument(s), got %d", f.Name, n, len(args))
		}
		return nil
	}
	switch f.Name {
	case "UPPER":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].Null {
			return NullValue(), nil
		}
		return TextValue(strings.ToUpper(args[0].String())), nil
	case "LOWER":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].Null {
			return NullValue(), nil
		}
		return TextValue(strings.ToLower(args[0].String())), nil
	case "LENGTH":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].Null {
			return NullValue(), nil
		}
		return IntValue(int64(len(args[0].String()))), nil
	case "TRIM":
		if err := need(1); err != nil {
			return Value{}, err
		}
		if args[0].Null {
			return NullValue(), nil
		}
		return TextValue(strings.TrimSpace(args[0].String())), nil
	case "ABS":
		if err := need(1); err != nil {
			return Value{}, err
		}
		v := args[0]
		if v.Null {
			return NullValue(), nil
		}
		switch v.Kind {
		case TypeInt:
			if v.Int < 0 {
				return IntValue(-v.Int), nil
			}
			return v, nil
		case TypeFloat:
			return FloatValue(math.Abs(v.Float)), nil
		}
		return Value{}, fmt.Errorf("sql: ABS of non-numeric value")
	case "ROUND":
		if err := need(1); err != nil {
			return Value{}, err
		}
		v := args[0]
		if v.Null {
			return NullValue(), nil
		}
		fv, ok := v.AsFloat()
		if !ok {
			return Value{}, fmt.Errorf("sql: ROUND of non-numeric value")
		}
		return FloatValue(math.Round(fv)), nil
	case "COALESCE":
		for _, v := range args {
			if !v.Null {
				return v, nil
			}
		}
		return NullValue(), nil
	case "SUBSTR":
		if len(args) != 2 && len(args) != 3 {
			return Value{}, fmt.Errorf("sql: SUBSTR takes 2 or 3 arguments")
		}
		if args[0].Null || args[1].Null {
			return NullValue(), nil
		}
		s := args[0].String()
		start := int(args[1].Int) - 1 // SQL SUBSTR is 1-based
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			return TextValue(""), nil
		}
		end := len(s)
		if len(args) == 3 {
			if args[2].Null {
				return NullValue(), nil
			}
			if n := int(args[2].Int); start+n < end {
				end = start + n
			}
		}
		return TextValue(s[start:end]), nil
	}
	return Value{}, fmt.Errorf("sql: unknown function %s", f.Name)
}

// matchLike implements SQL LIKE with % and _ wildcards (case-sensitive).
func matchLike(s, pattern string) bool {
	return likeMatch(s, pattern)
}

// MatchLike exposes the engine's LIKE matcher so the federated planner can
// compensate at the coordinator with exactly the engine's semantics when a
// LIKE could not be pushed into a fragment.
func MatchLike(s, pattern string) bool { return likeMatch(s, pattern) }

func likeMatch(s, p string) bool {
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
