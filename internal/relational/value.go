// Package relational implements an in-memory relational database engine that
// takes the SQL the federation sends: SQL lexer/parser, catalog, B-tree
// indexes, an index chooser and a batched pull executor over append-only
// tables, which a load script fills and queries then read. A SELECT reads one
// table; joins, UNION, subqueries, BETWEEN, arithmetic, scalar functions and
// DISTINCT are refused by name. The engine is instantiated several times with
// different vendor dialect profiles to stand in for the paper's Oracle, mSQL,
// DB2 and Sybase back ends.
package relational

import (
	"fmt"
	"strconv"
	"strings"
)

// ColType enumerates column types.
type ColType byte

// Column types.
const (
	TypeInt ColType = iota
	TypeFloat
	TypeText
	TypeBool
	TypeDate // stored canonically as "YYYY-MM-DD"
)

func (t ColType) String() string {
	switch t {
	case TypeInt:
		return "INT"
	case TypeFloat:
		return "FLOAT"
	case TypeText:
		return "TEXT"
	case TypeBool:
		return "BOOLEAN"
	case TypeDate:
		return "DATE"
	}
	return fmt.Sprintf("ColType(%d)", byte(t))
}

// Value is a single SQL value. The zero Value is the integer 0; NULL is
// NullValue().
type Value struct {
	Kind  ColType
	Null  bool
	Int   int64
	Float float64
	Str   string // TEXT and DATE payloads
	Bool  bool
}

// Constructors.

// NullValue returns the SQL NULL.
func NullValue() Value { return Value{Null: true} }

// IntValue wraps an integer.
func IntValue(v int64) Value { return Value{Kind: TypeInt, Int: v} }

// FloatValue wraps a float.
func FloatValue(v float64) Value { return Value{Kind: TypeFloat, Float: v} }

// TextValue wraps a string.
func TextValue(v string) Value { return Value{Kind: TypeText, Str: v} }

// BoolValue wraps a boolean.
func BoolValue(v bool) Value { return Value{Kind: TypeBool, Bool: v} }

// DateValue wraps a canonical "YYYY-MM-DD" date string.
func DateValue(v string) Value { return Value{Kind: TypeDate, Str: v} }

// IsNull reports whether the value is SQL NULL.
func (v Value) IsNull() bool { return v.Null }

// String renders the value for result display.
func (v Value) String() string {
	if v.Null {
		return "NULL"
	}
	switch v.Kind {
	case TypeInt:
		return strconv.FormatInt(v.Int, 10)
	case TypeFloat:
		return strconv.FormatFloat(v.Float, 'g', -1, 64)
	case TypeText, TypeDate:
		return v.Str
	case TypeBool:
		if v.Bool {
			return "TRUE"
		}
		return "FALSE"
	}
	return "?"
}

// AsFloat coerces a numeric value to float64.
func (v Value) AsFloat() (float64, bool) {
	if v.Null {
		return 0, false
	}
	switch v.Kind {
	case TypeInt:
		return float64(v.Int), true
	case TypeFloat:
		return v.Float, true
	}
	return 0, false
}

// Truthy reports the three-valued-logic truth of the value: (true, valid)
// for TRUE, (false, valid) for FALSE, valid=false for NULL/UNKNOWN.
func (v Value) Truthy() (bool, bool) {
	if v.Null {
		return false, false
	}
	switch v.Kind {
	case TypeBool:
		return v.Bool, true
	case TypeInt:
		return v.Int != 0, true
	case TypeFloat:
		return v.Float != 0, true
	}
	return false, false
}

// Compare orders two values: -1, 0, +1. NULLs compare less than everything
// and equal to each other (this ordering is used by ORDER BY and index keys;
// SQL comparison predicates handle NULL separately). Numeric kinds compare
// numerically across Int/Float; other cross-kind comparisons compare by the
// rendered string, which keeps the ordering total.
func Compare(a, b Value) int {
	switch {
	case a.Null && b.Null:
		return 0
	case a.Null:
		return -1
	case b.Null:
		return 1
	}
	if isNumeric(a.Kind) && isNumeric(b.Kind) {
		af, _ := a.AsFloat()
		bf, _ := b.AsFloat()
		switch {
		case af < bf:
			return -1
		case af > bf:
			return 1
		default:
			return 0
		}
	}
	if a.Kind == b.Kind {
		switch a.Kind {
		case TypeText, TypeDate:
			return strings.Compare(a.Str, b.Str)
		case TypeBool:
			switch {
			case a.Bool == b.Bool:
				return 0
			case !a.Bool:
				return -1
			default:
				return 1
			}
		}
	}
	return strings.Compare(a.String(), b.String())
}

func isNumeric(t ColType) bool { return t == TypeInt || t == TypeFloat }

// Coerce converts v for storage in a column of type t, applying the implicit
// conversions a permissive engine allows (int<->float, string to date).
func Coerce(v Value, t ColType) (Value, error) {
	if v.Null {
		return NullValue(), nil
	}
	if v.Kind == t {
		return v, nil
	}
	switch t {
	case TypeInt:
		if v.Kind == TypeFloat {
			return IntValue(int64(v.Float)), nil
		}
		if v.Kind == TypeText {
			n, err := strconv.ParseInt(strings.TrimSpace(v.Str), 10, 64)
			if err == nil {
				return IntValue(n), nil
			}
		}
	case TypeFloat:
		if v.Kind == TypeInt {
			return FloatValue(float64(v.Int)), nil
		}
		if v.Kind == TypeText {
			f, err := strconv.ParseFloat(strings.TrimSpace(v.Str), 64)
			if err == nil {
				return FloatValue(f), nil
			}
		}
	case TypeText:
		return TextValue(v.String()), nil
	case TypeDate:
		if v.Kind == TypeText {
			if err := checkDate(v.Str); err != nil {
				return Value{}, err
			}
			return DateValue(v.Str), nil
		}
	case TypeBool:
		if b, ok := v.Truthy(); ok {
			return BoolValue(b), nil
		}
	}
	return Value{}, fmt.Errorf("relational: cannot store %s value %s in %s column", v.Kind, v, t)
}

func checkDate(s string) error {
	if len(s) != 10 || s[4] != '-' || s[7] != '-' {
		return fmt.Errorf("relational: malformed date %q (want YYYY-MM-DD)", s)
	}
	for i, c := range s {
		if i == 4 || i == 7 {
			continue
		}
		if c < '0' || c > '9' {
			return fmt.Errorf("relational: malformed date %q (want YYYY-MM-DD)", s)
		}
	}
	return nil
}

// Row is one tuple. Rows are copied on the way in and out of tables so
// callers can never alias storage.
type Row []Value

// encodeKey renders values as a comparable map key: a composite index's
// key, and COUNT(DISTINCT …)'s seen set.
func encodeKey(vals []Value) string {
	var b strings.Builder
	for _, v := range vals {
		if v.Null {
			b.WriteString("\x00N|")
			continue
		}
		b.WriteByte(byte(v.Kind) + '0')
		b.WriteString(v.String())
		b.WriteByte('|')
	}
	return b.String()
}
