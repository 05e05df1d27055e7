package oodb

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"unicode/utf8"
)

// refMatch is the OQL comparison and LIKE rules restated for one value, by
// definition rather than as the engine runs them: a value of another kind
// than the literal matches nothing, except that ints and floats compare as
// numbers (an int with a float literal as a float), a NaN is neither below
// nor above any number, false sorts before true, strings compare bytewise,
// and LIKE needs a string on both sides.
func refMatch(v any, op string, lit any) bool {
	if op == "LIKE" {
		s, ok := v.(string)
		p, pok := lit.(string)
		return ok && pok && refLike(s, p)
	}
	order := func(less, greater bool) int {
		switch {
		case less:
			return -1
		case greater:
			return 1
		}
		return 0
	}
	var c int
	switch x := v.(type) {
	case int64:
		switch l := lit.(type) {
		case int64:
			c = order(x < l, x > l)
		case float64:
			c = order(float64(x) < l, float64(x) > l)
		default:
			return false
		}
	case float64:
		switch l := lit.(type) {
		case int64:
			c = order(x < float64(l), x > float64(l))
		case float64:
			c = order(x < l, x > l)
		default:
			return false
		}
	case string:
		l, ok := lit.(string)
		if !ok {
			return false
		}
		c = strings.Compare(x, l)
	case bool:
		l, ok := lit.(bool)
		if !ok {
			return false
		}
		c = order(!x && l, x && !l)
	default:
		return false
	}
	switch op {
	case "=":
		return c == 0
	case "<>":
		return c != 0
	case "<":
		return c < 0
	case "<=":
		return c <= 0
	case ">":
		return c > 0
	case ">=":
		return c >= 0
	}
	return false
}

// refLike is LIKE by its definition, over characters (a UTF-8 sequence, or
// one byte that is not part of one): % matches any run of characters, _ one
// character, anything else itself. match[i][j] says whether the characters
// of s from i on match those of p from j on.
func refLike(s, p string) bool {
	sc, pc := refChars(s), refChars(p)
	match := make([][]bool, len(sc)+1)
	for i := range match {
		match[i] = make([]bool, len(pc)+1)
	}
	match[len(sc)][len(pc)] = true
	for i := len(sc); i >= 0; i-- {
		for j := len(pc) - 1; j >= 0; j-- {
			switch {
			case pc[j] == "%":
				match[i][j] = match[i][j+1] || i < len(sc) && match[i+1][j]
			case i == len(sc):
			case pc[j] == "_" || pc[j] == sc[i]:
				match[i][j] = match[i+1][j+1]
			}
		}
	}
	return match[0][0]
}

func refChars(s string) []string {
	var out []string
	for len(s) > 0 {
		_, n := utf8.DecodeRuneInString(s)
		out, s = append(out, s[:n]), s[n:]
	}
	return out
}

// fuzzDB is the database FuzzOQLWhere queries: a class r with string, int,
// float (with NaNs, so no index serves it), float (without) and bool
// attributes and a subclass rr; some objects leave attributes unset.
func fuzzDB(t testing.TB) *DB {
	t.Helper()
	db := NewDB("fuzz")
	if _, err := db.DefineClass("r", "", Attribute{Name: "k", Type: AttrString}, Attribute{Name: "v", Type: AttrInt},
		Attribute{Name: "f", Type: AttrFloat}, Attribute{Name: "g", Type: AttrFloat}, Attribute{Name: "b", Type: AttrBool},
		Attribute{Name: "l", Type: AttrStringList}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("rr", "r", Attribute{Name: "extra", Type: AttrString}); err != nil {
		t.Fatal(err)
	}
	keys := []string{"", "x", "x1", "xy", "a_b", "ab", "a", "n", "na", "né", "nét", "n_", "ñé", "%", "x%", "_", "100%", "\xff", "é\xffa"}
	for i := 0; i < 160; i++ {
		attrs := map[string]any{"k": keys[i%len(keys)], "b": i%3 == 0, "l": []string{"x"}}
		if i%11 != 5 {
			attrs["v"] = int64(i%23 - 4)
		}
		switch {
		case i%17 == 0:
			attrs["f"] = math.NaN()
		case i%13 != 0:
			attrs["f"] = float64(i%19)/2 - 3
		}
		if i%7 != 3 {
			attrs["g"] = float64(i%29) / 4
		}
		class := "r"
		if i%5 == 4 {
			class = "rr"
		}
		if _, err := db.NewObject(class, attrs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// FuzzOQLWhere runs a fuzzed condition through Query, reading the candidates
// an attribute index admits and walking the whole extent, and compares both
// answers with Extent filtered by refMatch. It holds Cond, the
// coordinator's compensation, to refMatch on every stored value too, which
// reaches literals OQL text cannot spell (a NaN).
func FuzzOQLWhere(f *testing.F) {
	db := fuzzDB(f)
	attrs := []string{"k", "v", "f", "g", "b", "l", "extra", "nosuch"}
	ops := []string{"=", "<>", "<", "<=", ">", ">=", "LIKE"}
	const (
		kindInt = iota
		kindFloat
		kindBool
		kindString
	)
	for op := range ops {
		f.Add(uint8(1), uint8(op), uint8(kindInt), int64(3), 0.0, "", false)
		f.Add(uint8(2), uint8(op), uint8(kindFloat), int64(0), 1.5, "", true)
		f.Add(uint8(3), uint8(op), uint8(kindInt), int64(2), 0.0, "", false)
		f.Add(uint8(2), uint8(op), uint8(kindFloat), int64(0), math.NaN(), "", true)
		f.Add(uint8(4), uint8(op), uint8(kindBool), int64(1), 0.0, "", true)
		f.Add(uint8(0), uint8(op), uint8(kindString), int64(0), 0.0, "x1", false)
	}
	for _, p := range []string{"x%", "%", "", "_", "a_%", "n_", "_é", "%é_", "ñ%", "100%", "%\xff%"} {
		f.Add(uint8(0), uint8(6), uint8(kindString), int64(0), 0.0, p, true)
	}
	f.Fuzz(func(t *testing.T, attr, op, kind uint8, n int64, x float64, s string, deep bool) {
		a, o := attrs[int(attr)%len(attrs)], ops[int(op)%len(ops)]
		var lit any
		var text string
		switch kind % 4 {
		case kindInt:
			lit, text = n, strconv.FormatInt(n, 10)
		case kindFloat:
			lit, text = x, strconv.FormatFloat(x, 'f', -1, 64)
			if !strings.Contains(text, ".") {
				text += ".0"
			}
		case kindBool:
			lit, text = n%2 != 0, strconv.FormatBool(n%2 != 0)
		default:
			lit, text = s, "'"+strings.ReplaceAll(s, "'", "''")+"'"
		}
		objs, err := db.Extent("r", deep)
		if err != nil {
			t.Fatal(err)
		}
		var want [][]any
		cond := NewCond(o, lit)
		for _, ob := range objs {
			v, _ := ob.Get(a)
			if cond.Match(v) != refMatch(v, o, lit) {
				t.Fatalf("NewCond(%s, %#v).Match(%#v) = %v", o, lit, v, !refMatch(v, o, lit))
			}
			if refMatch(v, o, lit) {
				want = append(want, []any{ob.ID(), ob.String("k")})
			}
		}
		if f, isFloat := lit.(float64); isFloat && (math.IsNaN(f) || math.IsInf(f, 0)) {
			return // no OQL literal spells it
		}
		deepWord := ""
		if deep {
			deepWord = " DEEP"
		}
		q := fmt.Sprintf("SELECT v, k FROM r%s WHERE %s %s %s", deepWord, a, o, text)
		for _, walk := range []bool{false, true} {
			rows, err := QueryRows(db, q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if walk {
				rows.objs = db.extents["r"]
			}
			got, err := drainRows(rows, 0, nil)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("%q (walk %v): %d rows, want %d", q, walk, len(got), len(want))
			}
			for i, row := range got {
				ob, _ := db.Get(want[i][0].(int64))
				v, _ := ob.Get("v")
				if !reflect.DeepEqual(row, []any{v, want[i][1]}) {
					t.Fatalf("%q (walk %v): row %d is %v, want object %d", q, walk, i, row, want[i][0])
				}
			}
		}
	})
}
