package relational

import (
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
)

func TestBTreeInsertLookup(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 1000; i++ {
		bt.Insert(IntValue(int64(i%100)), i)
	}
	if bt.Len() != 1000 {
		t.Fatalf("Len = %d", bt.Len())
	}
	if bt.Keys() != 100 {
		t.Fatalf("Keys = %d", bt.Keys())
	}
	rows := bt.Lookup(IntValue(7))
	if len(rows) != 10 {
		t.Fatalf("Lookup(7) returned %d rows", len(rows))
	}
	for _, id := range rows {
		if id%100 != 7 {
			t.Errorf("wrong row %d under key 7", id)
		}
	}
	if got := bt.Lookup(IntValue(12345)); got != nil {
		t.Errorf("Lookup(missing) = %v", got)
	}
}

func TestBTreeOrderedAscend(t *testing.T) {
	bt := newBTree()
	perm := rand.New(rand.NewSource(42)).Perm(500)
	for i, p := range perm {
		bt.Insert(IntValue(int64(p)), i)
	}
	var keys []int64
	bt.Range(nil, nil, true, true, func(k Value, rows []int) bool {
		keys = append(keys, k.Int)
		return true
	})
	if len(keys) != 500 {
		t.Fatalf("visited %d keys", len(keys))
	}
	if !sort.SliceIsSorted(keys, func(i, j int) bool { return keys[i] < keys[j] }) {
		t.Fatal("Range out of order")
	}
	if msg := bt.checkInvariants(); msg != "" {
		t.Fatalf("invariant violated: %s", msg)
	}
}

func TestBTreeRange(t *testing.T) {
	bt := newBTree()
	for i := 0; i < 100; i++ {
		bt.Insert(IntValue(int64(i)), i)
	}
	lo, hi := IntValue(10), IntValue(20)
	var got []int64
	bt.Range(&lo, &hi, true, true, func(k Value, rows []int) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 11 || got[0] != 10 || got[10] != 20 {
		t.Fatalf("inclusive range = %v", got)
	}
	got = nil
	bt.Range(&lo, &hi, false, false, func(k Value, rows []int) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 9 || got[0] != 11 || got[8] != 19 {
		t.Fatalf("exclusive range = %v", got)
	}
	got = nil
	bt.Range(&lo, nil, true, true, func(k Value, rows []int) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 90 {
		t.Fatalf("open-ended range visited %d", len(got))
	}
	// A lower bound of NULL, exclusive, passes over the NULL keys.
	bt.Insert(NullValue(), 100)
	null := NullValue()
	got = nil
	bt.Range(&null, &hi, false, false, func(k Value, rows []int) bool {
		got = append(got, k.Int)
		return true
	})
	if len(got) != 20 || got[0] != 0 {
		t.Fatalf("range above NULL = %v", got)
	}
	for _, c := range []struct {
		lo, hi         *Value
		loIncl, hiIncl bool
		want           int
	}{
		{&lo, &hi, true, true, 11}, {&lo, &hi, false, false, 9}, {&lo, nil, true, true, 90},
		{&null, &hi, false, false, 20}, {nil, &hi, true, false, 21}, {nil, nil, true, true, 101},
		{&hi, &lo, true, true, 0},
	} {
		if n := bt.count(c.lo, c.hi, c.loIncl, c.hiIncl); n != c.want {
			t.Errorf("count(%v, %v, %v, %v) = %d, want %d", c.lo, c.hi, c.loIncl, c.hiIncl, n, c.want)
		}
	}
}

func TestBTreeMixedKeyTypes(t *testing.T) {
	bt := newBTree()
	bt.Insert(TextValue("beta"), 1)
	bt.Insert(TextValue("alpha"), 2)
	bt.Insert(NullValue(), 3)
	var order []string
	bt.Range(nil, nil, true, true, func(k Value, rows []int) bool {
		order = append(order, k.String())
		return true
	})
	// NULL sorts first.
	if len(order) != 3 || order[0] != "NULL" || order[1] != "alpha" {
		t.Fatalf("order = %v", order)
	}
}

// TestBTreeQuickInvariants is a property test: any sequence of inserts,
// duplicate keys included, preserves structural invariants and the counts
// kept beside them, agrees with a reference map, and counts every range as
// Range visits it.
func TestBTreeQuickInvariants(t *testing.T) {
	f := func(ops []int16, a, b int8, aIncl, bIncl bool) bool {
		bt := newBTree()
		ref := make(map[int64][]int) // key -> slots
		for slot, op := range ops {
			key := int64(op % 64)
			if key < 0 {
				key = -key
			}
			bt.Insert(IntValue(key), slot)
			ref[key] = append(ref[key], slot)
		}
		if msg := bt.checkInvariants(); msg != "" {
			t.Logf("invariant: %s", msg)
			return false
		}
		for key, slots := range ref {
			if got := bt.Lookup(IntValue(key)); !slices.Equal(got, slots) {
				t.Logf("key %d: got slots %v, want %v", key, got, slots)
				return false
			}
		}
		lo, hi := IntValue(int64(a%70)), IntValue(int64(b%70))
		visited := 0
		bt.Range(&lo, &hi, aIncl, bIncl, func(_ Value, rows []int) bool {
			visited += len(rows)
			return true
		})
		if n := bt.count(&lo, &hi, aIncl, bIncl); n != visited {
			t.Logf("range [%v, %v]: count %d, Range visited %d", lo, hi, n, visited)
			return false
		}
		return bt.Len() == len(ops) && bt.Keys() == len(ref)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestBTreeCountsUnderChurn inserts enough rows, duplicate keys included, for
// the tree to split and grow, and checks the invariants and random range
// counts against Range throughout.
func TestBTreeCountsUnderChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	bt := newBTree()
	var keys []int64 // by slot
	for slot := 0; slot < 20000; slot++ {
		key := int64(rng.Intn(3000))
		bt.Insert(IntValue(key), slot)
		keys = append(keys, key)
		if (slot+1)%500 != 0 {
			continue
		}
		if msg := bt.checkInvariants(); msg != "" {
			t.Fatalf("slot %d: %s", slot, msg)
		}
		lo, hi := IntValue(int64(rng.Intn(3000))), IntValue(int64(rng.Intn(3000)))
		want := 0
		for _, k := range keys {
			if k >= lo.Int && k < hi.Int {
				want++
			}
		}
		if n := bt.count(&lo, &hi, true, false); n != want {
			t.Fatalf("slot %d: count [%d, %d) = %d, want %d", slot, lo.Int, hi.Int, n, want)
		}
	}
	if bt.depth() < 2 {
		t.Fatalf("the tree never grew past one level")
	}
}

// TestEncodeKeyInjective checks that distinct value tuples encode to
// distinct keys (the property GROUP BY and composite keys rely on).
func TestEncodeKeyInjective(t *testing.T) {
	f := func(a, b int64, s1, s2 string) bool {
		k1 := encodeKey([]Value{IntValue(a), TextValue(s1)})
		k2 := encodeKey([]Value{IntValue(b), TextValue(s2)})
		if a == b && s1 == s2 {
			return k1 == k2
		}
		// Strings containing the separator could collide in theory; the
		// encoding prefixes each component with its kind and uses a length
		// implicit terminator. Verify no false equality for simple values.
		if k1 == k2 {
			return a == b && s1 == s2
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestValueCompareProperties(t *testing.T) {
	// Compare must be antisymmetric and transitive-ish over ints.
	f := func(a, b int64) bool {
		va, vb := IntValue(a), IntValue(b)
		c1, c2 := Compare(va, vb), Compare(vb, va)
		return c1 == -c2 && (c1 == 0) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
	// NULL sorts before everything and equals itself.
	if Compare(NullValue(), NullValue()) != 0 {
		t.Error("NULL != NULL in ordering")
	}
	if Compare(NullValue(), IntValue(-1<<62)) != -1 {
		t.Error("NULL does not sort first")
	}
}

func TestCoerce(t *testing.T) {
	v, err := Coerce(TextValue("42"), TypeInt)
	if err != nil || v.Int != 42 {
		t.Errorf("text->int: %v %v", v, err)
	}
	v, err = Coerce(IntValue(3), TypeFloat)
	if err != nil || v.Float != 3 {
		t.Errorf("int->float: %v %v", v, err)
	}
	v, err = Coerce(FloatValue(3.9), TypeInt)
	if err != nil || v.Int != 3 {
		t.Errorf("float->int: %v %v", v, err)
	}
	if _, err = Coerce(TextValue("not a date"), TypeDate); err == nil {
		t.Error("bad date coerced")
	}
	v, err = Coerce(NullValue(), TypeInt)
	if err != nil || !v.Null {
		t.Errorf("null coercion: %v %v", v, err)
	}
}

func TestLikeMatcher(t *testing.T) {
	cases := []struct {
		s, p string
		want bool
	}{
		{"hello", "hello", true},
		{"hello", "h%", true},
		{"hello", "%o", true},
		{"hello", "%ell%", true},
		{"hello", "h_llo", true},
		{"hello", "h__lo", true},
		{"hello", "x%", false},
		{"hello", "%x%", false},
		{"", "%", true},
		{"", "_", false},
		{"abc", "%%%", true},
		{"a%b", "a%b", true}, // literal via wildcard
		{"medical research", "%research", true},
		// _ is one character, not one byte; % in the text is no wildcard.
		{"né", "n_", true},
		{"né", "n__", false},
		{"ñé", "_é", true},
		{"Genève", "Gen_ve", true},
		{"%a", "%a", true},
		{"%ba", "%a", true},
		{"\xffa", "_a", true},
		// A trailing % ends the match; the text before it is whole characters.
		{"x\xff", "x%", true},
		{"ab", "a%%", true},
		{"é", "\xc3%", false},
		{"ba", "%a%", true},
	}
	for _, c := range cases {
		if got := MatchLike(c.s, c.p); got != c.want {
			t.Errorf("LIKE(%q, %q) = %t, want %t", c.s, c.p, got, c.want)
		}
	}
}

// Len reports the number of row entries in the tree.
func (t *btree) Len() int { return t.rows }

// Keys reports the number of distinct keys.
func (t *btree) Keys() int { return t.keys }

// depth reports the tree height (for invariant tests).
func (t *btree) depth() int {
	d := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants verifies B-tree structural invariants and the counts kept
// beside them. It returns an error description or ""
// when valid.
func (t *btree) checkInvariants() string {
	var prev *Value
	ok := ""
	depth := -1
	keys, rows := 0, 0
	var walk func(n *btreeNode, d int) bool
	walk = func(n *btreeNode, d int) bool {
		if n != t.root && len(n.items) == 0 {
			// Insert-only splitting keeps nodes at least half full except
			// the root.
			ok = "empty non-root node"
			return false
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				ok = "leaves at different depths"
				return false
			}
		} else if len(n.children) != len(n.items)+1 {
			ok = "child count mismatch"
			return false
		}
		for i, it := range n.items {
			if !n.leaf() && !walk(n.children[i], d+1) {
				return false
			}
			if prev != nil && Compare(*prev, it.key) >= 0 {
				ok = "keys out of order"
				return false
			}
			k := it.key
			prev = &k
			keys++
			rows += len(it.rows)
		}
		if !n.leaf() && !walk(n.children[len(n.items)], d+1) {
			return false
		}
		if n.count != n.sum() {
			ok = "subtree row count mismatch"
			return false
		}
		return true
	}
	if !walk(t.root, 0) {
		return ok
	}
	switch {
	case keys != t.keys:
		return "key count mismatch"
	case rows != t.rows:
		return "row count mismatch"
	}
	return ""
}
