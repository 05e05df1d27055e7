package oodb

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/snapshot.golden")

// goldenDB holds what a snapshot can carry: a three-class chain whose leaf
// redeclares an inherited attribute with another type, every AttrType,
// mixed-case names, an unset attribute, an empty string list and a deleted
// object.
func goldenDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("golden")
	for _, c := range []struct {
		name, super string
		attrs       []Attribute
	}{
		{"Base", "", []Attribute{{"Name", AttrString}, {"Count", AttrInt}}},
		{"Kind", "Base", []Attribute{{"Ratio", AttrFloat}, {"flag", AttrBool}, {"Tags", AttrStringList}, {"Owner", AttrRef}}},
		{"Redo", "Kind", []Attribute{{"COUNT", AttrFloat}, {"extra", AttrString}}},
	} {
		if _, err := db.DefineClass(c.name, c.super, c.attrs...); err != nil {
			t.Fatal(err)
		}
	}
	for _, o := range []struct {
		class string
		attrs map[string]any
	}{
		{"Base", map[string]any{"Name": "only a name"}},
		{"Kind", map[string]any{"name": "k", "count": 7, "ratio": 0.25, "FLAG": true, "tags": []string{"a", "b"}, "owner": int64(1)}},
		{"Base", map[string]any{"Name": "deleted", "Count": int64(3)}},
		{"Redo", map[string]any{"Name": "r", "Count": 2.5, "Tags": []string{}, "extra": "x"}},
		{"Kind", map[string]any{"Ratio": 1.0, "Flag": false}},
	} {
		if _, err := db.NewObject(o.class, o.attrs); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Delete(3); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestSnapshotBytesUnchanged: Snapshot writes, byte for byte, what it wrote
// when objects kept their attributes in a map keyed by lower-cased name. A
// restarted node loads what Snapshot wrote, so the format is pinned.
func TestSnapshotBytesUnchanged(t *testing.T) {
	got, err := goldenDB(t).Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join("testdata", "snapshot.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("snapshot changed:\n got %s\nwant %s", got, want)
	}
	back, err := Load(got)
	if err != nil {
		t.Fatal(err)
	}
	again, err := back.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(want) {
		t.Fatalf("a loaded snapshot saves differently:\n got %s\nwant %s", again, want)
	}
}

// TestNewObjectRefusesRepeatedAttribute: an attribute named twice, in two
// cases, is refused by name; which value it would keep would depend on map
// order.
func TestNewObjectRefusesRepeatedAttribute(t *testing.T) {
	db := NewDB("t")
	if _, err := db.DefineClass("r", "", Attribute{Name: "k", Type: AttrString}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		_, err := db.NewObject("r", map[string]any{"k": "lower", "K": "upper"})
		if err == nil || !strings.Contains(err.Error(), "attribute k given twice") {
			t.Fatalf("run %d: %v, want attribute k given twice", i, err)
		}
	}
	if n, _ := db.Count("r", true); n != 0 {
		t.Fatalf("%d objects stored by refused calls", n)
	}
}

// latticeDB builds P(a INT); A under P adding x INT and B under P adding
// y TEXT, both at slot 1; R under A redeclaring a as TEXT (it keeps slot 0)
// and adding z BOOL. Objects cycle P, A, B, R.
func latticeDB(t *testing.T) *DB {
	t.Helper()
	db := NewDB("lattice")
	for _, c := range []struct {
		name, super string
		attrs       []Attribute
	}{
		{"P", "", []Attribute{{"a", AttrInt}}},
		{"A", "P", []Attribute{{"x", AttrInt}}},
		{"B", "P", []Attribute{{"y", AttrString}}},
		{"R", "A", []Attribute{{"A", AttrString}, {"z", AttrBool}}},
	} {
		if _, err := db.DefineClass(c.name, c.super, c.attrs...); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 48; i++ {
		var err error
		switch i % 4 {
		case 0:
			_, err = db.NewObject("P", map[string]any{"a": i % 5})
		case 1:
			_, err = db.NewObject("A", map[string]any{"a": i % 5, "x": i % 3})
		case 2:
			_, err = db.NewObject("B", map[string]any{"a": i % 5, "y": fmt.Sprint(i % 3)})
		default:
			_, err = db.NewObject("R", map[string]any{"a": fmt.Sprint(i % 3), "x": i % 3, "z": i%8 == 3})
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestSlotsAcrossTheLattice: shallow and DEEP queries with conditions on
// inherited, subclass-only and redeclared attributes, through the attribute
// indexes (built over extents that mix the classes) and by walking the whole
// extent, answer what Get on every object of the extent answers, before and
// after Set on objects of each class. A condition on x under P must read x
// from A and R objects and nothing from B objects, whose y has the same slot.
func TestSlotsAcrossTheLattice(t *testing.T) {
	db := latticeDB(t)
	where := []string{
		"a = 1", "a >= 3", "a = '1'", "a LIKE '2%'", "a <> 0",
		"x = 1", "x < 2", "x = '1'", "x <> 2", "x > 0 AND a < 4",
		"y = '1'", "y = 1", "y >= '1'", "y LIKE '%'",
		"z = true", "z = true AND x = 1",
	}
	indexed := 0
	check := func(stage string) {
		t.Helper()
		for _, class := range []string{"P", "A", "B", "R"} {
			for _, deep := range []bool{false, true} {
				objs, _ := db.Extent(class, deep)
				cl, _ := db.Class(class)
				for _, w := range where {
					ext := len(db.extents[strings.ToLower(class)])
					names := make([]string, len(cl.layout))
					for i, a := range cl.layout {
						names[i] = a.Name
					}
					q := "SELECT " + strings.Join(names, ", ") + " FROM " + class
					if deep {
						q += " DEEP"
					}
					q += " WHERE " + w
					var want [][]any
					for _, o := range objs {
						if latticeMatch(o, w) {
							row := []any{}
							for _, a := range cl.layout {
								v, _ := o.Get(a.Name)
								row = append(row, v)
							}
							want = append(want, row)
						}
					}
					for _, walk := range []bool{false, true} {
						rows, err := QueryRows(db, q)
						if err != nil {
							t.Fatalf("%s: %q: %v", stage, q, err)
						}
						if walk {
							rows.objs = db.extents[strings.ToLower(class)]
						} else if len(rows.objs) < ext {
							indexed++
						}
						got, err := drainRows(rows, 5, nil)
						if err != nil {
							t.Fatal(err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s: %q (walk %v):\n got %v\nwant %v", stage, q, walk, got, want)
						}
					}
				}
			}
		}
	}
	check("as built")
	for _, e := range db.index("p", "x").entries {
		if n := e.o.class.name; n != "A" && n != "R" {
			t.Fatalf("P's index on x holds object %d, a %s", e.o.id, n)
		}
	}
	for _, set := range []struct {
		id   int64
		attr string
		v    any
		ok   bool
	}{
		{1, "a", int64(4), true},   // a P
		{2, "x", int64(1), true},   // an A
		{3, "y", "2", true},        // a B
		{4, "a", "1", true},        // an R: its redeclared a is TEXT
		{8, "z", true, true},       // an R
		{7, "x", int64(1), false},  // a B has no x
		{6, "y", "1", false},       // an A has no y
		{12, "a", int64(1), false}, // an R's a is no longer an INT
	} {
		if err := db.Set(set.id, set.attr, set.v); (err == nil) != set.ok {
			t.Fatalf("Set(%d, %s, %v): %v", set.id, set.attr, set.v, err)
		}
	}
	check("after Set")
	if indexed < 100 {
		t.Fatalf("only %d of 256 queries read an index", indexed)
	}
}

// latticeMatch evaluates a WHERE conjunction of TestSlotsAcrossTheLattice on
// one object by Get and refMatch.
func latticeMatch(o *Object, where string) bool {
	for _, c := range strings.Split(where, " AND ") {
		f := strings.Fields(c)
		var lit any
		switch {
		case strings.HasPrefix(f[2], "'"):
			lit = strings.Trim(f[2], "'")
		case f[2] == "true":
			lit = true
		default:
			n, _ := strconv.ParseInt(f[2], 10, 64)
			lit = n
		}
		v, _ := o.Get(f[0])
		if !refMatch(v, f[1], lit) {
			return false
		}
	}
	return true
}
