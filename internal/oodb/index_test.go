package oodb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// newMixedDB builds a class r with int, float, string and bool attributes and
// a subclass rr, some objects lacking v, n objects in all.
func newMixedDB(t testing.TB, seed int64, n int) *DB {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	db := NewDB("mixed")
	if _, err := db.DefineClass("r", "", Attribute{Name: "k", Type: AttrString}, Attribute{Name: "v", Type: AttrInt},
		Attribute{Name: "f", Type: AttrFloat}, Attribute{Name: "b", Type: AttrBool}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("rr", "r"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		attrs := map[string]any{"k": fmt.Sprintf("k%02d", rng.Intn(50)), "f": float64(rng.Intn(40)) / 2, "b": rng.Intn(2) == 0}
		if rng.Intn(10) != 0 {
			attrs["v"] = int64(rng.Intn(60) - 5)
		}
		class := "r"
		if rng.Intn(10) == 0 {
			class = "rr"
		}
		if _, err := db.NewObject(class, attrs); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// TestIndexAgreesWithExtentWalk: random conjunctions — comparisons on int,
// float, string and bool attributes with literals of the attribute's kind,
// of the other numeric kind and of kinds that match nothing, next to LIKE and
// <> conditions — answer through the attribute indexes what a walk of the
// extent answers, shallow and deep, before and after writes.
func TestIndexAgreesWithExtentWalk(t *testing.T) {
	indexed := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := newMixedDB(t, seed, 400+rng.Intn(800))
		lit := map[string]func() string{
			"v": func() string {
				return pick(rng, fmt.Sprint(rng.Intn(64)-7), fmt.Sprintf("%d.5", rng.Intn(60)), fmt.Sprintf("%d.0", rng.Intn(60)), "'7'")
			},
			"f": func() string { return pick(rng, fmt.Sprintf("%d.5", rng.Intn(20)), fmt.Sprint(rng.Intn(20)), "true") },
			"k": func() string { return pick(rng, fmt.Sprintf("'k%02d'", rng.Intn(55)), "'k'", "3") },
			"b": func() string { return pick(rng, "true", "false", "1") },
		}
		attrs := []string{"v", "v", "f", "k", "b"}
		for i := 0; i < 150; i++ {
			if i%50 == 49 { // writes between the queries drop the indexes
				if err := db.Set(int64(1+rng.Intn(400)), "v", int64(rng.Intn(60))); err != nil {
					t.Fatal(err)
				}
				if err := db.Delete(int64(1 + rng.Intn(400))); err != nil && !strings.Contains(err.Error(), "no object") {
					t.Fatal(err)
				}
			}
			var where []string
			var conds []oqlCond
			for j := 0; j <= rng.Intn(3); j++ {
				a := attrs[rng.Intn(len(attrs))]
				text := fmt.Sprintf("%s %s %s", a, pick(rng, "=", "<", "<=", ">", ">=", "=", "<>"), lit[a]())
				if rng.Intn(6) == 0 {
					text = fmt.Sprintf("k LIKE 'k%d%%'", rng.Intn(5))
				}
				p := &oqlParser{toks: tokeniseOQL(text)}
				c, err := p.parseCond()
				if err != nil {
					t.Fatalf("%s: %v", text, err)
				}
				where, conds = append(where, text), append(conds, c)
			}
			deep := pick(rng, "", " DEEP")
			q := "SELECT k, v FROM r" + deep + " WHERE " + strings.Join(where, " AND ")
			rows, err := QueryRows(db, q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			ext, _ := db.Count("r", true)
			if len(rows.objs) < ext {
				indexed++
			}
			got, err := drainRows(rows, 1+rng.Intn(8), nil)
			if err != nil {
				t.Fatal(err)
			}
			objs, err := db.Select("r", deep != "", func(o *Object) bool {
				for _, c := range conds {
					if !c.match(o) {
						return false
					}
				}
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			want := make([][]any, len(objs))
			for i, o := range objs {
				v, _ := o.Get("v")
				want[i] = []any{o.String("k"), v}
			}
			if len(got) != len(want) || len(want) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %q: %d objects through the index, %d walking the extent", seed, q, len(got), len(want))
			}
		}
	}
	if indexed < 150 {
		t.Fatalf("only %d of 600 queries read an index", indexed)
	}
}

// TestIndexConcurrentFirstUse: queries that all need an index nobody has
// built yet, from several goroutines at once, under the race detector, while
// a writer drops the indexes now and then.
func TestIndexConcurrentFirstUse(t *testing.T) {
	db := newScanDB(t, 3000)
	want := map[string]int{
		"SELECT k FROM r WHERE v >= 100 AND v < 172":                72,
		"SELECT k FROM r WHERE v >= 190 AND v < 200":                9, // object 194 is an rr
		"SELECT k FROM r DEEP WHERE v = 1500":                       1,
		"SELECT v FROM r DEEP WHERE k = 'x-2001'":                   1,
		"SELECT v FROM r DEEP WHERE k >= 'x-2990' AND k < 'x-2995'": 5,
	}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := db.Set(3000, "k", "x-2999"); err != nil { // the value it has: answers stay
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 8; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 40; i++ {
				for q, n := range want {
					_, rows, err := Query(db, q)
					if err != nil || len(rows) != n {
						t.Errorf("%q: %d rows, want %d (%v)", q, len(rows), n, err)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}

func pick(rng *rand.Rand, options ...string) string { return options[rng.Intn(len(options))] }

var benchRows [][]any

func benchOQL(b *testing.B, q string, want int) {
	db := newScanDB(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, rows, err := Query(db, q)
		if err != nil || len(rows) != want {
			b.Fatalf("%q: %d rows, %v", q, len(rows), err)
		}
		benchRows = rows
	}
}

// BenchmarkOQLEqual is an object member's point lookup.
func BenchmarkOQLEqual(b *testing.B) { benchOQL(b, "SELECT k FROM r DEEP WHERE v = 1117", 1) }

// BenchmarkOQLRange is an object member's semi-join probe window.
func BenchmarkOQLRange(b *testing.B) {
	benchOQL(b, "SELECT k FROM r DEEP WHERE v >= 900 AND v < 972", 72)
}

// BenchmarkOQLScan is an object member's fragment in a coalition scan: a
// LIKE that admits every object and a range that admits almost all, so the
// scan walks the extent, drained the way a cursor pages (64 rows first,
// doubling to 1 024).
func BenchmarkOQLScan(b *testing.B) {
	const q = "SELECT v FROM r WHERE k LIKE 'x%' AND v >= 3"
	db := newScanDB(b, 2000)
	_, want, err := Query(db, q)
	if err != nil {
		b.Fatal(err)
	}
	ch := &Chunk{Cols: make([][]any, 1)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		rows, err := QueryRows(db, q)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for page, done := 64, false; !done; page = min(2*page, 1024) {
			done = rows.Next(ch, page)
			n += ch.N
		}
		if n != len(want) {
			b.Fatalf("%d rows, want %d", n, len(want))
		}
	}
}

// match evaluates the condition on one object, fetching its attribute.
func (c *oqlCond) match(o *Object) bool {
	v, ok := o.Get(c.attr)
	if !ok {
		return false
	}
	return c.matchValue(v)
}
