package oodb

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// newScanDB builds a class r (k string, v int) of n objects and a subclass
// with a few more, so shallow scans have objects to pass over.
func newScanDB(t testing.TB, n int) *DB {
	t.Helper()
	db := NewDB("scan")
	if _, err := db.DefineClass("r", "", Attribute{Name: "k", Type: AttrString}, Attribute{Name: "v", Type: AttrInt}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.DefineClass("rr", "r"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		class := "r"
		if i%97 == 96 {
			class = "rr"
		}
		if _, err := db.NewObject(class, map[string]any{"k": fmt.Sprintf("x-%d", i), "v": int64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// drainRows pulls an opened query to its end, page rows at a time, and returns
// the rows row-major. after, when set, runs between every two pages.
func drainRows(rows *Rows, page int, after func()) ([][]any, error) {
	defer rows.Close()
	ch := &Chunk{Cols: make([][]any, len(rows.Columns()))}
	var out [][]any
	for {
		done := rows.Next(ch, page)
		if page > 0 && ch.N > page {
			return nil, fmt.Errorf("a page of %d rows, %d asked for", ch.N, page)
		}
		for j := 0; j < ch.N; j++ {
			row := make([]any, len(ch.Cols))
			for c := range ch.Cols {
				row[c] = ch.Cols[c][j]
			}
			out = append(out, row)
		}
		if done {
			return out, nil
		}
		if ch.N == 0 {
			return nil, fmt.Errorf("an empty chunk that is not the last")
		}
		if after != nil {
			after()
		}
	}
}

// TestIteratorPageSizesAgree: whatever the page size, draining the iterator
// yields the rows Query does.
func TestIteratorPageSizesAgree(t *testing.T) {
	db := newScanDB(t, 2500)
	for i := int64(100); i < 400; i += 3 {
		if err := db.Delete(i); err != nil {
			t.Fatal(err)
		}
	}
	for _, q := range []string{
		"SELECT k, v FROM r",
		"SELECT k FROM r DEEP",
		"SELECT k, v FROM r WHERE v >= 1200",
		"SELECT v FROM r DEEP WHERE k LIKE 'x-1%' AND v < 1900",
		"SELECT v FROM r WHERE v = 777",
		"SELECT v FROM r WHERE v > 99999",
		"SELECT v FROM rr",
	} {
		_, want, err := Query(db, q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		for _, page := range []int{1, 7, 1024, 0} {
			rows, err := QueryRows(db, q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			got, err := drainRows(rows, page, nil)
			if err != nil {
				t.Fatalf("%q at page %d: %v", q, page, err)
			}
			if len(got) != len(want) || len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("%q at page %d: %d rows, Query has %d", q, page, len(got), len(want))
			}
		}
	}
}

// TestIteratorUnderWrites runs a writer between every two fetches of a cursor:
// it creates objects and deletes objects on both sides of the scan. The cursor
// must return no object twice, every object that existed at open and still
// exists when the scan ends, and none created after open.
func TestIteratorUnderWrites(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := newScanDB(t, 1200)
		deleted := map[int64]bool{}
		write := func() {
			for i := 0; i < 3; i++ {
				if _, err := db.NewObject("r", map[string]any{"k": "new", "v": int64(-1)}); err != nil {
					t.Fatal(err)
				}
			}
			for i, n := 0, 1+rng.Intn(30); i < n; i++ {
				if id := 1 + rng.Int63n(1200); !deleted[id] {
					if err := db.Delete(id); err != nil {
						t.Fatal(err)
					}
					deleted[id] = true
				}
			}
		}
		rows, err := QueryRows(db, "SELECT v FROM r DEEP WHERE v >= 0")
		if err != nil {
			t.Fatal(err)
		}
		got, err := drainRows(rows, 1+rng.Intn(40), write)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		last := int64(0)
		for _, r := range got {
			id := r[0].(int64) + 1 // object IDs were assigned in creation order, from 1
			if seen[id] {
				t.Fatalf("seed %d: object %d returned twice", seed, id)
			}
			seen[id] = true
			if id <= last {
				t.Fatalf("seed %d: object %d after object %d", seed, id, last)
			}
			last = id
		}
		for id := int64(1); id <= 1200; id++ {
			if !deleted[id] && !seen[id] {
				t.Fatalf("seed %d: object %d existed at open, still exists, and was skipped", seed, id)
			}
		}
	}
}

// TestIndexCursorUnderWrites runs a writer between every two fetches of a
// cursor over an attribute index's candidates: it sets objects out of the
// cursor's range and into it, deletes objects and creates objects in the
// range. The cursor must return no object twice, every object that was in its
// result at open and still is, and none that entered the range after open;
// and after every write a new query answers what a walk of the extent does,
// never what an index built before the write says.
func TestIndexCursorUnderWrites(t *testing.T) {
	const q, lo, hi = "SELECT k, v FROM r DEEP WHERE v >= 300 AND v < 420", 300, 420
	inRange := func(o *Object) bool { v, ok := o.Get("v"); return ok && v.(int64) >= lo && v.(int64) < hi }
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := newScanDB(t, 1200)
		rows, err := QueryRows(db, q)
		if err != nil {
			t.Fatal(err)
		}
		if len(rows.objs) != hi-lo {
			t.Fatalf("the cursor holds %d candidates, want the index's %d", len(rows.objs), hi-lo)
		}
		left := map[int64]bool{} // out of the result since open: deleted or set out of the range
		write := func() {
			for n := 1 + rng.Intn(4); n > 0; n-- {
				id := 1 + rng.Int63n(1200)
				var err error
				switch rng.Intn(4) {
				case 0:
					err = db.Delete(id)
					left[id] = true
				case 1:
					err = db.Set(id, "v", int64(lo+rng.Intn(hi-lo))) // into the range, or within it
				case 2:
					_, err = db.NewObject("r", map[string]any{"k": "new", "v": int64(lo + 1)})
				default:
					err = db.Set(id, "v", int64(5000))
					left[id] = true
				}
				if err != nil && !strings.Contains(err.Error(), "no object") { // deleted before
					t.Fatal(err)
				}
			}
			_, got, err := Query(db, q)
			if err != nil {
				t.Fatal(err)
			}
			want, err := db.Select("r", true, inRange)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(want) {
				t.Fatalf("seed %d: a new query after a write answers %d objects, the extent %d", seed, len(got), len(want))
			}
			for i, o := range want {
				if got[i][0] != o.String("k") || got[i][1] != o.Int("v") {
					t.Fatalf("seed %d: a new query's row %d is %v, the extent's %s", seed, i, got[i], o.String("k"))
				}
			}
		}
		got, err := drainRows(rows, 1+rng.Intn(7), write)
		if err != nil {
			t.Fatal(err)
		}
		seen := map[int64]bool{}
		last := int64(0)
		for _, r := range got {
			var i int64
			if _, err := fmt.Sscanf(r[0].(string), "x-%d", &i); err != nil {
				t.Fatalf("seed %d: %v came into the result after open", seed, r)
			}
			id := i + 1 // object IDs were assigned in creation order, from 1
			if seen[id] || id <= last {
				t.Fatalf("seed %d: object %d returned twice or out of order", seed, id)
			}
			seen[id], last = true, id
			if id <= lo || id > hi {
				t.Fatalf("seed %d: object %d entered the range after open and was returned", seed, id)
			}
		}
		for id := int64(lo + 1); id <= hi; id++ {
			if !left[id] && !seen[id] {
				t.Fatalf("seed %d: object %d was in the result at open, still is, and was skipped", seed, id)
			}
		}
	}
}

// TestIteratorLeftIsABound: Left never promises fewer rows than the iterator
// still returns, at open or after any page, at pages 1, 7 and 64, whatever is
// written between two pages: objects created (in an index's range too),
// deleted, and set into and out of a cursor's range. On a database nobody
// writes, an index cursor's bound at open is exact.
func TestIteratorLeftIsABound(t *testing.T) {
	for q, tight := range map[string]bool{
		"SELECT v FROM r DEEP WHERE v >= 0":                    false, // the extent
		"SELECT k FROM r":                                      false, // shallow: passes over rr
		"SELECT v FROM r DEEP WHERE v >= 300 AND v < 420":      true,  // index span
		"SELECT v FROM r DEEP WHERE v = 777":                   true,
		"SELECT v FROM r DEEP WHERE v < 100 AND k LIKE 'x-1%'": false,
	} {
		for _, page := range []int{1, 7, 64} {
			rng := rand.New(rand.NewSource(int64(page)))
			db := newScanDB(t, 1200)
			_, want, err := Query(db, q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := QueryRows(db, q)
			if err != nil {
				t.Fatal(err)
			}
			if tight && rows.Left() != len(want) {
				t.Errorf("%q: Left at open = %d, the result has %d rows", q, rows.Left(), len(want))
			}
			write := func() {
				for n := 1 + rng.Intn(4); n > 0; n-- {
					id := 1 + rng.Int63n(1200)
					var err error
					switch rng.Intn(4) {
					case 0:
						err = db.Delete(id)
					case 1:
						err = db.Set(id, "v", int64(300+rng.Intn(120)))
					case 2:
						_, err = db.NewObject("r", map[string]any{"k": "x-1new", "v": int64(rng.Intn(1200))})
					default:
						err = db.Set(id, "v", int64(5000))
					}
					if err != nil && !strings.Contains(err.Error(), "no object") { // deleted before
						t.Fatal(err)
					}
				}
			}
			// bounds[k] is Left once k pages were read, before[k] the rows they
			// held; the writer runs after each is taken.
			var bounds, before []int
			ch := &Chunk{Cols: make([][]any, len(rows.Columns()))}
			returned := 0
			for done := false; !done; {
				bounds, before = append(bounds, rows.Left()), append(before, returned)
				write()
				done = rows.Next(ch, page)
				returned += ch.N
			}
			if rows.Left() != 0 {
				t.Errorf("%q at page %d: Left = %d once done", q, page, rows.Left())
			}
			for k, b := range bounds {
				if still := returned - before[k]; b < still {
					t.Fatalf("%q at page %d: Left after %d page(s) = %d, but %d more row(s) came", q, page, k, b, still)
				}
			}
		}
	}
}

// TestIteratorOpenScansAPage: the first page of a cursor over a large extent
// looks at a page's worth of objects, and a closed cursor scans nothing.
func TestIteratorOpenScansAPage(t *testing.T) {
	db := newScanDB(t, 100000)
	for _, q := range []string{"SELECT v FROM r DEEP", "SELECT v FROM r WHERE v >= 10"} {
		before := db.ChunksScanned()
		rows, err := QueryRows(db, q)
		if err != nil {
			t.Fatal(err)
		}
		ch := &Chunk{Cols: make([][]any, 1)}
		if done := rows.Next(ch, 64); done || ch.N != 64 {
			t.Fatalf("%q: first page of %d rows, done %v", q, ch.N, done)
		}
		// A step is at most 1 024 objects: the page and a look ahead.
		if n := db.ChunksScanned() - before; n > 3 {
			t.Fatalf("%q: the first page took %d steps of the scan", q, n)
		}
		rows.Close()
		mark := db.ChunksScanned()
		if done := rows.Next(ch, 64); !done || ch.N != 0 {
			t.Fatalf("%q: Next after Close = %d rows, done %v", q, ch.N, done)
		}
		if db.ChunksScanned() != mark {
			t.Fatalf("%q: the scan went on after Close", q)
		}
	}
}

// TestIteratorSetMidScan runs Set, NewObject and Delete against cursors in
// the middle of their scans. Query used to read attribute maps after the
// extent lookup had released the lock, which the runtime reports as a fatal
// concurrent map read and map write; the race detector is the assertion.
func TestIteratorSetMidScan(t *testing.T) {
	db := newScanDB(t, 3000)
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		rng := rand.New(rand.NewSource(1))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			id := 1 + rng.Int63n(3000)
			var err error
			switch i % 8 {
			case 0:
				_, err = db.NewObject("r", map[string]any{"k": "w", "v": int64(i)})
			case 1:
				if err = db.Delete(id); err != nil {
					err = nil // deleted before
				}
			default:
				if err = db.Set(id, "v", int64(i)); err != nil {
					err = nil // deleted before
				}
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 15; i++ {
				rows, err := QueryRows(db, "SELECT k, v FROM r DEEP WHERE v >= 0")
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := drainRows(rows, 64+r, nil); err != nil {
					t.Error(err)
					return
				}
				if _, _, err := Query(db, "SELECT v FROM r WHERE k LIKE 'x-2%'"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
