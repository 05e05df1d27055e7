package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"
)

// drainRows pulls an opened statement to its end, page rows at a time, and
// returns the rows row-major. after, when set, runs between every two pages.
func drainRows(rows *Rows, page int, after func()) ([]Row, error) {
	defer rows.Close()
	ch := &Chunk{Cols: make([][]Value, len(rows.Columns()))}
	var out []Row
	for {
		done := rows.Next(ch, page)
		if page > 0 && ch.N > page {
			return nil, fmt.Errorf("a page of %d rows, %d asked for", ch.N, page)
		}
		for j := 0; j < ch.N; j++ {
			row := make(Row, len(ch.Cols))
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
// yields the rows Query does, whatever the walk's source, and the row oracle
// agrees on them.
func TestIteratorPageSizesAgree(t *testing.T) {
	statements := []string{
		"SELECT * FROM t",
		"SELECT id, s FROM t WHERE v >= 5",
		"SELECT id, s FROM t WHERE v < 15 AND s <> 's1'",
		"SELECT id FROM t WHERE v IN (3, 17)",
		"SELECT id FROM t WHERE s LIKE 's%' LIMIT 10",
		"SELECT id FROM t LIMIT 70",
		"SELECT id FROM t WHERE v > 2 AND id > 1900 LIMIT 5",
		"SELECT id FROM t LIMIT 0",
		"SELECT id FROM t WHERE v > 100",
		"SELECT id, v <> 4 FROM t WHERE id > 1400",
		"SELECT id FROM t WHERE id = 77",
		"SELECT id FROM t WHERE id = 77 AND v >= 0 LIMIT 1",
		// Blocking operators.
		"SELECT id, v FROM t ORDER BY v, id",
		"SELECT v, COUNT(*) FROM t GROUP BY v",
		"SELECT s, COUNT(*) FROM t WHERE v <> 4 GROUP BY s ORDER BY s LIMIT 2",
	}
	for seed := int64(1); seed <= 3; seed++ {
		vec, _ := randDB(t, seed, 2500)
		for _, q := range statements {
			checkSameResult(t, vec, q)
			want, wantErr := vec.Query(q)
			for _, page := range []int{1, 7, 1024, 0} {
				rows, err := vec.QueryRows(q)
				var got []Row
				if err == nil {
					got, err = drainRows(rows, page, nil)
				}
				if (err != nil) != (wantErr != nil) {
					t.Fatalf("seed %d, %q at page %d: error %v, Query's %v", seed, q, page, err, wantErr)
				}
				if err == nil && !reflect.DeepEqual(got, want.Rows) {
					t.Fatalf("seed %d, %q at page %d: %d rows, Query has %d", seed, q, page, len(got), len(want.Rows))
				}
			}
		}
	}
}

// TestIteratorPlans pins which statements hold rows at open: a walk over a
// table (full scan or index lookup, whatever its filter) holds none, and a
// SELECT with a blocking operator holds its whole result until it is read.
func TestIteratorPlans(t *testing.T) {
	db, _ := randDB(t, 1, 10)
	for q, holds := range map[string]bool{
		"SELECT * FROM t": false,
		"SELECT id FROM t WHERE v > 3 AND s = 's1'": false,
		"SELECT id FROM t WHERE v > 3 LIMIT 2":      false,
		"SELECT id FROM t WHERE id = 3":             false, // index lookup
		"SELECT id FROM t WHERE id = 3 AND v > 0":   false,
		"SELECT id FROM t WHERE s LIKE 's%'":        false, // no index access
		"SELECT id FROM t ORDER BY id":              true,
		"SELECT v, COUNT(*) FROM t GROUP BY v":      true,
		"SELECT COUNT(*) FROM t":                    true,
		"SELECT 1":                                  true,
		"EXPLAIN SELECT id FROM t":                  true,
	} {
		want := 0
		if holds {
			res, err := db.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			want = len(res.Rows)
		}
		rows, err := db.QueryRows(q)
		if err != nil {
			t.Fatalf("%q: %v", q, err)
		}
		if rows.Held() != want {
			t.Errorf("%q: %d rows held at open, want %d", q, rows.Held(), want)
		}
		rows.Close()
		if rows.Held() != 0 {
			t.Errorf("%q: %d rows held after Close", q, rows.Held())
		}
	}
}

// TestIteratorUnderWrites runs a writer between every two fetches of a
// cursor over table slots and of one over an index lookup: it inserts rows,
// into the index's key too. The cursor must return no row twice, every row
// that was in its result at open, in insertion order, and no row inserted
// after open.
func TestIteratorUnderWrites(t *testing.T) {
	for _, index := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db, vals := randDB(t, seed, 1200)
			q, page := "SELECT id FROM t WHERE v >= 0", 1+rng.Intn(40)
			if index {
				if _, err := db.Exec("CREATE INDEX t_v ON t (v)"); err != nil {
					t.Fatal(err)
				}
				q, page = "SELECT id FROM t WHERE v = 3", 1 // about 60 rows: a fetch each
			}
			atOpen := map[int64]bool{}
			for i, v := range vals {
				if !index || v == 3 {
					atOpen[int64(i)] = true
				}
			}
			nextNew := int64(5000)
			write := func() {
				for range 1 + rng.Intn(8) {
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'new')", nextNew, rng.Intn(2)*3)); err != nil {
						t.Fatal(err)
					}
					nextNew++
				}
			}
			rows, err := db.QueryRows(q)
			if err != nil {
				t.Fatal(err)
			}
			if rows.Held() != 0 {
				t.Fatalf("%q holds rows", q)
			}
			got, err := drainRows(rows, page, write)
			if err != nil {
				t.Fatal(err)
			}
			seen := map[int64]bool{}
			last := int64(-1)
			for _, r := range got {
				id := r[0].Int
				if seen[id] {
					t.Fatalf("%q, seed %d: row %d returned twice", q, seed, id)
				}
				seen[id] = true
				if !atOpen[id] {
					t.Fatalf("%q, seed %d: row %d came into the result after open", q, seed, id)
				}
				if id < last {
					t.Fatalf("%q, seed %d: row %d after row %d", q, seed, id, last)
				}
				last = id
			}
			if len(seen) != len(atOpen) {
				t.Fatalf("%q, seed %d: %d of the %d rows in the result at open came", q, seed, len(seen), len(atOpen))
			}
			if nextNew == 5000 {
				t.Fatalf("%q, seed %d: the writer never ran", q, seed)
			}
		}
	}
}

// TestIteratorLeftIsABound: Left never promises fewer rows than the iterator
// still returns, at open or after any page, at pages 1, 7 and 64, whatever is
// inserted between two pages, into index keys too. An index walk's and a held
// relation's bound at open is exact, which is what lets a short result leave
// in one page.
func TestIteratorLeftIsABound(t *testing.T) {
	exact := map[string]bool{
		"SELECT id FROM t WHERE v >= 0":                 false, // table slots
		"SELECT id FROM t WHERE s = 's1' LIMIT 10":      false,
		"SELECT id FROM t LIMIT 70":                     true,
		"SELECT id FROM t WHERE v = 3":                  true, // index lookup
		"SELECT id FROM t WHERE v >= 3 AND v < 5":       true, // index range
		"SELECT id FROM t WHERE v IN (1, 3)":            true, // index probe
		"SELECT id FROM t WHERE v = 3 AND s = 's0'":     false,
		"SELECT id, v FROM t ORDER BY v, id":            true, // held
		"SELECT v, COUNT(*) FROM t GROUP BY v LIMIT 30": true,
	}
	for q, tight := range exact {
		for _, page := range []int{1, 7, 64} {
			rng := rand.New(rand.NewSource(int64(page)))
			db, _ := randDB(t, int64(page), 600)
			if _, err := db.Exec("CREATE INDEX t_v ON t (v)"); err != nil {
				t.Fatal(err)
			}
			want, err := db.Query(q)
			if err != nil {
				t.Fatal(err)
			}
			rows, err := db.QueryRows(q)
			if err != nil {
				t.Fatal(err)
			}
			if tight && rows.Left() != len(want.Rows) {
				t.Errorf("%q: Left at open = %d, the result has %d rows", q, rows.Left(), len(want.Rows))
			}
			nextNew := 5000
			write := func() {
				for range 1 + rng.Intn(8) {
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 's0')", nextNew, rng.Intn(20))); err != nil {
						t.Fatal(err)
					}
					nextNew++
				}
			}
			// bounds[k] is Left once k pages were read, before[k] the rows they
			// held; the writer runs after each is taken.
			var bounds, before []int
			ch := &Chunk{Cols: make([][]Value, len(rows.Columns()))}
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

// TestIteratorOpenScansAPage: opening a cursor on a large table and taking its
// first page looks at a page's worth of slots, not at the table; closing it
// stops the scan for good.
func TestIteratorOpenScansAPage(t *testing.T) {
	db := NewDatabase("big", DialectOracle)
	if _, err := db.Exec("CREATE TABLE t (id INT, s VARCHAR(8))"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("t")
	for i := 0; i < 100000; i++ {
		if err := tbl.insert(Row{IntValue(int64(i)), TextValue(fmt.Sprintf("s%d", i%5))}); err != nil {
			t.Fatal(err)
		}
	}
	// A step is at most 1 024 slots, so a handful of them is O(page): the
	// page itself, steps a filter that passes one row in five needs to fill
	// it, and a look ahead for one more row.
	const steps = 8
	for _, q := range []string{
		"SELECT id FROM t",
		"SELECT id FROM t WHERE s <> 's0'",
		"SELECT id FROM t WHERE s = 's1' LIMIT 64",
		"SELECT id FROM t WHERE id >= 100 LIMIT 1000",
	} {
		before := db.ChunksScanned()
		rows, err := db.QueryRows(q)
		if err != nil {
			t.Fatal(err)
		}
		if n := db.ChunksScanned() - before; n != 0 {
			t.Fatalf("%q: open scanned %d chunk(s)", q, n)
		}
		ch := &Chunk{Cols: make([][]Value, 1)}
		if rows.Next(ch, 64); ch.N != 64 {
			t.Fatalf("%q: first page of %d rows", q, ch.N)
		}
		if n := db.ChunksScanned() - before; n > steps {
			t.Fatalf("%q: the first page took %d steps of the scan, want at most %d", q, n, steps)
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

// TestScratchReleaseClearsWhatWasWritten: release clears the prefix of every
// buffer handed out that any of them was written to, so pooled scratch never
// holds a query's values, however short the page.
func TestScratchReleaseClearsWhatWasWritten(t *testing.T) {
	c := &vctx{}
	a, b := c.getVals(), c.getVals()
	for i := range 700 {
		a[i] = TextValue("held")
	}
	b[2] = TextValue("held")
	c.putVals(b[:3])
	c.putVals(a[:700])
	again := c.getVals() // reused within the statement: written less this time
	again[0] = TextValue("held")
	c.putVals(again[:1])
	c.release()
	for _, buf := range [][]Value{a, b} {
		for i, v := range buf[:vecChunk] {
			if v != (Value{}) {
				t.Fatalf("value %d still holds %v after release", i, v)
			}
		}
	}
}

// TestIteratorConcurrentWriters runs cursors, over table slots and over an
// index, against concurrent inserts into the index's keys; the race detector
// and the cursor's guarantees are the assertions.
func TestIteratorConcurrentWriters(t *testing.T) {
	db, _ := randDB(t, 1, 2000)
	if _, err := db.Exec("CREATE INDEX t_v ON t (v)"); err != nil {
		t.Fatal(err)
	}
	stop := make(chan struct{})
	var writers sync.WaitGroup
	writers.Add(1)
	go func() {
		defer writers.Done()
		rng := rand.New(rand.NewSource(2))
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			q := fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 'w')", 10000+i, rng.Intn(20))
			if _, err := db.Exec(q); err != nil {
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
			for i := 0; i < 20; i++ {
				q := "SELECT id, s FROM t WHERE v >= 0"
				if i%2 == 1 {
					q = "SELECT id, s FROM t WHERE v = 3"
				}
				rows, err := db.QueryRows(q)
				if err != nil {
					t.Error(err)
					return
				}
				got, err := drainRows(rows, 50+r, nil)
				if err != nil {
					t.Error(err)
					return
				}
				last := int64(-1)
				for _, row := range got {
					if row[0].Int <= last {
						t.Errorf("row %d after row %d", row[0].Int, last)
						return
					}
					last = row[0].Int
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writers.Wait()
}

func TestExplain(t *testing.T) {
	db := newOrdersDB(t)
	mustExec(t, db, "CREATE INDEX idx_city ON customers (city)")
	res := mustQuery(t, db, `EXPLAIN SELECT c.name, COUNT(*) FROM customers c
		WHERE c.city = 'Brisbane'
		GROUP BY c.name ORDER BY c.name LIMIT 5`)
	text := ""
	for _, row := range res.Rows {
		text += row[0].Str + "\n"
	}
	for _, want := range []string{
		"limit 5", "sort by c.name", "aggregate group by c.name",
		"index lookup idx_city(city) customers as c filter",
		"rows held at open", // a blocking operator builds them
	} {
		if !strings.Contains(text, want) {
			t.Errorf("plan missing %q:\n%s", want, text)
		}
	}
	// EXPLAIN of a point select shows the PK index.
	res = mustQuery(t, db, "EXPLAIN SELECT * FROM customers WHERE id = 1")
	joined := ""
	for _, r := range res.Rows {
		joined += r[0].Str + "\n"
	}
	if !strings.Contains(joined, "index lookup pk_customers(id)") ||
		!strings.Contains(joined, "rows streamed from customers") {
		t.Errorf("pk plan:\n%s", joined)
	}
	// A filter no index answers is the walk's too: the plan still streams.
	res = mustQuery(t, db, "EXPLAIN SELECT name FROM customers WHERE name LIKE 'C%' LIMIT 2")
	joined = ""
	for _, r := range res.Rows {
		joined += r[0].Str + "\n"
	}
	if !strings.Contains(joined, "rows streamed from customers") || !strings.Contains(joined, "seq scan customers filter (name LIKE 'C%')") {
		t.Errorf("residual-only plan:\n%s", joined)
	}
	// EXPLAIN names the index source, or the slot walk when the index would
	// yield more than a share of the table.
	big := indexedDB(t, 2000)
	for q, want := range map[string]string{
		"SELECT k FROM r WHERE v >= 100 AND v < 172":         "index range r_v(v) [100, 172) r filter",
		"SELECT k FROM r WHERE v <= 9 AND v > 7":             "index range r_v(v) (7, 9] r filter",
		"SELECT k FROM r WHERE v < 20":                       "index range r_v(v) (-inf, 20) r filter",
		"SELECT k FROM r WHERE v IN (5, 6, 7, 5) AND v >= 0": "index probe r_v(v) IN 3 keys r filter",
		"SELECT k FROM r WHERE v = 117 AND v > 0":            "index lookup r_v(v) r filter",
		"SELECT k FROM r WHERE k >= 'x1990'":                 "index range pk_r(k) ['x1990', inf) r filter",
		"SELECT k FROM r WHERE v >= 5":                       "seq scan r filter",
		"SELECT k FROM r WHERE v >= '5'":                     "seq scan r filter",
		"SELECT k FROM r WHERE v IN (5, 'x')":                "seq scan r filter",
		"SELECT k FROM r WHERE v <> 117":                     "seq scan r filter",
	} {
		res := mustQuery(t, big, "EXPLAIN "+q)
		joined := ""
		for _, r := range res.Rows {
			joined += r[0].Str + "\n"
		}
		if !strings.Contains(joined, want) {
			t.Errorf("EXPLAIN %s: want %q in\n%s", q, want, joined)
		}
	}
}
