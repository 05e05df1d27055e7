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
		done, err := rows.Next(ch, page)
		if err != nil {
			return nil, err
		}
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
// yields the rows Query does, whatever the walk's source, on tables with
// tombstones in them, and both engines agree on them.
func TestIteratorPageSizesAgree(t *testing.T) {
	statements := []string{
		"SELECT * FROM t",
		"SELECT id, s FROM t WHERE v >= 5",
		"SELECT id + 1, UPPER(s) FROM t WHERE v < 15 AND s <> 's1'",
		"SELECT id FROM t WHERE v = 3 OR v = 17",
		"SELECT id FROM t WHERE s LIKE 's%' LIMIT 10",
		"SELECT id FROM t LIMIT 70 OFFSET 60",
		"SELECT id FROM t WHERE v > 2 LIMIT 5 OFFSET 1999",
		"SELECT id FROM t LIMIT 0",
		"SELECT id FROM t WHERE v > 100",
		"SELECT 100 / (id - 30) FROM t LIMIT 20",          // the failing row is past the LIMIT
		"SELECT id FROM t WHERE 100 / (id - 30) > 0",      // the filter fails on row 30
		"SELECT 100 / (id - 1500) FROM t WHERE id > 1400", // the projection fails past page one
		"SELECT id FROM t WHERE id = 77",
		"SELECT id FROM t WHERE id = 77 AND v >= 0 LIMIT 1",
		"SELECT id FROM t WHERE 1 = 1 LIMIT 9 OFFSET 3",
		"SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE a.v + b.v > 4 LIMIT 50 OFFSET 2",
		"SELECT 100 / (a.id - 1500) FROM t a JOIN t b ON a.id = b.id LIMIT 1400",
		// Blocking operators.
		"SELECT id, v FROM t ORDER BY v, id",
		"SELECT v, COUNT(*) FROM t GROUP BY v",
		"SELECT DISTINCT s FROM t",
		"SELECT a.id FROM t a JOIN t b ON a.id = b.id WHERE a.v = 4",
		"SELECT id FROM t WHERE v = 1 UNION SELECT id FROM t WHERE v = 2",
	}
	for seed := int64(1); seed <= 3; seed++ {
		vec, _ := randDB(t, seed, 2500)
		row, _ := randDB(t, seed, 2500)
		row.rowExec = true
		for _, db := range []*Database{vec, row} {
			if _, err := db.Exec("DELETE FROM t WHERE v = 7 AND id <> 30 AND id <> 1500"); err != nil {
				t.Fatal(err)
			}
		}
		for _, q := range statements {
			checkSameResult(t, vec, row, q)
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
// table (full scan or index lookup, whatever its filter) holds none, and an
// arm with a blocking operator holds its whole result until it is read.
func TestIteratorPlans(t *testing.T) {
	db, _ := randDB(t, 1, 10)
	for q, holds := range map[string]bool{
		"SELECT * FROM t": false,
		"SELECT id FROM t WHERE v > 3 AND s = 's1'":   false,
		"SELECT id FROM t WHERE v > 3 LIMIT 2":        false,
		"SELECT id FROM t WHERE id = 3":               false, // index lookup
		"SELECT id FROM t WHERE id = 3 AND v > 0":     false,
		"SELECT id FROM t WHERE 1 = 1":                false, // a residual conjunct
		"SELECT id FROM t ORDER BY id":                true,
		"SELECT v, COUNT(*) FROM t GROUP BY v":        true,
		"SELECT COUNT(*) FROM t":                      true,
		"SELECT DISTINCT v FROM t":                    true,
		"SELECT a.id FROM t a, t b":                   true,
		"SELECT a.id FROM t a JOIN t b ON a.v = b.v":  true,
		"SELECT id FROM t UNION ALL SELECT id FROM t": true,
		"SELECT 1":                 true,
		"EXPLAIN SELECT id FROM t": true,
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
// cursor over table slots and of one over an index lookup: it inserts rows
// (in the index's key too), deletes rows on both sides of the walk, deletes
// enough to force maybeCompact and, under the index walk, updates rows into
// and out of the key. The cursor must return no row twice, every row that was
// in its result at open and still is when the walk ends, and no row inserted
// (or, for the index walk, updated into the key) after open.
func TestIteratorUnderWrites(t *testing.T) {
	for _, index := range []bool{false, true} {
		for seed := int64(1); seed <= 6; seed++ {
			rng := rand.New(rand.NewSource(seed))
			db, vals := randDB(t, seed, 1200)
			tbl, _ := db.Table("t")
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
			gone := map[int64]bool{} // deleted, or updated out of the key
			nextNew := int64(5000)
			compactions := 0
			write := func() {
				for i := 0; i < 3; i++ {
					if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 3, 'new')", nextNew)); err != nil {
						t.Fatal(err)
					}
					nextNew++
				}
				if id := int64(rng.Intn(1200)); index && !gone[id] {
					v := 3
					if vals[id] == 3 {
						v = 4
					}
					if _, err := db.Exec(fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", v, id)); err != nil {
						t.Fatal(err)
					}
					gone[id] = true
				}
				// A burst of deletes, now and then big enough to compact.
				n := 1 + rng.Intn(8)
				if rng.Intn(4) == 0 {
					n = 150
				}
				before := len(tbl.ids)
				for i := 0; i < n; i++ {
					id := int64(rng.Intn(1200))
					if _, err := db.Exec(fmt.Sprintf("DELETE FROM t WHERE id = %d", id)); err != nil {
						t.Fatal(err)
					}
					gone[id] = true
				}
				if len(tbl.ids) < before {
					compactions++
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
			for id := range atOpen {
				if !gone[id] && !seen[id] {
					t.Fatalf("%q, seed %d: row %d was in the result at open, still is, and was skipped", q, seed, id)
				}
			}
			if compactions == 0 {
				t.Fatalf("%q, seed %d: the writer never forced a compaction", q, seed)
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
		if _, err := tbl.insert(Row{IntValue(int64(i)), TextValue(fmt.Sprintf("s%d", i%5))}); err != nil {
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
		"SELECT id FROM t WHERE id >= 0 LIMIT 1000 OFFSET 100",
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
		if _, err := rows.Next(ch, 64); err != nil || ch.N != 64 {
			t.Fatalf("%q: first page of %d rows, %v", q, ch.N, err)
		}
		if n := db.ChunksScanned() - before; n > steps {
			t.Fatalf("%q: the first page took %d steps of the scan, want at most %d", q, n, steps)
		}
		rows.Close()
		mark := db.ChunksScanned()
		if done, err := rows.Next(ch, 64); !done || err != nil || ch.N != 0 {
			t.Fatalf("%q: Next after Close = %d rows, done %v, %v", q, ch.N, done, err)
		}
		if db.ChunksScanned() != mark {
			t.Fatalf("%q: the scan went on after Close", q)
		}
	}
}

// TestIteratorSurvivesDropTable: a cursor whose table is dropped (or dropped
// and recreated) under it ends with an error instead of reading freed storage.
func TestIteratorSurvivesDropTable(t *testing.T) {
	db, _ := randDB(t, 1, 200)
	rows, err := db.QueryRows("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	ch := &Chunk{Cols: make([][]Value, 1)}
	if done, err := rows.Next(ch, 10); done || err != nil {
		t.Fatalf("first page: done %v, %v", done, err)
	}
	if _, err := db.ExecScript("DROP TABLE t; CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR(8))"); err != nil {
		t.Fatal(err)
	}
	if _, err := rows.Next(ch, 10); err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Fatalf("Next after DROP TABLE: %v", err)
	}
}

// TestRollbackRestoresScanOrder: a rolled-back delete puts the row back where
// its ID belongs even when a compaction has squeezed its tombstone out, so row
// IDs keep ascending with the slots (what a resuming scan searches by).
func TestRollbackRestoresScanOrder(t *testing.T) {
	db, _ := randDB(t, 1, 300)
	tbl, _ := db.Table("t")
	want, err := db.Query("SELECT id FROM t")
	if err != nil {
		t.Fatal(err)
	}
	sess := db.NewSession()
	if err := sess.Begin(); err != nil {
		t.Fatal(err)
	}
	if _, err := sess.Exec("DELETE FROM t WHERE id >= 50 AND id < 250"); err != nil {
		t.Fatal(err)
	}
	if len(tbl.ids) == 300 || tbl.dead == 0 {
		t.Fatalf("%d slots, %d tombstones: want some rows compacted away and some tombstoned", len(tbl.ids), tbl.dead)
	}
	if err := sess.Rollback(); err != nil {
		t.Fatal(err)
	}
	for s := 1; s < len(tbl.ids); s++ {
		if tbl.ids[s-1] >= tbl.ids[s] {
			t.Fatalf("row IDs out of order at slot %d: %d, %d", s, tbl.ids[s-1], tbl.ids[s])
		}
	}
	for s, id := range tbl.ids {
		if tbl.slots[id] != s {
			t.Fatalf("row %d is in slot %d, the slot map says %d", id, s, tbl.slots[id])
		}
	}
	got, err := db.Query("SELECT id FROM t")
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("scan order after rollback differs (%v)", err)
	}
	if res, err := db.Query("SELECT v FROM t WHERE id = 100"); err != nil || len(res.Rows) != 1 {
		t.Fatalf("index lookup of a restored row = %v, %v", res, err)
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

// TestIteratorConcurrentWriters runs cursors against concurrent inserts,
// updates and deletes; the race detector and the cursor's guarantees are the
// assertions.
func TestIteratorConcurrentWriters(t *testing.T) {
	db, _ := randDB(t, 1, 2000)
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
			var q string
			switch i % 3 {
			case 0:
				q = fmt.Sprintf("INSERT INTO t VALUES (%d, 3, 'w')", 10000+i)
			case 1:
				q = fmt.Sprintf("UPDATE t SET v = %d WHERE id = %d", rng.Intn(20), rng.Intn(2000))
			default:
				q = fmt.Sprintf("DELETE FROM t WHERE id = %d", rng.Intn(2000))
			}
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
				rows, err := db.QueryRows("SELECT id, s FROM t WHERE v >= 0")
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
