package relational

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

// randDB builds a table of n rows with values drawn from a small domain so
// predicates select interesting subsets.
func randDB(t testing.TB, seed int64, n int) (*Database, []int64) {
	t.Helper()
	db := NewDatabase("prop", DialectOracle)
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT, s VARCHAR(8))"); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	vals := make([]int64, n)
	for i := 0; i < n; i++ {
		v := int64(rng.Intn(20))
		vals[i] = v
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d, 's%d')", i, v, v%3)); err != nil {
			t.Fatal(err)
		}
	}
	return db, vals
}

// TestPropCountMatchesInserts: COUNT(*) equals the number of inserted rows.
func TestPropCountMatchesInserts(t *testing.T) {
	f := func(seed int64, size uint8) bool {
		n := int(size%64) + 1
		db, _ := randDB(t, seed, n)
		res, err := db.Query("SELECT COUNT(*) FROM t")
		return err == nil && res.Rows[0][0].Int == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropConjunctionIsIntersection: WHERE a AND b selects exactly the
// intersection of the two predicates.
func TestPropConjunctionIsIntersection(t *testing.T) {
	f := func(seed int64, lo, hi uint8) bool {
		a, b := int64(lo%20), int64(hi%20)
		db, vals := randDB(t, seed, 50)
		res, err := db.Query(fmt.Sprintf(
			"SELECT COUNT(*) FROM t WHERE v >= %d AND v <= %d", a, b))
		if err != nil {
			return false
		}
		want := int64(0)
		for _, v := range vals {
			if v >= a && v <= b {
				want++
			}
		}
		return res.Rows[0][0].Int == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropOrderBySorted: ORDER BY v yields a non-decreasing sequence and
// preserves cardinality.
func TestPropOrderBySorted(t *testing.T) {
	f := func(seed int64) bool {
		db, vals := randDB(t, seed, 40)
		res, err := db.Query("SELECT v FROM t ORDER BY v")
		if err != nil || len(res.Rows) != len(vals) {
			return false
		}
		got := make([]int64, len(res.Rows))
		for i, r := range res.Rows {
			got[i] = r[0].Int
		}
		if !sort.SliceIsSorted(got, func(i, j int) bool { return got[i] < got[j] }) {
			return false
		}
		// Same multiset.
		sort.Slice(vals, func(i, j int) bool { return vals[i] < vals[j] })
		for i := range vals {
			if vals[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropLimitOffsetPagination: paging through with LIMIT, each page's
// offset a key bound past the last id seen (OFFSET itself is refused),
// visits every row exactly once, in order.
func TestPropLimitOffsetPagination(t *testing.T) {
	f := func(seed int64, pageRaw uint8) bool {
		page := int(pageRaw%7) + 1
		db, vals := randDB(t, seed, 30)
		var got []int64
		for last := int64(-1); ; {
			res, err := db.Query(fmt.Sprintf(
				"SELECT id FROM t WHERE id > %d ORDER BY id LIMIT %d", last, page))
			if err != nil || len(res.Rows) > page {
				return false
			}
			if len(res.Rows) == 0 {
				break
			}
			for _, r := range res.Rows {
				got = append(got, r[0].Int)
			}
			last = got[len(got)-1]
		}
		if len(got) != len(vals) {
			return false
		}
		for i, id := range got {
			if id != int64(i) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// TestPropGroupBySumEqualsTotal: the sum of per-group COUNT equals the
// total row count, and per-group sums add up to SUM(v).
func TestPropGroupBySumEqualsTotal(t *testing.T) {
	f := func(seed int64) bool {
		db, vals := randDB(t, seed, 40)
		res, err := db.Query("SELECT s, COUNT(*), SUM(v) FROM t GROUP BY s")
		if err != nil {
			return false
		}
		var count, sum int64
		for _, row := range res.Rows {
			count += row[1].Int
			sum += row[2].Int
		}
		var wantSum int64
		for _, v := range vals {
			wantSum += v
		}
		return count == int64(len(vals)) && sum == wantSum
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// TestPropIndexAgreesWithScan: a point query answered through an index
// returns exactly what a full scan of an unindexed copy of the table returns.
func TestPropIndexAgreesWithScan(t *testing.T) {
	f := func(seed int64, probe uint8) bool {
		v := int64(probe % 20)
		db, vals := randDB(t, seed, 50)
		if _, err := db.ExecScript("CREATE INDEX iv ON t (v); CREATE TABLE u (id INT, v INT)"); err != nil {
			return false
		}
		for i, val := range vals {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO u VALUES (%d, %d)", i, val)); err != nil {
				return false
			}
		}
		// Indexed path (planner picks the index for v = literal).
		r1, err := db.Query(fmt.Sprintf("SELECT id FROM t WHERE v = %d ORDER BY id", v))
		if err != nil {
			return false
		}
		// The same predicate over the copy, which has no index to read.
		r2, err := db.Query(fmt.Sprintf("SELECT id FROM u WHERE v = %d ORDER BY id", v))
		if err != nil {
			return false
		}
		if len(r1.Rows) != len(r2.Rows) {
			return false
		}
		for i := range r1.Rows {
			if r1.Rows[i][0].Int != r2.Rows[i][0].Int {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
