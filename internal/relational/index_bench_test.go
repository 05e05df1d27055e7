package relational

import (
	"fmt"
	"strings"
	"testing"
)

// indexedDB builds the table a federation member holds: r(k PRIMARY KEY, v)
// with an index on v, n rows ('x<i>', i), keys zero-padded so they sort as
// the numbers do.
func indexedDB(t testing.TB, n int) *Database {
	t.Helper()
	db := NewDatabase("members", DialectOracle)
	if _, err := db.ExecScript("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT); CREATE INDEX r_v ON r (v)"); err != nil {
		t.Fatal(err)
	}
	tbl, _ := db.Table("r")
	for i := 0; i < n; i++ {
		if _, err := tbl.insert(Row{TextValue(fmt.Sprintf("x%04d", i)), IntValue(int64(i))}); err != nil {
			t.Fatal(err)
		}
	}
	return db
}

// inList renders n consecutive keys from lo as an IN list.
func inList(lo, n int) string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprint(lo + i)
	}
	return "(" + strings.Join(keys, ", ") + ")"
}

var benchResult *Result

func benchQuery(b *testing.B, db *Database, q string, want int) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := db.Query(q)
		if err != nil || len(res.Rows) != want {
			b.Fatalf("%q: %d rows, %v", q, len(res.Rows), err)
		}
		benchResult = res
	}
}

// BenchmarkSQLRangeSelect is a semi-join probe side's fragment on a member:
// a 72-row window of a 2 000-row table with an index on the windowed column.
func BenchmarkSQLRangeSelect(b *testing.B) {
	benchQuery(b, indexedDB(b, 2000), "SELECT a.k FROM r a WHERE a.v >= 900 AND a.v < 972", 72)
}

// BenchmarkSQLInList is the same window with the semi-join's 20 build keys
// pushed as an IN list, on a column with an index and on one without.
func BenchmarkSQLInList(b *testing.B) {
	q := "SELECT a.k FROM r a WHERE a.v >= 900 AND a.v < 972 AND a.v IN " + inList(930, 20)
	b.Run("indexed", func(b *testing.B) {
		benchQuery(b, indexedDB(b, 2000), q, 20)
	})
	b.Run("unindexed", func(b *testing.B) {
		db := indexedDB(b, 2000)
		if _, err := db.Exec("DROP INDEX r_v"); err != nil {
			b.Fatal(err)
		}
		benchQuery(b, db, q, 20)
	})
}
