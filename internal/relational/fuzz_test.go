package relational

import (
	"reflect"
	"strings"
	"testing"
)

// FuzzSQLParse feeds arbitrary SQL text to the statement and script parsers:
// any input must produce statements or an error, never a panic, and a script
// parse must never half-succeed (statements alongside an error). Successful
// parses are then round-tripped through the plan cache — the second fetch
// must be a hit returning an identical statement list — and executed on both
// the batched and the row-at-a-time engine, which must agree on error
// presence and, when both succeed, on the result. Every read the batched
// engine runs is also drained through its iterator a page of 1 and of 7 rows
// at a time, which must yield Query's rows or fail where Query does: the walk
// is the only read path, so its resume logic is fuzzed too.
func FuzzSQLParse(f *testing.F) {
	seeds := []string{
		"CREATE TABLE Patient (Id INT PRIMARY KEY, Name VARCHAR(64), Gender CHAR(1))",
		"CREATE INDEX idx_gender ON Patient (Gender)",
		"INSERT INTO Patient VALUES (1, 'Alice Howe', 'F')",
		"INSERT INTO Patient (Id, Name) VALUES (2, 'Bob Tran')",
		"SELECT Name FROM Patient WHERE Gender = 'F' ORDER BY Name",
		"SELECT COUNT(*) FROM Patient GROUP BY Gender HAVING COUNT(*) > 1",
		"SELECT p.Name, h.Note FROM Patient p JOIN History h ON p.Id = h.PatientId",
		"UPDATE Patient SET Name = 'X' WHERE Id = 1",
		"DELETE FROM Patient WHERE Address IS NULL",
		"SELECT * FROM Patient WHERE Name LIKE 'A%' AND Id BETWEEN 1 AND 9",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		`CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);
		INSERT INTO r VALUES ('a', 0);`,
		// Plan-cache round trips that cross a schema change.
		"SELECT a, b FROM f; CREATE TABLE g (x INT); SELECT a, b FROM f",
		"SELECT v FROM f WHERE a IN (1, 2) UNION SELECT v FROM f",
		"SELECT a, SUM(b) FROM f GROUP BY a ORDER BY 2 DESC LIMIT 3",
		"SELECT x.a, y.a FROM f x LEFT JOIN f y ON x.a = y.b WHERE x.b / 2 > 0",
		// Streaming plans whose LIMIT or OFFSET decides whether a failing
		// row is reached.
		"SELECT b / (a - 2) FROM f LIMIT 1",
		"SELECT a FROM f WHERE 1 / (a - 2) < 0 LIMIT 1",
		"SELECT v FROM f WHERE a > 0 LIMIT 2 OFFSET 1",
		"SELECT DISTINCT b FROM f LIMIT 1",
		"SELECT x.a FROM f x JOIN f y ON x.a = y.a WHERE 1 / (x.a - 2) <> y.b LIMIT 1",
		"CREATE INDEX fa ON f (a); SELECT v FROM f WHERE a = 2 AND 1 / (a - 2) > 0 LIMIT 1",
		// Index ranges and IN probes, with bounds of other kinds.
		"CREATE INDEX fa ON f (a); SELECT v FROM f WHERE a > 1 AND a <= 3.5 AND 1 / (a - 1) > 0",
		"CREATE INDEX fb ON f (b); SELECT a FROM f WHERE b IN (2, NULL, 2.0) OR b BETWEEN '1' AND 3",
		"SELECT a FROM f WHERE 1 = 1 LIMIT 2 OFFSET 1",
		// Malformed shapes the parser must reject gracefully.
		"SELECT FROM",
		"INSERT Patient",
		"CREATE TABLE (",
		"SELECT 'unterminated",
		"",
		";;;",
	}
	for _, s := range seeds {
		f.Add(s)
	}

	f.Fuzz(func(t *testing.T, src string) {
		if stmt, err := ParseSQL(src); err != nil && stmt != nil {
			t.Fatalf("ParseSQL(%q) returned both statement and error %v", src, err)
		}
		stmts, err := ParseSQLScript(src)
		if err != nil && len(stmts) > 0 {
			t.Fatalf("ParseSQLScript(%q) returned %d statements and error %v", src, len(stmts), err)
		}

		// Plan-cache round trip: parse through the cache, then re-fetch. The
		// second call must be a hit (no DDL ran in between) and return a
		// deeply identical statement list.
		vec := NewDatabase("fuzz-vec", DialectOracle)
		s1, err1 := vec.parseCached(src)
		if (err1 != nil) != (err != nil) {
			t.Fatalf("parseCached(%q) error %v, ParseSQLScript error %v", src, err1, err)
		}
		if err1 != nil {
			return
		}
		pre := vec.PlanCacheStats()
		s2, err2 := vec.parseCached(src)
		if err2 != nil {
			t.Fatalf("re-fetch of cached %q failed: %v", src, err2)
		}
		post := vec.PlanCacheStats()
		if post.Hits != pre.Hits+1 {
			t.Fatalf("re-fetch of %q was not a cache hit: pre %+v post %+v", src, pre, post)
		}
		if !reflect.DeepEqual(s1, s2) {
			t.Fatalf("cache returned a different statement list for %q", src)
		}

		// Differential execution: the same script on the batched and the
		// row-at-a-time engine, over a tiny shared schema, must agree on
		// error presence and on the final result. Gate out inputs whose
		// cartesian cost could explode (many FROM sources / commas / rows):
		// the fuzzer would otherwise discover multi-way cross joins that
		// trip the per-input hang timeout rather than a real bug.
		up := strings.ToUpper(src)
		cost := strings.Count(up, "FROM") + strings.Count(up, "JOIN") + strings.Count(up, ",")
		if len(src) > 300 || cost > 4 {
			return
		}
		row := NewDatabase("fuzz-row", DialectOracle)
		row.rowExec = true
		const schema = `
CREATE TABLE f (a INT, b INT, v VARCHAR(8));
INSERT INTO f VALUES (1, 2, 'x');
INSERT INTO f VALUES (2, NULL, 'y');
INSERT INTO f VALUES (3, 2, NULL);
`
		for _, db := range []*Database{vec, row} {
			if _, err := db.ExecScript(schema); err != nil {
				t.Fatal(err)
			}
		}
		rv, errV := execPaged(t, vec, src)
		rr, errR := row.ExecScript(src)
		if (errV != nil) != (errR != nil) {
			t.Fatalf("engines disagree on error for %q:\n  vec: %v\n  row: %v", src, errV, errR)
		}
		if errV == nil && !reflect.DeepEqual(rv, rr) {
			t.Fatalf("engines disagree on result for %q:\nvec: %+v\nrow: %+v", src, rv, rr)
		}
	})
}

// execPaged is ExecScript on db, except that every SELECT and EXPLAIN is
// also drained through QueryRows' iterator at pages of 1 and 7 rows, which
// must agree with the statement's result (or fail where it fails).
func execPaged(t *testing.T, db *Database, src string) (*Result, error) {
	stmts, err := db.parseCached(src)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, stmt := range stmts {
		last, err = db.ExecStmt(stmt, nil)
		switch stmt.(type) {
		case *SelectStmt, *ExplainStmt:
			for _, page := range []int{1, 7} {
				rows, perr := db.openRows(stmt)
				var got []Row
				if perr == nil {
					got, perr = drainRows(rows, page, nil)
				}
				if (perr != nil) != (err != nil) {
					t.Fatalf("%q at page %d: error %v, Query's %v", src, page, perr, err)
				}
				if err == nil && !reflect.DeepEqual(got, last.Rows) {
					t.Fatalf("%q at page %d: %v, Query's %v", src, page, got, last.Rows)
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}
