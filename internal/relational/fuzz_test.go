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
// must be a hit returning an identical statement list — and executed, every
// SELECT also on the row oracle, which must agree with the executor on error
// presence and, when both succeed, on the result. Every
// read the executor runs is also drained through its iterator a page of 1 and
// of 7 rows at a time, which must yield Query's rows or fail where Query does:
// the walk is the only read path, so its resume logic is fuzzed too. A
// statement that opens with a write the engine does not have (UPDATE, DELETE,
// DROP and transaction control) must be refused by the parser, and so must
// every seed marked refused.
func FuzzSQLParse(f *testing.F) {
	// Seeds in syntax the engine does not have (joins, UNION, BETWEEN,
	// arithmetic, DISTINCT, OR, NOT, IS NULL, comparisons that are not a
	// column against a literal, IN items that are not literals, OFFSET and
	// INSERT ... SELECT) are refusals: they must fail to parse.
	refused := map[string]bool{}
	refuse := func(src string) string {
		refused[src] = true
		return src
	}
	seeds := []string{
		"CREATE TABLE Patient (Id INT PRIMARY KEY, Name VARCHAR(64), Gender CHAR(1))",
		"CREATE INDEX idx_gender ON Patient (Gender)",
		"INSERT INTO Patient VALUES (1, 'Alice Howe', 'F')",
		"INSERT INTO Patient (Id, Name) VALUES (2, 'Bob Tran')",
		"SELECT Name FROM Patient WHERE Gender = 'F' ORDER BY Name",
		"SELECT COUNT(*) FROM Patient GROUP BY Gender HAVING COUNT(*) > 1",
		refuse("SELECT p.Name, h.Note FROM Patient p JOIN History h ON p.Id = h.PatientId"),
		refuse("SELECT * FROM Patient WHERE Name LIKE 'A%' AND Id BETWEEN 1 AND 9"),
		`CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);
		INSERT INTO r VALUES ('a', 0);`,
		// Plan-cache round trips that cross a schema change.
		"SELECT a, b FROM f; CREATE TABLE g (x INT); SELECT a, b FROM f",
		refuse("SELECT v FROM f WHERE a IN (1, 2) UNION SELECT v FROM f"),
		"SELECT a, SUM(b) FROM f GROUP BY a ORDER BY 2 DESC LIMIT 3",
		refuse("SELECT x.a, y.a FROM f x LEFT JOIN f y ON x.a = y.b WHERE x.b / 2 > 0"),
		// Streaming plans under a LIMIT.
		refuse("SELECT b / (a - 2) FROM f LIMIT 1"),
		refuse("SELECT a FROM f WHERE 1 / (a - 2) < 0 LIMIT 1"),
		refuse("SELECT v FROM f WHERE a > 0 LIMIT 2 OFFSET 1"),
		refuse("SELECT DISTINCT b FROM f LIMIT 1"),
		refuse("SELECT x.a FROM f x JOIN f y ON x.a = y.a WHERE 1 / (x.a - 2) <> y.b LIMIT 1"),
		refuse("CREATE INDEX fa ON f (a); SELECT v FROM f WHERE a = 2 AND 1 / (a - 2) > 0 LIMIT 1"),
		// Index ranges and IN probes, with bounds of other kinds.
		refuse("CREATE INDEX fa ON f (a); SELECT v FROM f WHERE a > 1 AND a <= 3.5 AND 1 / (a - 1) > 0"),
		refuse("CREATE INDEX fb ON f (b); SELECT a FROM f WHERE b IN (2, NULL, 2.0) OR b BETWEEN '1' AND 3"),
		refuse("SELECT a FROM f WHERE 1 = 1 LIMIT 2 OFFSET 1"),
		// IN lists with items that are not literals, grouped output, empty
		// groups and computed VALUES.
		refuse("SELECT a FROM f WHERE b IN (a, NULL, 1 / (a - 2))"),
		refuse("SELECT a FROM f WHERE a IN (2, 1 / (a - 2)) OR a NOT IN (b, a + 0)"),
		refuse("SELECT a, b NOT IN (a + 1, v) FROM f"),
		"SELECT b, COUNT(*) FROM f GROUP BY b HAVING MAX(a) > 1 ORDER BY COUNT(*) DESC, 1",
		"SELECT b, SUM(a) AS s FROM f GROUP BY b ORDER BY s",
		"SELECT a, COUNT(*), MIN(v) FROM f WHERE a > 5",
		"SELECT a, COUNT(*) FROM f WHERE a > 5 GROUP BY a",
		"SELECT b FROM f GROUP BY b HAVING COUNT(*) > 9 ORDER BY 7",
		refuse("CREATE TABLE g (x INT, y INT); INSERT INTO g VALUES (1 + 2, 3 * 4); INSERT INTO g SELECT a, b FROM f WHERE a IN (b, 3); SELECT x, SUM(y) FROM g GROUP BY x"),
		// Malformed shapes the parser must reject gracefully.
		"SELECT FROM",
		"INSERT Patient",
		"CREATE TABLE (",
		"SELECT 'unterminated",
		"",
		";;;",
		// Writes a loaded table never takes.
		"UPDATE Patient SET Name = 'X' WHERE Id = 1",
		"DELETE FROM Patient WHERE Address IS NULL",
		"DROP TABLE Patient",
		"BEGIN",
		"COMMIT",
		"ROLLBACK",
		// Refused, with their kept counterparts below.
		refuse("SELECT a <> 2 OR NOT v FROM f LIMIT 1"),
		refuse("SELECT a FROM f WHERE a <> 2 OR NOT v LIMIT 1"),
		refuse("CREATE INDEX fa ON f (a); SELECT v FROM f WHERE a = 2 AND (a <> 2 OR NOT v) LIMIT 1"),
		refuse("CREATE INDEX fb ON f (b); SELECT a FROM f WHERE b IN (2, NULL, 2.0) OR b >= '1' AND b <= 3"),
		refuse("SELECT a FROM f WHERE b IN (a, NULL, a <> 2 OR NOT v) AND a > -1"),
		refuse("CREATE TABLE g (x INT, y INT); INSERT INTO g VALUES (-3, 12); INSERT INTO g SELECT a, b FROM f WHERE a IN (b, 3); SELECT x, SUM(y) FROM g GROUP BY x"),
		// The refusals' kept counterparts: conjunctions of a column against a
		// literal and of literal IN lists, LIMIT and INSERT ... VALUES.
		"SELECT v FROM f WHERE a > 0 LIMIT 2",
		"SELECT a FROM f WHERE v LIKE '%' LIMIT 2",
		"SELECT a <> 2 FROM f LIMIT 1",
		"SELECT a FROM f WHERE a <> 2 AND v <> 'x' LIMIT 1",
		"CREATE INDEX fa ON f (a); SELECT v FROM f WHERE a = 2 AND a <> 3 LIMIT 1",
		"CREATE INDEX fb ON f (b); SELECT a FROM f WHERE b IN (2, NULL, 2.0) AND b >= '1' AND b <= 3",
		"SELECT a FROM f WHERE b IN (1, NULL, 2) AND a > -1 AND 3 > a",
		"CREATE TABLE g (x INT, y INT); INSERT INTO g VALUES (-3, 12), (2, 3); SELECT x, SUM(y) FROM g WHERE x IN (2, 3) GROUP BY x",
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
		if words := strings.Fields(strings.ToUpper(src)); err == nil && len(words) > 0 && retired[words[0]] {
			t.Fatalf("ParseSQLScript(%q) accepted a %s statement", src, words[0])
		}
		if err == nil && refused[src] {
			t.Fatalf("ParseSQLScript(%q) accepted syntax the engine does not have", src)
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

		// Differential execution: the script over a tiny schema, every read
		// also on the row oracle, which must agree with the executor on
		// error presence and on the result.
		const schema = `
CREATE TABLE f (a INT, b INT, v VARCHAR(8));
INSERT INTO f VALUES (1, 2, 'x');
INSERT INTO f VALUES (2, NULL, 'y');
INSERT INTO f VALUES (3, 2, NULL);
`
		if _, err := vec.ExecScript(schema); err != nil {
			t.Fatal(err)
		}
		execPaged(t, vec, src)
	})
}

// retired is the statement keywords the parser refuses at the start of a
// statement: the engine's tables are loaded, then only read.
var retired = map[string]bool{"UPDATE": true, "DELETE": true, "DROP": true, "BEGIN": true, "COMMIT": true, "ROLLBACK": true}

// execPaged is ExecScript on db, up to the first statement that fails,
// except that every SELECT and EXPLAIN is also drained through QueryRows'
// iterator at pages of 1 and 7 rows, which must agree with the statement's
// result (or fail where it fails), and every SELECT is also run on the row
// oracle, which must agree with the executor.
func execPaged(t *testing.T, db *Database, src string) {
	stmts, err := db.parseCached(src)
	if err != nil {
		return
	}
	for _, stmt := range stmts {
		if s, ok := stmt.(*SelectStmt); ok {
			checkOracleStmt(t, db, src, s)
		}
		last, err := db.ExecStmt(stmt)
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
			return
		}
	}
}

// checkOracleStmt runs one SELECT of the script src on the executor and on
// the row oracle, which must agree on error presence and on the result.
func checkOracleStmt(t *testing.T, db *Database, src string, s *SelectStmt) {
	rv, errV := db.ExecStmt(s)
	rr, errR := db.oracleStmt(s)
	if (errV != nil) != (errR != nil) {
		t.Fatalf("engines disagree on error for %q:\n  vec: %v\n  row: %v", src, errV, errR)
	}
	if errV == nil && !reflect.DeepEqual(rv, rr) {
		t.Fatalf("engines disagree on result for %q:\nvec: %+v\nrow: %+v", src, rv, rr)
	}
}
