package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// oracleSchema is shared by both engines in the equivalence tests: two
// joinable tables with NULLs and duplicates, plus an empty table. dno runs
// 1, 2, 9, 10: its numeric order is not the order of its renderings.
const oracleSchema = `
CREATE TABLE dept (dno INT PRIMARY KEY, dname VARCHAR(16), budget FLOAT);
CREATE TABLE emp (eno INT PRIMARY KEY, ename VARCHAR(16), dno INT, sal INT, note VARCHAR(16));
CREATE TABLE void (x INT, y VARCHAR(8));
CREATE INDEX emp_dno ON emp (dno);
INSERT INTO dept VALUES (1, 'surgery', 100.5);
INSERT INTO dept VALUES (2, 'radiology', 80.25);
INSERT INTO dept VALUES (3, 'archive', NULL);
INSERT INTO emp VALUES (10, 'alice', 1, 120, 'senior');
INSERT INTO emp VALUES (11, 'bob', 1, 90, NULL);
INSERT INTO emp VALUES (12, 'carol', 2, 90, 'locum');
INSERT INTO emp VALUES (13, 'dave', NULL, 70, 'temp');
INSERT INTO emp VALUES (14, 'erin', 9, 110, 'visiting');
INSERT INTO emp VALUES (15, 'Frank', 2, NULL, 'locum');
INSERT INTO emp VALUES (16, 'gus', 10, 95, NULL);
`

// newOraclePair builds two identically-populated databases, the first on the
// batched columnar executor and the second forced onto the seed row-at-a-time
// interpreter.
func newOraclePair(t testing.TB) (*Database, *Database) {
	t.Helper()
	vec := NewDatabase("vec", DialectOracle)
	row := NewDatabase("row", DialectOracle)
	row.rowExec = true
	for _, db := range []*Database{vec, row} {
		if _, err := db.ExecScript(oracleSchema); err != nil {
			t.Fatal(err)
		}
	}
	return vec, row
}

// checkSameResult runs one query on both engines and requires byte-identical
// Results, or errors from both (messages may differ: the engines evaluate in
// different orders, so only error presence is part of the contract).
func checkSameResult(t *testing.T, vec, row *Database, q string) {
	t.Helper()
	rv, errV := vec.Query(q)
	rr, errR := row.Query(q)
	if (errV != nil) != (errR != nil) {
		t.Fatalf("engines disagree on error for %q:\n  vec: %v\n  row: %v", q, errV, errR)
	}
	if errV != nil {
		return
	}
	if !reflect.DeepEqual(rv, rr) {
		t.Fatalf("engines disagree for %q:\nvec:\n%s\nrow:\n%s", q, rv.Format(), rr.Format())
	}
}

// TestVecMatchesRowOracle drives both executors over a corpus covering every
// SELECT shape the engine supports and requires identical results.
func TestVecMatchesRowOracle(t *testing.T) {
	vec, row := newOraclePair(t)
	corpus := []string{
		// Plain scans, projection, expressions, t.*.
		"SELECT * FROM emp",
		"SELECT emp.* FROM emp",
		"SELECT eno, ename FROM emp",
		"SELECT eno + 1, sal * 2, ename || '!' FROM emp",
		"SELECT * FROM void",
		"SELECT 1 + 2, 'x' || 'y'",
		"SELECT DISTINCT note FROM emp",
		"SELECT DISTINCT dno, note FROM emp",
		// Filters: comparisons, 3VL, LIKE, IN, BETWEEN, IS [NOT] NULL.
		"SELECT eno FROM emp WHERE sal > 90",
		"SELECT eno FROM emp WHERE 90 < sal",
		"SELECT eno FROM emp WHERE sal > 80 AND dno = 1",
		"SELECT eno FROM emp WHERE sal > 100 OR note = 'locum'",
		"SELECT eno FROM emp WHERE NOT sal > 90",
		"SELECT eno FROM emp WHERE ename LIKE '%a%'",
		"SELECT eno FROM emp WHERE ename LIKE '_ob'",
		"SELECT eno FROM emp WHERE dno IN (1, 2)",
		"SELECT eno FROM emp WHERE dno IN (1, sal - 89)",
		"SELECT eno FROM emp WHERE sal BETWEEN 80 AND 110",
		"SELECT eno FROM emp WHERE note IS NULL",
		"SELECT eno FROM emp WHERE note IS NOT NULL",
		"SELECT eno FROM emp WHERE sal IS NULL AND note IS NOT NULL",
		"SELECT eno FROM emp WHERE sal = NULL",
		"SELECT x FROM void WHERE x > 0",
		// Scalar functions.
		"SELECT UPPER(ename), LOWER(note) FROM emp",
		"SELECT LENGTH(ename) FROM emp WHERE LENGTH(ename) > 3",
		"SELECT ABS(0 - sal), ROUND(sal / 7.0) FROM emp",
		"SELECT COALESCE(note, 'none'), SUBSTR(ename, 1, 2) FROM emp",
		// Joins: comma, INNER (hash + non-equi nested), LEFT, CROSS.
		"SELECT ename, dname FROM emp, dept WHERE emp.dno = dept.dno",
		"SELECT ename, dname FROM emp JOIN dept ON emp.dno = dept.dno",
		"SELECT e.ename, d.dname FROM emp e INNER JOIN dept d ON e.dno = d.dno",
		"SELECT e.ename, d.dname FROM emp e LEFT JOIN dept d ON e.dno = d.dno",
		"SELECT e.ename, d.dname FROM emp e LEFT JOIN dept d ON e.dno = d.dno AND d.budget > 90",
		"SELECT e.ename, d.dname FROM emp e JOIN dept d ON e.sal > d.budget",
		"SELECT e.ename, d.dname FROM emp e CROSS JOIN dept d",
		"SELECT e.ename, v.x FROM emp e LEFT JOIN void v ON e.eno = v.x",
		"SELECT a.eno, b.eno FROM emp a JOIN emp b ON a.dno = b.dno WHERE a.eno < b.eno",
		"SELECT ename, dname FROM emp JOIN dept ON emp.dno = dept.dno WHERE sal >= 90 ORDER BY ename",
		// Aggregates and grouping.
		"SELECT COUNT(*) FROM emp",
		"SELECT COUNT(*) FROM void",
		"SELECT COUNT(note), COUNT(DISTINCT note) FROM emp",
		"SELECT SUM(sal), AVG(sal), MIN(sal), MAX(sal) FROM emp",
		"SELECT SUM(budget), AVG(budget) FROM dept",
		"SELECT SUM(sal) FROM void",
		"SELECT dno, COUNT(*), SUM(sal) FROM emp GROUP BY dno",
		"SELECT dno, COUNT(*) FROM emp GROUP BY dno HAVING COUNT(*) > 1",
		"SELECT note, MIN(sal), MAX(sal) FROM emp GROUP BY note ORDER BY note",
		"SELECT dno, AVG(sal) FROM emp GROUP BY dno HAVING AVG(sal) >= 90 ORDER BY dno",
		"SELECT d.dname, COUNT(*) FROM emp e JOIN dept d ON e.dno = d.dno GROUP BY d.dname",
		"SELECT dno + 0, COUNT(DISTINCT note) FROM emp GROUP BY dno + 0",
		// ORDER BY: column, alias, ordinal, DESC, multiple keys.
		"SELECT eno FROM emp ORDER BY sal",
		"SELECT eno FROM emp ORDER BY sal DESC, eno",
		"SELECT eno, sal AS pay FROM emp ORDER BY pay DESC",
		"SELECT eno, sal FROM emp ORDER BY 2, 1",
		"SELECT ename FROM emp ORDER BY LENGTH(ename), ename",
		// LIMIT/OFFSET and DISTINCT composition.
		"SELECT eno FROM emp ORDER BY eno LIMIT 3",
		"SELECT eno FROM emp ORDER BY eno LIMIT 2 OFFSET 3",
		"SELECT DISTINCT note FROM emp ORDER BY note LIMIT 2",
		// LIMIT/OFFSET on plans that stream stop the scan: a row it never
		// reaches cannot fail the statement, on either engine.
		"SELECT eno FROM emp LIMIT 3",
		"SELECT eno, ename FROM emp WHERE sal > 80 LIMIT 2 OFFSET 1",
		"SELECT eno FROM emp LIMIT 0",
		"SELECT eno FROM emp WHERE sal >= 0 LIMIT 9 OFFSET 4",
		"SELECT 1 / (eno - 12) FROM emp LIMIT 2",
		"SELECT 1 / (eno - 12) FROM emp LIMIT 3",
		"SELECT 1 / (eno - 10) FROM emp LIMIT 2 OFFSET 1",
		"SELECT eno FROM emp WHERE 1 / (eno - 12) < 0 LIMIT 2",
		"SELECT eno FROM emp WHERE 1 / (eno - 12) < 0 LIMIT 3",
		"SELECT eno FROM emp WHERE 1 / (eno - 14) < 0 LIMIT 9 OFFSET 3",
		// The same rule on every walk: over a join, over an index lookup,
		// with a residual conjunct that names no table. A blocking operator
		// (DISTINCT, ORDER BY) evaluates its whole input whatever the LIMIT.
		"SELECT 1 / (e.eno - 12) FROM emp e JOIN dept d ON e.dno = d.dno LIMIT 2",
		"SELECT 1 / (e.eno - 12) FROM emp e JOIN dept d ON e.dno = d.dno LIMIT 3",
		"SELECT e.eno FROM emp e JOIN dept d ON e.dno = d.dno WHERE 1 / (e.eno - 12) <> d.budget LIMIT 2",
		"SELECT e.eno FROM emp e JOIN dept d ON e.dno = d.dno WHERE 1 / (e.eno - 12) <> d.budget LIMIT 3",
		"SELECT e.eno FROM emp e, dept d WHERE e.dno = d.dno AND 1 / (e.eno - 12) <> 0 LIMIT 1", // a join side is drained whole
		"SELECT eno FROM emp WHERE 1 = 1 LIMIT 2",
		"SELECT eno FROM emp WHERE 1 = 1 AND 1 / (eno - 12) < 0 LIMIT 1",
		"SELECT eno FROM emp WHERE 1 = 1 AND 1 / (eno - 12) < 0 LIMIT 2",
		"SELECT eno FROM emp WHERE 1 = 0",
		"SELECT eno FROM emp WHERE dno = 1 AND 1 / (eno - 11) < 0 LIMIT 1",
		"SELECT eno FROM emp WHERE dno = 1 AND 1 / (eno - 11) < 0 LIMIT 2",
		"SELECT eno FROM emp WHERE 1 / (eno - 11) < 0 AND dno = 1 LIMIT 1",
		"SELECT 1 / (eno - 11) FROM emp WHERE dno = 1 LIMIT 1",
		"SELECT 1 / (eno - 11) FROM emp WHERE dno = 1 LIMIT 1 OFFSET 1",
		"SELECT eno FROM emp WHERE dno = 2 OR eno = 10",
		"SELECT DISTINCT note FROM emp LIMIT 2",
		"SELECT DISTINCT dno FROM emp LIMIT 2 OFFSET 1",
		"SELECT DISTINCT 1 / (eno - 15) FROM emp LIMIT 1",
		"SELECT 1 / (eno - 15) FROM emp ORDER BY eno LIMIT 1",
		"SELECT dno, COUNT(*) FROM emp GROUP BY dno LIMIT 1 OFFSET 1",
		"SELECT DISTINCT dno FROM emp UNION ALL SELECT dno FROM dept LIMIT 4",
		// Index ranges and IN probes (eno is the primary key, dno has an
		// index and a NULL): bounds in the column's order seek, the others
		// (a text bound on an INT column compares by rendering) do not.
		"SELECT eno FROM emp WHERE dno < 1.5",
		"SELECT eno FROM emp WHERE eno > 12.5 AND eno <= 14",
		"SELECT eno FROM emp WHERE dno > -1",
		"SELECT eno FROM emp WHERE dno >= '10'",
		"SELECT eno FROM emp WHERE dno < '2'",
		"SELECT eno FROM emp WHERE eno >= '13'",
		"SELECT eno FROM emp WHERE dno = '1'",
		"SELECT eno FROM emp WHERE dno >= 0",
		"SELECT eno FROM emp WHERE dno < 9 OR dno IS NULL",
		"SELECT eno FROM emp WHERE dno > 5 AND dno < 3",
		"SELECT eno FROM emp WHERE eno > 11 AND eno < 11",
		"SELECT eno FROM emp WHERE dno BETWEEN 1 AND 2",
		"SELECT eno FROM emp WHERE dno BETWEEN 2 AND 1",
		"SELECT eno FROM emp WHERE eno NOT BETWEEN 11 AND 13",
		"SELECT eno FROM emp WHERE 12 <= eno AND 1 < dno",
		"SELECT eno FROM emp WHERE dno IN (2, 1, 2, 1.0)",
		"SELECT eno FROM emp WHERE dno IN (2, NULL)",
		"SELECT eno FROM emp WHERE dno IN (NULL)",
		"SELECT eno FROM emp WHERE dno NOT IN (1, NULL)",
		"SELECT eno FROM emp WHERE dno NOT IN (1, 9)",
		"SELECT eno FROM emp WHERE dno IN (1, '2')",
		"SELECT eno FROM emp WHERE note IN ('locum', 'temp', 'locum')",
		"SELECT eno FROM emp WHERE dno >= 1 AND dno < 9 AND dno IN (1, 9, 2)",
		"SELECT eno FROM emp WHERE eno BETWEEN 10 AND 13 AND dno IN (2, 9)",
		"SELECT eno FROM emp WHERE dno > 1 AND 1 / (eno - 12) < 0",
		"SELECT eno FROM emp WHERE 1 / (eno - 12) < 0 AND eno BETWEEN 10 AND 11",
		"SELECT eno FROM emp WHERE 1 / (eno - 12) < 0 AND dno IN (1, 9)",
		"SELECT 1 / (eno - 12) FROM emp WHERE eno >= 10 LIMIT 2",
		"SELECT e.ename, d.dname FROM emp e JOIN dept d ON e.dno = d.dno WHERE e.eno > 11 AND d.dno < 3",
		"SELECT dno, COUNT(*) FROM emp WHERE dno IN (1, 2) GROUP BY dno",
		// UNION / UNION ALL.
		"SELECT eno FROM emp WHERE sal > 100 UNION ALL SELECT eno FROM emp WHERE note = 'locum'",
		"SELECT dno FROM emp UNION SELECT dno FROM dept",
		"SELECT x FROM void UNION SELECT eno FROM emp WHERE sal > 115",
		// Subqueries.
		"SELECT ename FROM emp WHERE dno IN (SELECT dno FROM dept WHERE budget > 90)",
		"SELECT ename FROM emp WHERE dno NOT IN (SELECT dno FROM dept)",
		"SELECT ename FROM emp WHERE sal > (SELECT AVG(sal) FROM emp)",
		"SELECT ename FROM emp WHERE EXISTS (SELECT * FROM void)",
		"SELECT ename FROM emp WHERE NOT EXISTS (SELECT * FROM void)",
		// Errors must surface from both engines (division by zero, unknown
		// column, aggregate misuse, bad ordinal).
		"SELECT sal / 0 FROM emp",
		"SELECT sal % 0 FROM emp",
		"SELECT 1 / 0 FROM void",
		"SELECT nosuch FROM emp",
		"SELECT eno FROM emp WHERE SUM(sal) > 0",
		"SELECT eno FROM emp ORDER BY 9",
	}
	for _, q := range corpus {
		checkSameResult(t, vec, row, q)
	}
}

// TestVecMatchesRowRandom cross-checks the engines over randomly generated
// filter/group/order combinations on a randomly populated table.
func TestVecMatchesRowRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		vec := NewDatabase("vec", DialectOracle)
		row := NewDatabase("row", DialectOracle)
		row.rowExec = true
		for _, db := range []*Database{vec, row} {
			if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT, w FLOAT, s VARCHAR(8))"); err != nil {
				t.Fatal(err)
			}
		}
		n := 20 + rng.Intn(60)
		for i := 0; i < n; i++ {
			v := rng.Intn(10)
			var val string
			if rng.Intn(8) == 0 {
				val = fmt.Sprintf("(%d, NULL, %d.5, 's%d')", i, v, v%4)
			} else {
				val = fmt.Sprintf("(%d, %d, %d.5, 's%d')", i, v, rng.Intn(10), v%4)
			}
			q := "INSERT INTO t VALUES " + val
			for _, db := range []*Database{vec, row} {
				if _, err := db.Exec(q); err != nil {
					t.Fatal(err)
				}
			}
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		for i := 0; i < 40; i++ {
			pred := fmt.Sprintf("v %s %d", ops[rng.Intn(len(ops))], rng.Intn(10))
			if rng.Intn(2) == 0 {
				pred = fmt.Sprintf("%s %s w %s %d.5", pred,
					[]string{"AND", "OR"}[rng.Intn(2)], ops[rng.Intn(len(ops))], rng.Intn(10))
			}
			var q string
			switch rng.Intn(3) {
			case 0:
				q = fmt.Sprintf("SELECT id, v, s FROM t WHERE %s ORDER BY id", pred)
			case 1:
				q = fmt.Sprintf("SELECT s, COUNT(*), SUM(v), AVG(w) FROM t WHERE %s GROUP BY s ORDER BY s", pred)
			default:
				q = fmt.Sprintf("SELECT a.id, b.id FROM t a JOIN t b ON a.v = b.v WHERE a.v %s %d AND a.id < b.id ORDER BY a.id, b.id",
					ops[rng.Intn(len(ops))], rng.Intn(10))
			}
			checkSameResult(t, vec, row, q)
		}
	}
}
