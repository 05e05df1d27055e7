package relational

import (
	"fmt"
	"go/ast"
	"go/parser"
	gotoken "go/token"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// oracleSchema is the database of the equivalence tests: two tables with
// NULLs and duplicates, plus an empty table. dno runs 1, 2, 9, 10: its
// numeric order is not the order of its renderings. visit has a DATE column
// and non-ASCII text for LIKE.
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
CREATE TABLE visit (vno INT, day DATE, place VARCHAR(16));
INSERT INTO visit VALUES (1, '1999-03-01', 'Genève');
INSERT INTO visit VALUES (2, '1999-12-24', 'Köln');
INSERT INTO visit VALUES (3, NULL, 'x_%y');
INSERT INTO visit VALUES (4, '2000-01-01', NULL);
INSERT INTO visit VALUES (NULL, '1999-03-15', 'Gent');
`

// checkSameResult runs one query on the executor and on the row oracle
// (oracle_test.go) and requires byte-identical Results, or errors from both
// (messages may differ: the two evaluate in different orders, so only error
// presence is part of the contract).
func checkSameResult(t *testing.T, db *Database, q string) {
	t.Helper()
	rv, errV := db.Query(q)
	rr, errR := db.oracleQuery(q)
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
	db := NewDatabase("oracle", DialectOracle)
	if _, err := db.ExecScript(oracleSchema); err != nil {
		t.Fatal(err)
	}
	corpus := []string{
		// Plain scans, projection, literals, t.*.
		"SELECT * FROM emp",
		"SELECT emp.* FROM emp",
		"SELECT e.* FROM emp e",
		"SELECT eno, ename FROM emp",
		"SELECT * FROM void",
		"SELECT 1, 'x', -2, -2.5, TRUE",
		// Filters: comparisons either way round, 3VL, LIKE, IN.
		"SELECT eno FROM emp WHERE sal > 90",
		"SELECT eno FROM emp WHERE 90 < sal",
		"SELECT eno FROM emp WHERE sal > 80 AND dno = 1",
		"SELECT eno FROM emp WHERE ename LIKE '%a%'",
		"SELECT eno FROM emp WHERE ename LIKE '_ob'",
		// LIKE over a column: a prefix pattern (literal text then one %) and
		// others, on TEXT, INT, FLOAT and DATE columns, with NULLs; _ is one
		// character of non-ASCII text.
		"SELECT eno FROM emp WHERE ename LIKE 'ca%'",
		"SELECT eno FROM emp WHERE note LIKE 'lo%'",
		"SELECT eno FROM emp WHERE ename LIKE '%'",
		"SELECT eno FROM emp WHERE note LIKE ''",
		"SELECT eno FROM emp WHERE ename LIKE 'a_%'",
		"SELECT eno FROM emp WHERE ename LIKE '%e'",
		"SELECT eno, sal LIKE '9%' FROM emp",
		"SELECT eno FROM emp WHERE sal LIKE '1_0'",
		"SELECT eno FROM emp WHERE dno LIKE '1%'",
		"SELECT dno FROM dept WHERE budget LIKE '100.%'",
		"SELECT eno FROM emp WHERE ename LIKE NULL",
		"SELECT eno FROM emp WHERE 'carol' LIKE ename",
		"SELECT vno FROM visit WHERE day LIKE '1999-%'",
		"SELECT vno FROM visit WHERE day LIKE '%-01'",
		"SELECT vno FROM visit WHERE place LIKE 'Gen_ve'",
		"SELECT vno FROM visit WHERE place LIKE 'K_ln%'",
		"SELECT vno FROM visit WHERE place LIKE 'Gen%'",
		"SELECT vno FROM visit WHERE place LIKE 'x_%'",
		"SELECT vno FROM visit WHERE place LIKE '%%y'",
		"SELECT vno FROM visit WHERE vno LIKE '_' AND place LIKE '%e%'",
		"SELECT eno FROM emp WHERE dno IN (1, 2)",
		"SELECT eno FROM emp WHERE sal = NULL",
		"SELECT x FROM void WHERE x > 0",
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
		"SELECT note, COUNT(DISTINCT dno) FROM emp GROUP BY note",
		// ORDER BY: column, alias, ordinal, DESC, multiple keys.
		"SELECT eno FROM emp ORDER BY sal",
		"SELECT eno FROM emp ORDER BY sal DESC, eno",
		"SELECT eno, sal AS pay FROM emp ORDER BY pay DESC",
		"SELECT eno, sal FROM emp ORDER BY 2, 1",
		"SELECT ename FROM emp ORDER BY note, ename",
		// LIMIT, on plans that stream (over slots and over an index lookup)
		// and on blocking ones.
		"SELECT eno FROM emp ORDER BY eno LIMIT 3",
		"SELECT eno FROM emp LIMIT 3",
		"SELECT eno FROM emp LIMIT 0",
		"SELECT eno, ename FROM emp WHERE sal > 80 LIMIT 2",
		"SELECT eno FROM emp WHERE sal >= 0 LIMIT 9",
		"SELECT eno FROM emp WHERE dno = 1 LIMIT 1",
		"SELECT eno FROM emp WHERE dno = 1 AND eno <> 10 LIMIT 2",
		"SELECT dno, COUNT(*) FROM emp GROUP BY dno LIMIT 1",
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
		"SELECT eno FROM emp WHERE dno > 5 AND dno < 3",
		"SELECT eno FROM emp WHERE eno > 11 AND eno < 11",
		"SELECT eno FROM emp WHERE dno >= 1 AND dno <= 2",
		"SELECT eno FROM emp WHERE dno >= 2 AND dno <= 1",
		"SELECT eno FROM emp WHERE 12 <= eno AND 1 < dno",
		"SELECT eno FROM emp WHERE dno IN (2, 1, 2, 1.0)",
		"SELECT eno FROM emp WHERE dno IN (2, NULL)",
		"SELECT eno FROM emp WHERE dno IN (NULL)",
		"SELECT eno FROM emp WHERE dno IN (-1, 1)",
		"SELECT eno FROM emp WHERE dno IN (1, '2')",
		"SELECT eno FROM emp WHERE note IN ('locum', 'temp', 'locum')",
		"SELECT eno FROM emp WHERE dno >= 1 AND dno < 9 AND dno IN (1, 9, 2)",
		"SELECT eno FROM emp WHERE eno >= 10 AND eno <= 13 AND dno IN (2, 9)",
		"SELECT dno, COUNT(*) FROM emp WHERE dno IN (1, 2) GROUP BY dno",
		// Grouped output: HAVING on an aggregate the select list lacks, ORDER
		// BY an aggregate, an alias and an ordinal, aggregates compared in
		// items and HAVING, and groups over the empty table (one group
		// without GROUP BY, whose columns read NULL; none with it).
		"SELECT dno FROM emp GROUP BY dno HAVING COUNT(*) > 1",
		"SELECT dno FROM emp GROUP BY dno HAVING MAX(sal) >= 95 AND MIN(eno) > 10",
		"SELECT dno, COUNT(*) FROM emp GROUP BY dno ORDER BY COUNT(*) DESC, dno",
		"SELECT dno FROM emp GROUP BY dno ORDER BY AVG(sal)",
		"SELECT dno, SUM(sal) AS total FROM emp GROUP BY dno ORDER BY total",
		"SELECT note, COUNT(*) AS n FROM emp GROUP BY note ORDER BY n, note",
		"SELECT dno, MAX(sal) FROM emp GROUP BY dno ORDER BY 2 DESC, 1",
		"SELECT MAX(sal) > 100, MIN(sal) IN (70, 90), 1 < COUNT(*) FROM emp",
		"SELECT dno FROM emp GROUP BY dno HAVING SUM(sal) IN (210, 110)",
		"SELECT COUNT(DISTINCT dno), SUM(DISTINCT sal) FROM emp",
		"SELECT x, y, COUNT(*), SUM(x), MIN(y), AVG(x) FROM void",
		"SELECT x, COUNT(*) FROM void GROUP BY x",
		"SELECT COUNT(*) FROM void HAVING COUNT(*) = 0",
		"SELECT dno, COUNT(*) FROM emp GROUP BY dno HAVING COUNT(*) > 5 ORDER BY 9",
		"SELECT dno, COUNT(*) FROM emp GROUP BY dno HAVING COUNT(*) > 1 ORDER BY 9",
		"SELECT dno FROM emp GROUP BY dno ORDER BY 0",
		"SELECT dno FROM emp GROUP BY dno ORDER BY -1",
		"SELECT dno, SUM(note) FROM emp GROUP BY dno",
		// Errors must surface from both engines (unknown column, aggregate
		// misuse, bad ordinal).
		"SELECT nosuch FROM emp",
		"SELECT e.eno FROM emp",
		"SELECT eno FROM emp WHERE SUM(sal) > 0",
		"SELECT eno FROM emp ORDER BY 9",
		"SELECT eno FROM emp ORDER BY 0",
		"SELECT eno FROM emp ORDER BY -1",
	}
	for _, q := range corpus {
		checkSameResult(t, db, q)
	}
}

// TestNamesResolveAtOpen: an unknown column or a misplaced aggregate fails
// the open, whatever the rows: on an empty table, and behind a conjunct no row
// passes. Opening the iterator, Query and the row oracle fail with one
// message, the plan's.
func TestNamesResolveAtOpen(t *testing.T) {
	db := NewDatabase("names", DialectOracle)
	if _, err := db.ExecScript(`CREATE TABLE r (k INT, v INT); CREATE TABLE void (k INT, v INT);
		INSERT INTO r VALUES (1, 10), (2, 20)`); err != nil {
		t.Fatal(err)
	}
	for q, want := range map[string]string{
		"SELECT nosuch FROM void":                          "unknown column nosuch",
		"SELECT k FROM r WHERE v > 1000000 AND nosuch = 1": "unknown column nosuch",
		"SELECT k FROM void WHERE SUM(v) > 0":              "aggregate SUM used outside aggregation context",
	} {
		_, openErr := db.QueryRows(q)
		_, queryErr := db.Query(q)
		_, oracleErr := db.oracleQuery(q)
		if openErr == nil || queryErr == nil || oracleErr == nil {
			t.Errorf("%q: open %v, Query %v, oracle %v; want all three to fail", q, openErr, queryErr, oracleErr)
			continue
		}
		if !strings.Contains(openErr.Error(), want) || queryErr.Error() != openErr.Error() || oracleErr.Error() != openErr.Error() {
			t.Errorf("%q: open %q, Query %q, oracle %q; want one message saying %q", q, openErr, queryErr, oracleErr, want)
		}
	}
}

// TestVecMatchesRowRandom cross-checks the engines over randomly generated
// filter/group/order combinations on a randomly populated table.
func TestVecMatchesRowRandom(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase("oracle", DialectOracle)
		if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, v INT, w FLOAT, s VARCHAR(8))"); err != nil {
			t.Fatal(err)
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
			if _, err := db.Exec("INSERT INTO t VALUES " + val); err != nil {
				t.Fatal(err)
			}
		}
		ops := []string{"=", "<>", "<", "<=", ">", ">="}
		for i := 0; i < 40; i++ {
			pred := fmt.Sprintf("v %s %d", ops[rng.Intn(len(ops))], rng.Intn(10))
			if rng.Intn(2) == 0 {
				pred = fmt.Sprintf("%s AND w %s %d.5", pred, ops[rng.Intn(len(ops))], rng.Intn(10))
			}
			var q string
			switch rng.Intn(3) {
			case 0:
				q = fmt.Sprintf("SELECT id, v, s FROM t WHERE %s ORDER BY id", pred)
			case 1:
				q = fmt.Sprintf("SELECT s, COUNT(*), SUM(v), AVG(w) FROM t WHERE %s GROUP BY s ORDER BY s", pred)
			default:
				q = fmt.Sprintf("SELECT id, w FROM t WHERE %s ORDER BY w DESC, id LIMIT %d", pred, rng.Intn(10))
			}
			checkSameResult(t, db, q)
		}
	}
}

// TestOracleSharesNoExecutor: the row oracle's files name nothing the
// executor evaluates with — no declaration of compile.go (the compiled
// expressions), no walk and no operator over its relations. Were the oracle
// to share them, the tests above would compare the executor with itself.
func TestOracleSharesNoExecutor(t *testing.T) {
	forbidden := map[string]bool{
		"newWalk": true, "scanWalk": true, "relWalk": true, "heldWalk": true,
		"vecRel": true, "rowsRel": true, "sortVec": true, "sortRel": true,
		"execGroupedVec": true,
	}
	fset := gotoken.NewFileSet()
	compiled, err := parser.ParseFile(fset, "compile.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range compiled.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil { // a method is named through its receiver
				forbidden[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					forbidden[s.Name.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						forbidden[n.Name] = true
					}
				}
			}
		}
	}
	if !forbidden["compileExpr"] || !forbidden["vexpr"] || !forbidden["vInList"] {
		t.Fatal("compile.go no longer declares compileExpr, vexpr and vInList")
	}
	for _, name := range []string{"oracle_test.go", "exec_oracle_test.go"} {
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && forbidden[id.Name] {
				t.Errorf("%s: the row oracle names the executor's %s", fset.Position(id.Pos()), id.Name)
			}
			return true
		})
	}
}
