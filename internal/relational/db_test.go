package relational

import (
	"reflect"
	"strings"
	"testing"
)

// mustExec runs a statement and fails the test on error.
func mustExec(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Exec(sql)
	if err != nil {
		t.Fatalf("Exec(%s): %v", sql, err)
	}
	return res
}

func mustQuery(t *testing.T, db *Database, sql string) *Result {
	t.Helper()
	res, err := db.Query(sql)
	if err != nil {
		t.Fatalf("Query(%s): %v", sql, err)
	}
	return res
}

// newPatientsDB builds a database with the paper's Royal Brisbane Hospital
// Patient relation (§2.2) and a few rows.
func newPatientsDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("RBH", DialectOracle)
	mustExec(t, db, `CREATE TABLE Patient (
		Patient_Id INT PRIMARY KEY,
		Name VARCHAR(64) NOT NULL,
		Date_Of_Birth DATE,
		Gender VARCHAR(1),
		Address VARCHAR(128))`)
	mustExec(t, db, `INSERT INTO Patient VALUES
		(1, 'Alice Howe', '1961-04-02', 'F', '12 Wickham Tce'),
		(2, 'Bob Tran', '1974-09-13', 'M', '3 Boundary St'),
		(3, 'Carol Ng', '1980-01-30', 'F', NULL),
		(4, 'Dan Park', '1955-07-21', 'M', '77 Ann St')`)
	return db
}

func TestCreateInsertSelect(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT Name, Gender FROM Patient ORDER BY Patient_Id")
	if len(res.Rows) != 4 {
		t.Fatalf("got %d rows, want 4", len(res.Rows))
	}
	if res.Columns[0] != "Name" || res.Columns[1] != "Gender" {
		t.Fatalf("bad columns %v", res.Columns)
	}
	if res.Rows[0][0].Str != "Alice Howe" {
		t.Errorf("row 0 = %v", res.Rows[0])
	}
}

func TestSelectStar(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT * FROM Patient WHERE Patient_Id = 2")
	if len(res.Rows) != 1 || len(res.Columns) != 5 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
	if res.Rows[0][1].Str != "Bob Tran" {
		t.Errorf("got %v", res.Rows[0])
	}
}

func TestWherePredicates(t *testing.T) {
	db := newPatientsDB(t)
	cases := []struct {
		where string
		want  int
	}{
		{"Gender = 'F'", 2},
		{"Gender <> 'F'", 2},
		{"Patient_Id > 2", 2},
		{"Patient_Id >= 2 AND Gender = 'M'", 2},
		{"Name LIKE 'A%'", 1},
		{"Name LIKE '%a%'", 3},
		{"Name LIKE '_ob%'", 1},
		{"Patient_Id IN (1, 3, 99)", 2},
		{"Patient_Id IN (1, 3, NULL)", 2},
		{"Patient_Id > -1", 4},
		{"'F' = Gender", 2},
		{"Date_Of_Birth < '1970-01-01'", 2},
	}
	for _, c := range cases {
		res := mustQuery(t, db, "SELECT Patient_Id FROM Patient WHERE "+c.where)
		if len(res.Rows) != c.want {
			t.Errorf("WHERE %s: got %d rows, want %d", c.where, len(res.Rows), c.want)
		}
	}
}

func TestNullComparisonsFilterOut(t *testing.T) {
	db := newPatientsDB(t)
	// Address = NULL is UNKNOWN for every row, so nothing matches.
	res := mustQuery(t, db, "SELECT * FROM Patient WHERE Address = NULL")
	if len(res.Rows) != 0 {
		t.Errorf("NULL equality matched %d rows", len(res.Rows))
	}
}

// TestOrderLimitOffset: ORDER BY and LIMIT page through a result with the
// offset taken as a key bound (OFFSET itself is refused): the page after
// 'Dan Park', in descending order.
func TestOrderLimitOffset(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT Name FROM Patient WHERE Name < 'Dan Park' ORDER BY Name DESC LIMIT 2")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d rows", len(res.Rows))
	}
	if res.Rows[0][0].Str != "Carol Ng" || res.Rows[1][0].Str != "Bob Tran" {
		t.Errorf("got %v / %v", res.Rows[0][0], res.Rows[1][0])
	}
}

func TestOrderByAlias(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT Patient_Id AS score FROM Patient ORDER BY score DESC LIMIT 1")
	if res.Rows[0][0].Int != 4 {
		t.Errorf("got %v", res.Rows[0][0])
	}
}

func TestAggregates(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT COUNT(*), COUNT(Address), MIN(Patient_Id), MAX(Patient_Id), SUM(Patient_Id), AVG(Patient_Id) FROM Patient")
	row := res.Rows[0]
	if row[0].Int != 4 || row[1].Int != 3 {
		t.Errorf("counts: %v %v", row[0], row[1])
	}
	if row[2].Int != 1 || row[3].Int != 4 || row[4].Int != 10 {
		t.Errorf("min/max/sum: %v %v %v", row[2], row[3], row[4])
	}
	if row[5].Float != 2.5 {
		t.Errorf("avg: %v", row[5])
	}
}

func TestGroupByHaving(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT Gender, COUNT(*) AS n FROM Patient GROUP BY Gender ORDER BY Gender")
	if len(res.Rows) != 2 {
		t.Fatalf("got %d groups", len(res.Rows))
	}
	if res.Rows[0][0].Str != "F" || res.Rows[0][1].Int != 2 {
		t.Errorf("group F: %v", res.Rows[0])
	}
	res = mustQuery(t, db, "SELECT Gender FROM Patient GROUP BY Gender HAVING COUNT(*) > 1 ORDER BY Gender")
	if len(res.Rows) != 2 {
		t.Errorf("having: got %d", len(res.Rows))
	}
	res = mustQuery(t, db, "SELECT Gender FROM Patient GROUP BY Gender HAVING MIN(Patient_Id) = 1")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "F" {
		t.Errorf("having min: %v", res.Rows)
	}
}

func TestCountOnEmptyTable(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE empty (x INT)")
	res := mustQuery(t, db, "SELECT COUNT(*), SUM(x) FROM empty")
	if len(res.Rows) != 1 {
		t.Fatalf("aggregate over empty table must yield one row, got %d", len(res.Rows))
	}
	if res.Rows[0][0].Int != 0 || !res.Rows[0][1].Null {
		t.Errorf("got %v", res.Rows[0])
	}
}

func TestPrimaryKeyViolation(t *testing.T) {
	db := newPatientsDB(t)
	if _, err := db.Exec("INSERT INTO Patient VALUES (1, 'Dup', NULL, 'F', NULL)"); err == nil {
		t.Fatal("duplicate primary key accepted")
	}
}

func TestNotNullViolation(t *testing.T) {
	db := newPatientsDB(t)
	if _, err := db.Exec("INSERT INTO Patient (Patient_Id) VALUES (9)"); err == nil {
		t.Fatal("NOT NULL violation accepted")
	}
}

func TestVarcharLimit(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE s (v VARCHAR(3))")
	if _, err := db.Exec("INSERT INTO s VALUES ('abcd')"); err == nil {
		t.Fatal("oversize VARCHAR accepted")
	}
	mustExec(t, db, "INSERT INTO s VALUES ('abc')")
}

func TestInsertColumnSubset(t *testing.T) {
	db := newPatientsDB(t)
	mustExec(t, db, "INSERT INTO Patient (Patient_Id, Name) VALUES (5, 'Eve Liu')")
	res := mustQuery(t, db, "SELECT Address FROM Patient WHERE Patient_Id = 5")
	if !res.Rows[0][0].Null {
		t.Errorf("unspecified column not NULL: %v", res.Rows[0][0])
	}
}

// TestInsertValuesComputed: VALUES expressions are evaluated (a negative
// literal, a NULL, an IN list, a conjunction), and a VALUES list whose third
// row names a column, which VALUES do not have, inserts none of its rows.
func TestInsertValuesComputed(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE r (k INT PRIMARY KEY, v FLOAT, b BOOLEAN)")
	mustExec(t, db, "INSERT INTO r VALUES (-7, 3.5, 1 IN (2, 1)), (5, NULL, TRUE AND FALSE)")
	res := mustQuery(t, db, "SELECT k, v, b FROM r")
	want := []Row{
		{IntValue(-7), FloatValue(3.5), BoolValue(true)},
		{IntValue(5), NullValue(), BoolValue(false)},
	}
	if !reflect.DeepEqual(res.Rows, want) {
		t.Fatalf("got %v, want %v", res.Rows, want)
	}
	if _, err := db.Exec("INSERT INTO r VALUES (10, 1.0, TRUE), (11, 2.0, TRUE), (12, 1.0, k), (13, 4.0, TRUE)"); err == nil ||
		!strings.Contains(err.Error(), "unknown column k") {
		t.Fatalf("a VALUES row naming a column: %v", err)
	}
	if res := mustQuery(t, db, "SELECT COUNT(*) FROM r"); res.Rows[0][0].Int != 2 {
		t.Fatalf("a failed VALUES list left %d rows, want 2", res.Rows[0][0].Int)
	}
}

func TestSecondaryIndexAndLookup(t *testing.T) {
	db := newPatientsDB(t)
	mustExec(t, db, "CREATE INDEX idx_gender ON Patient (Gender)")
	res := mustQuery(t, db, "SELECT COUNT(*) FROM Patient WHERE Gender = 'F'")
	if res.Rows[0][0].Int != 2 {
		t.Errorf("index lookup: %v", res.Rows[0][0])
	}
}

func TestUniqueIndex(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE u (a INT, b VARCHAR(8))")
	mustExec(t, db, "INSERT INTO u VALUES (1, 'x'), (2, 'y')")
	mustExec(t, db, "CREATE UNIQUE INDEX ub ON u (b)")
	if _, err := db.Exec("INSERT INTO u VALUES (3, 'x')"); err == nil {
		t.Fatal("unique index violation accepted")
	}
	// Creating a unique index over duplicate data must fail.
	mustExec(t, db, "CREATE TABLE d (a INT)")
	mustExec(t, db, "INSERT INTO d VALUES (1), (1)")
	if _, err := db.Exec("CREATE UNIQUE INDEX da ON d (a)"); err == nil {
		t.Fatal("unique index over duplicates accepted")
	}
}

func TestDialectGating(t *testing.T) {
	msql := NewDatabase("m", DialectMSQL)
	mustExec(t, msql, "CREATE TABLE t (a INT)")
	mustExec(t, msql, "INSERT INTO t VALUES (1), (2)")
	if _, err := msql.Query("SELECT COUNT(*) FROM t"); err == nil {
		t.Error("mSQL accepted an aggregate")
	} else if !strings.Contains(err.Error(), "mSQL") {
		t.Errorf("error does not name the dialect: %v", err)
	}
	if _, err := msql.Query("SELECT a FROM t GROUP BY a"); err == nil {
		t.Error("mSQL accepted GROUP BY")
	}
	// mSQL 2.x had neither standard LIKE nor literal IN lists, in a WHERE
	// clause or a select item.
	for _, q := range []string{
		"SELECT a FROM t WHERE a LIKE '1%'",
		"SELECT a LIKE '1%' FROM t",
		"SELECT a FROM t WHERE a IN (1, 2)",
		"SELECT a IN (1, 2) FROM t",
	} {
		if _, err := msql.Query(q); err == nil || !strings.Contains(err.Error(), "mSQL") {
			t.Errorf("mSQL %q: %v", q, err)
		}
	}
	// Oracle accepts all of these.
	ora := NewDatabase("o", DialectOracle)
	mustExec(t, ora, "CREATE TABLE t (a INT)")
	if _, err := ora.Query("SELECT COUNT(*) FROM t"); err != nil {
		t.Errorf("Oracle rejected aggregate: %v", err)
	}
}

// TestDialectGatesOrderBy: the mSQL gate walks ORDER BY keys as it walks the
// WHERE clause and the select items, so a LIKE or an IN list there is refused
// too, and a plain ORDER BY still runs.
func TestDialectGatesOrderBy(t *testing.T) {
	msql := NewDatabase("m", DialectMSQL)
	mustExec(t, msql, "CREATE TABLE r (k VARCHAR(8), v INT)")
	mustExec(t, msql, "INSERT INTO r VALUES ('a1', 1), ('b2', 2)")
	for _, q := range []string{
		"SELECT k FROM r ORDER BY k LIKE 'a%'",
		"SELECT k FROM r ORDER BY v IN (1, 2)",
	} {
		if res, err := msql.Query(q); err == nil || !strings.Contains(err.Error(), "mSQL") {
			t.Errorf("mSQL %q: %v, %v", q, res, err)
		}
	}
	if res, err := msql.Query("SELECT k FROM r ORDER BY v DESC"); err != nil || len(res.Rows) != 2 || res.Rows[0][0].Str != "b2" {
		t.Errorf("mSQL plain ORDER BY: %v, %v", res, err)
	}
}

// TestCompositePrimaryKey: a table-level PRIMARY KEY over two columns refuses
// a duplicate pair and admits pairs that share one column.
func TestCompositePrimaryKey(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE v (a INT, b VARCHAR(4), PRIMARY KEY (a, b))")
	mustExec(t, db, "INSERT INTO v VALUES (1, 'x'), (1, 'y'), (2, 'x')")
	if _, err := db.Exec("INSERT INTO v VALUES (1, 'y')"); err == nil || !strings.Contains(err.Error(), "primary key") {
		t.Fatalf("duplicate composite key: %v", err)
	}
	if _, err := db.Exec("CREATE TABLE w (a INT, PRIMARY KEY (nope))"); err == nil {
		t.Error("primary key over an unknown column accepted")
	}
	res := mustQuery(t, db, "SELECT COUNT(*) FROM v")
	if res.Rows[0][0].Int != 3 {
		t.Errorf("count = %v", res.Rows[0][0])
	}
}

// TestCatalog: the catalog names what the load script created, CREATE TABLE
// IF NOT EXISTS leaves an existing table as it is, dialects resolve by
// vendor name, and Query admits reads only.
func TestCatalog(t *testing.T) {
	db := newPatientsDB(t)
	mustExec(t, db, "CREATE TABLE Alpha (a INT)")
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS Patient (x INT)")
	if got := db.TableNames(); !reflect.DeepEqual(got, []string{"Alpha", "Patient"}) {
		t.Errorf("tables = %v", got)
	}
	if tbl, ok := db.Table("patient"); !ok || len(tbl.Schema().Columns) != 5 {
		t.Errorf("Patient after IF NOT EXISTS: %v", ok)
	}
	if db.Name() != "RBH" || db.Dialect().Name != "Oracle" {
		t.Errorf("database %s, dialect %s", db.Name(), db.Dialect().Name)
	}
	for _, name := range []string{"Oracle", "mSQL", "DB2", "Sybase"} {
		if d, err := DialectByName(name); err != nil || d.Name != name {
			t.Errorf("DialectByName(%s) = %v, %v", name, d.Name, err)
		}
	}
	if _, err := DialectByName("FoxPro"); err == nil {
		t.Error("unknown dialect resolved")
	}
	if _, err := db.Query("INSERT INTO Alpha VALUES (1)"); err == nil || !strings.Contains(err.Error(), "INSERT") {
		t.Errorf("Query of an INSERT: %v", err)
	}
}

func TestDialectVarcharCap(t *testing.T) {
	msql := NewDatabase("m", DialectMSQL)
	if _, err := msql.Exec("CREATE TABLE big (v VARCHAR(1000))"); err == nil {
		t.Error("mSQL accepted VARCHAR(1000)")
	}
}

func TestParseErrors(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	bad := []string{
		"",
		"SELEC * FROM x",
		"SELECT FROM x",
		"SELECT * FROM",
		"INSERT INTO",
		"CREATE TABLE t (a BADTYPE)",
		"SELECT * FROM t WHERE",
		"SELECT unknownfunc(1)",
		"SELECT 'unterminated",
	}
	for _, sql := range bad {
		if _, err := db.Exec(sql); err == nil {
			t.Errorf("no error for %q", sql)
		}
	}
}

func TestUnknownColumnAndTableErrors(t *testing.T) {
	db := newPatientsDB(t)
	if _, err := db.Query("SELECT nope FROM Patient"); err == nil {
		t.Error("unknown column accepted")
	}
	if _, err := db.Query("SELECT * FROM missing"); err == nil {
		t.Error("unknown table accepted")
	}
	if _, err := db.Query("SELECT Patient.Name FROM Patient p"); err == nil {
		t.Error("original table name usable despite alias")
	}
}

func TestCaseInsensitivity(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "select NAME from PATIENT where patient_id = 1")
	if res.Rows[0][0].Str != "Alice Howe" {
		t.Errorf("case-insensitive lookup failed: %v", res.Rows[0])
	}
}

func TestEscapedQuote(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE q (s VARCHAR(32))")
	mustExec(t, db, "INSERT INTO q VALUES ('O''Brien')")
	res := mustQuery(t, db, "SELECT s FROM q WHERE s = 'O''Brien'")
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "O'Brien" {
		t.Errorf("got %v", res.Rows)
	}
}

func TestResultFormat(t *testing.T) {
	db := newPatientsDB(t)
	res := mustQuery(t, db, "SELECT Patient_Id, Name FROM Patient WHERE Patient_Id = 1")
	text := res.Format()
	if !strings.Contains(text, "Alice Howe") || !strings.Contains(text, "Patient_Id") {
		t.Errorf("format output:\n%s", text)
	}
	if !strings.Contains(text, "(1 row(s))") {
		t.Errorf("missing row count:\n%s", text)
	}
}

func TestDateValidation(t *testing.T) {
	db := newPatientsDB(t)
	if _, err := db.Exec("INSERT INTO Patient VALUES (7, 'X', 'Jan 1 1990', 'F', NULL)"); err == nil {
		t.Error("malformed date accepted")
	}
}

func TestExecScript(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	res, err := db.ExecScript(`
		CREATE TABLE s (a INT);
		INSERT INTO s VALUES (1);
		INSERT INTO s VALUES (2);
		SELECT COUNT(*) FROM s;
	`)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0].Int != 2 {
		t.Errorf("script result %v", res.Rows[0][0])
	}
}

func TestSelectWithoutFrom(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	res := mustQuery(t, db, "SELECT 42 AS answer")
	if res.Columns[0] != "answer" || res.Rows[0][0].Int != 42 {
		t.Errorf("got %v %v", res.Columns, res.Rows)
	}
}

func TestAggregateDistinct(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE v (x INT)")
	mustExec(t, db, "INSERT INTO v VALUES (1), (1), (2), (NULL)")
	res := mustQuery(t, db, "SELECT COUNT(DISTINCT x), SUM(DISTINCT x) FROM v")
	if res.Rows[0][0].Int != 2 || res.Rows[0][1].Int != 3 {
		t.Errorf("distinct aggregates: %v", res.Rows[0])
	}
}

func newOrdersDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase("shop", DialectOracle)
	if _, err := db.ExecScript(`
		CREATE TABLE customers (id INT PRIMARY KEY, name VARCHAR(32), city VARCHAR(32));
		CREATE TABLE orders (id INT PRIMARY KEY, customer_id INT, total FLOAT);
		INSERT INTO customers VALUES
			(1, 'Ada', 'Brisbane'), (2, 'Ben', 'Cairns'), (3, 'Cho', 'Brisbane');
		INSERT INTO orders VALUES
			(10, 1, 99.5), (11, 1, 12.0), (12, 3, 40.0);
	`); err != nil {
		t.Fatal(err)
	}
	return db
}

func TestOrdinalOrderByPlain(t *testing.T) {
	db := newOrdersDB(t)
	res := mustQuery(t, db, "SELECT name, id FROM customers ORDER BY 2 DESC")
	if res.Rows[0][0].Str != "Cho" {
		t.Fatalf("rows = %v", res.Rows)
	}
	if _, err := db.Query("SELECT name FROM customers ORDER BY 5"); err == nil {
		t.Error("out-of-range ordinal accepted")
	}
}

// TestOrdinalOrderByCheckedAtOpen: an ORDER BY ordinal out of range is a
// statement error whatever the rows, so an empty table refuses it as a full
// one does, for a grouped SELECT too, and a cursor fails at open.
func TestOrdinalOrderByCheckedAtOpen(t *testing.T) {
	db := NewDatabase("E", DialectOracle)
	if _, err := db.ExecScript("CREATE TABLE e (k INT, v INT);"); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT k FROM e ORDER BY 9",
		"SELECT k FROM e ORDER BY 0",
		"SELECT k, COUNT(*) FROM e GROUP BY k ORDER BY 3",
	} {
		if _, err := db.Query(q); err == nil || !strings.Contains(err.Error(), "ordinal") {
			t.Errorf("%s on an empty table = %v, want the ordinal out of range", q, err)
		}
		if _, err := db.oracleQuery(q); err == nil || !strings.Contains(err.Error(), "ordinal") {
			t.Errorf("oracle: %s on an empty table = %v, want the ordinal out of range", q, err)
		}
		if rows, err := db.QueryRows(q); err == nil {
			rows.Close()
			t.Errorf("%s opened a cursor on an empty table", q)
		}
	}
}

// TestRemovedSyntaxIsRefused: SQL the federation never sends (DESIGN §9) is
// not executed but refused, with an error that names the construct. What a
// fragment sends is kept: a conjunction of a column against a literal and of
// IN lists of literals (CREATE TABLE's NOT NULL and IF NOT EXISTS stay too).
func TestRemovedSyntaxIsRefused(t *testing.T) {
	db := NewDatabase("t", DialectOracle)
	mustExec(t, db, "CREATE TABLE r (k VARCHAR(8), v INT)")
	mustExec(t, db, "INSERT INTO r VALUES ('a', 1), ('b', 2)")
	for _, c := range []struct{ sql, construct string }{
		{"SELECT a.k FROM r a JOIN r b ON a.k = b.k", "JOIN"},
		{"SELECT a.k FROM r a, r b", "comma-separated FROM"},
		{"SELECT k FROM r UNION SELECT k FROM r", "UNION"},
		{"SELECT k FROM r WHERE k IN (SELECT k FROM r)", "subquery"},
		{"SELECT k FROM r WHERE EXISTS (SELECT k FROM r)", "EXISTS"},
		{"SELECT k FROM r WHERE v BETWEEN 1 AND 2", "BETWEEN"},
		{"SELECT v + 1 FROM r", "arithmetic (+)"},
		{"SELECT UPPER(k) FROM r", "function UPPER"},
		{"SELECT DISTINCT k FROM r", "DISTINCT"},
		{"SELECT k FROM r WHERE v = 1 OR v = 2", "OR"},
		{"SELECT k FROM r WHERE NOT v = 1", "NOT"},
		{"SELECT k FROM r WHERE k NOT LIKE 'a%'", "NOT LIKE"},
		{"SELECT k FROM r WHERE v NOT IN (1, 2)", "NOT IN"},
		{"SELECT k FROM r WHERE k IS NULL", "IS NULL"},
		{"SELECT k FROM r WHERE k IS NOT NULL", "IS NOT NULL"},
		{"SELECT k FROM r WHERE k = v", "a comparison other than a column or an aggregate against a literal (k = v)"},
		{"SELECT k FROM r WHERE 1 = 1", "a comparison other than a column or an aggregate against a literal (1 = 1)"},
		{"SELECT k FROM r WHERE 'a' LIKE 'b'", "LIKE other than a column or an aggregate against a literal"},
		{"SELECT k FROM r WHERE v IN (1, v)", "an IN item that is not a literal (v)"},
		{"SELECT k FROM r LIMIT 1 OFFSET 1", "OFFSET"},
		{"INSERT INTO r SELECT k, v FROM r", "INSERT ... SELECT"},
	} {
		res, err := db.Query(c.sql)
		if err == nil {
			t.Errorf("%s: executed, %d rows", c.sql, len(res.Rows))
			continue
		}
		if !strings.Contains(err.Error(), c.construct) || !strings.Contains(err.Error(), "not supported") {
			t.Errorf("%s: error %q does not say %s is not supported", c.sql, err, c.construct)
		}
	}
	mustExec(t, db, "CREATE TABLE IF NOT EXISTS s (k VARCHAR(8) NOT NULL)")
	if res := mustQuery(t, db, "SELECT k FROM r WHERE 2 > v AND k LIKE 'a%' AND v IN (1, NULL) LIMIT 1"); len(res.Rows) != 1 {
		t.Errorf("the kept conjunction: %d rows, want 1", len(res.Rows))
	}
}
