package relational

import (
	"strings"
	"testing"
)

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

func TestInSubquery(t *testing.T) {
	db := newOrdersDB(t)
	res := mustQuery(t, db, `SELECT name FROM customers
		WHERE id IN (SELECT customer_id FROM orders WHERE total > 30) ORDER BY name`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "Ada" || res.Rows[1][0].Str != "Cho" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// NOT IN.
	res = mustQuery(t, db, `SELECT name FROM customers
		WHERE id NOT IN (SELECT customer_id FROM orders) ORDER BY name`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Ben" {
		t.Fatalf("not-in rows = %v", res.Rows)
	}
	// Multi-column subquery is rejected.
	if _, err := db.Query("SELECT name FROM customers WHERE id IN (SELECT id, customer_id FROM orders)"); err == nil {
		t.Error("multi-column IN subquery accepted")
	}
}

func TestExistsSubquery(t *testing.T) {
	db := newOrdersDB(t)
	res := mustQuery(t, db, `SELECT COUNT(*) FROM customers WHERE EXISTS (SELECT 1 FROM orders WHERE total > 90)`)
	if res.Rows[0][0].Int != 3 {
		t.Errorf("exists-true count = %v", res.Rows[0][0])
	}
	res = mustQuery(t, db, `SELECT COUNT(*) FROM customers WHERE EXISTS (SELECT 1 FROM orders WHERE total > 900)`)
	if res.Rows[0][0].Int != 0 {
		t.Errorf("exists-false count = %v", res.Rows[0][0])
	}
	res = mustQuery(t, db, `SELECT COUNT(*) FROM customers WHERE NOT EXISTS (SELECT 1 FROM orders WHERE total > 900)`)
	if res.Rows[0][0].Int != 3 {
		t.Errorf("not-exists count = %v", res.Rows[0][0])
	}
}

// TestSubqueryInDML: INSERT ... SELECT, the one statement that writes, loads
// exactly the rows an IN subquery in its WHERE admits.
func TestSubqueryInDML(t *testing.T) {
	db := newOrdersDB(t)
	mustExec(t, db, "CREATE TABLE small_spenders (name VARCHAR(32))")
	res := mustExec(t, db, `INSERT INTO small_spenders SELECT name FROM customers
		WHERE id IN (SELECT customer_id FROM orders WHERE total < 50)`)
	if res.RowsAffected != 2 {
		t.Fatalf("insert affected %d", res.RowsAffected)
	}
	res = mustQuery(t, db, "SELECT name FROM small_spenders ORDER BY name")
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "Ada" || res.Rows[1][0].Str != "Cho" {
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestNestedSubquery(t *testing.T) {
	db := newOrdersDB(t)
	res := mustQuery(t, db, `SELECT name FROM customers WHERE id IN (
		SELECT customer_id FROM orders WHERE customer_id IN (
			SELECT id FROM customers WHERE city = 'Brisbane')) ORDER BY name`)
	if len(res.Rows) != 2 {
		t.Fatalf("nested rows = %v", res.Rows)
	}
}

func TestUnion(t *testing.T) {
	db := newOrdersDB(t)
	res := mustQuery(t, db, `SELECT city FROM customers WHERE id = 1
		UNION SELECT city FROM customers WHERE id = 3`)
	if len(res.Rows) != 1 || res.Rows[0][0].Str != "Brisbane" {
		t.Fatalf("union dedupe rows = %v", res.Rows)
	}
	res = mustQuery(t, db, `SELECT city FROM customers WHERE id = 1
		UNION ALL SELECT city FROM customers WHERE id = 3`)
	if len(res.Rows) != 2 {
		t.Fatalf("union all rows = %v", res.Rows)
	}
	// Three arms with combined ORDER BY and LIMIT.
	res = mustQuery(t, db, `SELECT name FROM customers WHERE id = 2
		UNION SELECT name FROM customers WHERE id = 1
		UNION SELECT name FROM customers WHERE id = 3
		ORDER BY name DESC LIMIT 2`)
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "Cho" || res.Rows[1][0].Str != "Ben" {
		t.Fatalf("union order/limit = %v", res.Rows)
	}
	// Ordinal ORDER BY over a union.
	res = mustQuery(t, db, `SELECT name, id FROM customers WHERE id <= 2
		UNION SELECT name, id FROM customers WHERE id = 3
		ORDER BY 2 DESC`)
	if res.Rows[0][1].Int != 3 {
		t.Fatalf("ordinal order = %v", res.Rows)
	}
	// Mismatched arm widths.
	if _, err := db.Query("SELECT id FROM customers UNION SELECT id, name FROM customers"); err == nil {
		t.Error("mismatched union widths accepted")
	}
	// Bad ORDER BY column on a union.
	if _, err := db.Query("SELECT id FROM customers UNION SELECT id FROM customers ORDER BY nope"); err == nil {
		t.Error("unknown union order column accepted")
	}
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

func TestExplain(t *testing.T) {
	db := newOrdersDB(t)
	mustExec(t, db, "CREATE INDEX idx_city ON customers (city)")
	res := mustQuery(t, db, `EXPLAIN SELECT c.name, COUNT(*) FROM customers c
		JOIN orders o ON c.id = o.customer_id
		WHERE c.city = 'Brisbane'
		GROUP BY c.name ORDER BY c.name LIMIT 5`)
	text := ""
	for _, row := range res.Rows {
		text += row[0].Str + "\n"
	}
	for _, want := range []string{
		"limit 5", "sort by c.name", "aggregate group by c.name",
		"hash join on", "index lookup idx_city(city)", "seq scan orders",
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
	// A filter that names no table is the walk's too: the plan still streams.
	res = mustQuery(t, db, "EXPLAIN SELECT name FROM customers WHERE 1 = 1 LIMIT 2")
	joined = ""
	for _, r := range res.Rows {
		joined += r[0].Str + "\n"
	}
	if !strings.Contains(joined, "rows streamed from customers") || !strings.Contains(joined, "seq scan customers filter (1 = 1)") {
		t.Errorf("residual-only plan:\n%s", joined)
	}
	// EXPLAIN names the index source, or the slot walk when the index would
	// yield more than a share of the table.
	big := indexedDB(t, 2000)
	for q, want := range map[string]string{
		"SELECT k FROM r WHERE v >= 100 AND v < 172":         "index range r_v(v) [100, 172) r filter",
		"SELECT k FROM r WHERE v BETWEEN 7 AND 9 AND v > 7":  "index range r_v(v) (7, 9] r filter",
		"SELECT k FROM r WHERE v < 20":                       "index range r_v(v) (-inf, 20) r filter",
		"SELECT k FROM r WHERE v IN (5, 6, 7, 5) AND v >= 0": "index probe r_v(v) IN 3 keys r filter",
		"SELECT k FROM r WHERE v = 117 AND v > 0":            "index lookup r_v(v) r filter",
		"SELECT k FROM r WHERE k >= 'x1990'":                 "index range pk_r(k) ['x1990', inf) r filter",
		"SELECT k FROM r WHERE v >= 5":                       "seq scan r filter",
		"SELECT k FROM r WHERE v >= '5'":                     "seq scan r filter",
		"SELECT k FROM r WHERE v IN (5, 'x')":                "seq scan r filter",
		"SELECT k FROM r WHERE v + 0 = 117":                  "seq scan r filter",
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

func TestDialectGatesSubqueriesAndUnion(t *testing.T) {
	db := NewDatabase("m", DialectMSQL)
	mustExec(t, db, "CREATE TABLE t (a INT)")
	if _, err := db.Query("SELECT a FROM t WHERE a IN (SELECT a FROM t)"); err == nil ||
		!strings.Contains(err.Error(), "mSQL") {
		t.Errorf("mSQL subquery error = %v", err)
	}
	if _, err := db.Query("SELECT a FROM t UNION SELECT a FROM t"); err == nil ||
		!strings.Contains(err.Error(), "mSQL") {
		t.Errorf("mSQL union error = %v", err)
	}
	ora := newOrdersDB(t)
	if _, err := ora.Query("SELECT id FROM customers UNION SELECT id FROM orders"); err != nil {
		t.Errorf("Oracle union rejected: %v", err)
	}
}
