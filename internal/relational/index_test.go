package relational

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestIndexAccessMatchesSlotWalk: random conjunctions of equalities, IN
// lists, one- and two-sided ranges over indexed columns — literals of
// the column's kind, of the other numeric kind and of a kind that compares by
// rendering, NULLs, duplicates, empty ranges, unindexable siblings — answer
// on a table with indexes what they answer on the same rows without any (a
// walk over every slot), whether drained at once or a page of 1 or 7 rows at
// a time, and the row oracle agrees on the indexed table.
func TestIndexAccessMatchesSlotWalk(t *testing.T) {
	const schema = "CREATE TABLE t (id INT %s, v INT, w FLOAT, s VARCHAR(8))"
	indexed := 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		idx := NewDatabase("idx", DialectOracle)
		flat := NewDatabase("flat", DialectOracle)
		if _, err := idx.ExecScript(fmt.Sprintf(schema, "PRIMARY KEY") +
			"; CREATE INDEX t_v ON t (v); CREATE INDEX t_w ON t (w); CREATE INDEX t_s ON t (s)"); err != nil {
			t.Fatal(err)
		}
		if _, err := flat.Exec(fmt.Sprintf(schema, "")); err != nil {
			t.Fatal(err)
		}
		all := []*Database{idx, flat}
		exec := func(q string) {
			for _, db := range all {
				if _, err := db.Exec(q); err != nil {
					t.Fatalf("%s: %v", q, err)
				}
			}
		}
		n := 300 + rng.Intn(700)
		for i := 0; i < n; i++ {
			v, w := fmt.Sprint(rng.Intn(40)), fmt.Sprintf("%d.5", rng.Intn(20))
			if rng.Intn(10) == 0 {
				v = "NULL"
			}
			if rng.Intn(10) == 0 {
				w = "NULL"
			}
			exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %s, %s, 's%d')", i, v, w, rng.Intn(7)))
		}

		lit := map[string]func() string{
			"v": func() string {
				return pick(rng, fmt.Sprint(rng.Intn(44)-2), fmt.Sprintf("%d.5", rng.Intn(40)), fmt.Sprintf("'%d'", rng.Intn(40)), "NULL")
			},
			"w": func() string { return pick(rng, fmt.Sprintf("%d.5", rng.Intn(20)), fmt.Sprint(rng.Intn(20)), "'3.5'") },
			"s": func() string { return pick(rng, fmt.Sprintf("'s%d'", rng.Intn(8)), "'s'", "'t'", "3") },
			"id": func() string {
				return pick(rng, fmt.Sprint(rng.Intn(n)), fmt.Sprintf("%d.5", rng.Intn(n)), fmt.Sprintf("'%d'", rng.Intn(n)))
			},
		}
		cols := []string{"v", "v", "w", "s", "id"}
		term := func() string {
			c := cols[rng.Intn(len(cols))]
			switch rng.Intn(7) {
			case 0, 1:
				return fmt.Sprintf("%s %s %s", c, pick(rng, "=", "<", "<=", ">", ">=", "<>"), lit[c]())
			case 2:
				return fmt.Sprintf("%s %s %s", lit[c](), pick(rng, "=", "<", "<=", ">", ">="), c)
			case 3:
				return fmt.Sprintf("%s >= %s AND %s <= %s", c, lit[c](), c, lit[c]())
			case 4, 5:
				items := make([]string, 1+rng.Intn(6))
				for i := range items {
					items[i] = lit[c]()
				}
				if rng.Intn(3) == 0 {
					items = append(items, items[0]) // a duplicate
				}
				return fmt.Sprintf("%s IN (%s)", c, strings.Join(items, ", "))
			}
			return pick(rng, "s LIKE 's%'", "v <> 10", "w = NULL", "'s3' <> s")
		}
		for i := 0; i < 120; i++ {
			terms := make([]string, 1+rng.Intn(3))
			for j := range terms {
				terms[j] = term()
			}
			q := "SELECT id, v, w, s FROM t WHERE " + strings.Join(terms, " AND ")
			if rng.Intn(4) == 0 {
				q += fmt.Sprintf(" LIMIT %d", rng.Intn(30))
			}
			want, err := flat.Query(q)
			if err != nil {
				t.Fatalf("%q: %v", q, err)
			}
			if got, err := idx.Query(q); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d, %q: through the index %v (%v), over every slot %v", seed, q, got, err, want.Rows)
			}
			checkSameResult(t, idx, q)
			for _, page := range []int{1, 7} {
				rows, err := idx.QueryRows(q)
				if err != nil {
					t.Fatal(err)
				}
				if got, err := drainRows(rows, page, nil); err != nil || !reflect.DeepEqual(got, want.Rows) {
					t.Fatalf("seed %d, %q at page %d: %d rows, %d over every slot (%v)", seed, q, page, len(got), len(want.Rows), err)
				}
			}
			plan, err := idx.Query("EXPLAIN " + q)
			if err != nil {
				t.Fatal(err)
			}
			if strings.HasPrefix(plan.Rows[len(plan.Rows)-1][0].Str, "index") {
				indexed++
			}
		}
	}
	if indexed < 80 {
		t.Fatalf("only %d of 480 statements read through an index", indexed)
	}
}

func pick(rng *rand.Rand, options ...string) string { return options[rng.Intn(len(options))] }
