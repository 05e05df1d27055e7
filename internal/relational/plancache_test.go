package relational

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func newCacheDB(t testing.TB) *Database {
	t.Helper()
	db := NewDatabase("pc", DialectOracle)
	script := `
CREATE TABLE t (id INT PRIMARY KEY, v INT);
INSERT INTO t VALUES (1, 10);
INSERT INTO t VALUES (2, 20);
INSERT INTO t VALUES (3, 20);
`
	if _, err := db.ExecScript(script); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestPlanCacheHitOnRepeat: re-issuing the same query text is served from
// the cache, and the cached plan produces the same result.
func TestPlanCacheHitOnRepeat(t *testing.T) {
	db := newCacheDB(t)
	base := db.PlanCacheStats()
	const q = "SELECT v FROM t WHERE id = 2"
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after1 := db.PlanCacheStats()
	if after1.Misses != base.Misses+1 || after1.Hits != base.Hits {
		t.Fatalf("first query: want one miss, got %+v (base %+v)", after1, base)
	}
	r2, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	after2 := db.PlanCacheStats()
	if after2.Hits != after1.Hits+1 || after2.Misses != after1.Misses {
		t.Fatalf("second query: want one hit, got %+v", after2)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("cached plan changed the result:\n%s\nvs\n%s", r1.Format(), r2.Format())
	}
	// The parsed statements really are shared, not re-parsed.
	s1, err := db.parseCached(q)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := db.parseCached(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(s1) != 1 || !reflect.DeepEqual(s1, s2) {
		t.Fatal("parseCached returned different statement lists for the same text")
	}
}

// TestPlanCacheDDLInvalidation: every CREATE statement bumps the schema
// version, so plans cached before it re-parse (and see the new schema) on
// next use.
func TestPlanCacheDDLInvalidation(t *testing.T) {
	db := newCacheDB(t)
	const q = "SELECT * FROM t WHERE v = 20"
	r1, err := db.Query(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Columns) != 2 {
		t.Fatalf("want 2 columns before DDL, got %v", r1.Columns)
	}
	v0 := db.SchemaVersion()

	for i, ddl := range []string{
		"CREATE INDEX iv ON t (v)",
		"CREATE TABLE u (a INT)",
	} {
		if _, err := db.Exec(ddl); err != nil {
			t.Fatal(err)
		}
		if got := db.SchemaVersion(); got != v0+uint64(i)+1 {
			t.Fatalf("after %q: schema version %d, want %d", ddl, got, v0+uint64(i)+1)
		}
	}

	pre := db.PlanCacheStats()
	r2, err := db.Query(q) // cached under the old version: must invalidate
	if err != nil {
		t.Fatal(err)
	}
	post := db.PlanCacheStats()
	if post.Invalidations != pre.Invalidations+1 {
		t.Fatalf("stale plan not invalidated: pre %+v post %+v", pre, post)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("results diverged across invalidation:\n%s\nvs\n%s", r1.Format(), r2.Format())
	}

	// A schema change the plan depends on: a plan cached while its table did
	// not exist yet must see the table once CREATE TABLE makes it.
	const qw = "SELECT * FROM w"
	if _, err := db.Query(qw); err == nil {
		t.Fatal("query of a missing table succeeded")
	}
	if _, err := db.Exec("CREATE TABLE w (a INT, b INT)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO w VALUES (1, 2)"); err != nil {
		t.Fatal(err)
	}
	rw2, err := db.Query(qw)
	if err != nil {
		t.Fatal(err)
	}
	if len(rw2.Columns) != 2 {
		t.Fatalf("stale plan survived DDL: SELECT * returned %v once the table existed", rw2.Columns)
	}
}

// TestPlanCacheParseErrorsNotCached: a syntax error is returned every time
// and never populates the cache.
func TestPlanCacheParseErrorsNotCached(t *testing.T) {
	db := newCacheDB(t)
	pre := db.PlanCacheStats()
	for i := 0; i < 3; i++ {
		if _, err := db.Query("SELECT FROM WHERE"); err == nil {
			t.Fatal("want parse error")
		}
	}
	post := db.PlanCacheStats()
	if post.Entries != pre.Entries {
		t.Fatalf("parse error was cached: pre %+v post %+v", pre, post)
	}
	if post.Hits != pre.Hits {
		t.Fatalf("parse error produced cache hits: pre %+v post %+v", pre, post)
	}
}

// TestPlanCacheEviction: the LRU bound holds and evictions are counted.
func TestPlanCacheEviction(t *testing.T) {
	db := newCacheDB(t)
	for i := 0; i < defaultPlanCacheCap+10; i++ {
		if _, err := db.Query(fmt.Sprintf("SELECT v FROM t WHERE id = %d", i)); err != nil {
			t.Fatal(err)
		}
	}
	st := db.PlanCacheStats()
	if st.Entries > defaultPlanCacheCap {
		t.Fatalf("cache grew past its cap: %+v", st)
	}
	if st.Evictions == 0 {
		t.Fatalf("expected evictions after overflow: %+v", st)
	}
}

// TestPlanCacheConcurrent hammers the cache from parallel readers and
// writers, with CREATE INDEX churn invalidating plans mid-flight; run under -race
// this doubles as the cache's thread-safety test.
func TestPlanCacheConcurrent(t *testing.T) {
	db := newCacheDB(t)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				q := fmt.Sprintf("SELECT v FROM t WHERE id = %d", i%8)
				if _, err := db.Query(q); err != nil {
					t.Errorf("query: %v", err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 50; i++ {
			name := fmt.Sprintf("ix%d", i)
			if _, err := db.Exec("CREATE INDEX " + name + " ON t (v)"); err != nil {
				t.Errorf("create index: %v", err)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 100; i < 200; i++ {
			if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, %d)", i, i)); err != nil {
				t.Errorf("insert: %v", err)
				return
			}
		}
	}()
	wg.Wait()

	// Deterministic tail: a cached plan survives a repeat (hit) and dies on
	// the next DDL (invalidation), regardless of how the race interleaved.
	const q = "SELECT MAX(v) FROM t"
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	pre := db.PlanCacheStats()
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	mid := db.PlanCacheStats()
	if mid.Hits != pre.Hits+1 {
		t.Fatalf("repeat query was not a hit: pre %+v mid %+v", pre, mid)
	}
	if _, err := db.Exec("CREATE INDEX zz ON t (v)"); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Query(q); err != nil {
		t.Fatal(err)
	}
	post := db.PlanCacheStats()
	if post.Invalidations != mid.Invalidations+1 {
		t.Fatalf("DDL did not invalidate the cached plan: mid %+v post %+v", mid, post)
	}
}
