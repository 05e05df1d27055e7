package gateway

import (
	"context"
	"fmt"
	"io"
	"strings"
	"testing"
	"time"

	"repro/internal/cursor"
	"repro/internal/oodb"
	"repro/internal/relational"
)

// scanEngine is one engine holding 5 000 rows ('x-<j>', j) behind an ISI
// servant, with the engine's own scan counter and the servant's cursor table.
type scanEngine struct {
	name   string
	rconn  *RemoteConn
	table  *cursor.Table
	chunks func() int64
	all    string // a statement whose plan streams over every row
	insert func(t *testing.T, j int)
}

func startScanEngines(t *testing.T, opts ISIServantOptions) []scanEngine {
	t.Helper()
	const n = 5000
	rdb := relational.NewDatabase("RBH", relational.DialectOracle)
	var b strings.Builder
	b.WriteString("CREATE TABLE r (k VARCHAR(16), v INT);\n")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "INSERT INTO r VALUES ('x-%d', %d);\n", j, j)
	}
	if _, err := rdb.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	rdrv := NewRelationalDriver("Oracle")
	if err := rdrv.Add(rdb); err != nil {
		t.Fatal(err)
	}
	odb := oodb.NewDB("RBH")
	if _, err := odb.DefineClass("r", "", oodb.Attribute{Name: "k", Type: oodb.AttrString}, oodb.Attribute{Name: "v", Type: oodb.AttrInt}); err != nil {
		t.Fatal(err)
	}
	newObject := func(t *testing.T, j int) {
		if _, err := odb.NewObject("r", map[string]any{"k": fmt.Sprintf("x-%d", j), "v": int64(j)}); err != nil {
			t.Fatal(err)
		}
	}
	for j := 0; j < n; j++ {
		newObject(t, j)
	}
	odrv := NewObjectDriver("ObjectStore")
	odrv.Add(odb)

	engines := []scanEngine{
		{name: "Oracle", chunks: rdb.ChunksScanned, all: "SELECT v FROM r WHERE v >= 0", insert: func(t *testing.T, j int) {
			if _, err := rdb.Exec(fmt.Sprintf("INSERT INTO r VALUES ('x-%d', %d)", j, j)); err != nil {
				t.Fatal(err)
			}
		}},
		{name: "ObjectStore", chunks: odb.ChunksScanned, all: "SELECT v FROM r WHERE v >= 0", insert: newObject},
	}
	for i, drv := range []Driver{rdrv, odrv} {
		conn, err := drv.Open("RBH")
		if err != nil {
			t.Fatal(err)
		}
		servant, table := NewISIServantWith(conn, opts)
		engines[i].rconn, _ = serveISI(t, servant)
		engines[i].table = table
	}
	return engines
}

// quiet fails the test unless the engine's scan counter stands still and the
// servant holds no cursor and no rows.
func (e *scanEngine) quiet(t *testing.T, when string, mark int64) {
	t.Helper()
	if n := e.chunks(); n != mark {
		t.Fatalf("%s: the engine scanned %d more chunk(s) %s", e.name, n-mark, when)
	}
	if snap := e.table.Snapshot(); snap.Open != 0 || snap.RowsHeld != 0 {
		t.Fatalf("%s: %d cursor(s) open holding %d row(s) %s", e.name, snap.Open, snap.RowsHeld, when)
	}
}

// TestCursorPullsOnePagePerFetch: open_cursor has the engine scan a first page
// and no more, every fetch_cursor one more page, and the rows that come out are
// the table's, in order, whatever is inserted while the cursor is open.
func TestCursorPullsOnePagePerFetch(t *testing.T) {
	for _, e := range startScanEngines(t, ISIServantOptions{}) {
		ctx := context.Background()
		live := markLive()
		before := e.chunks()
		it, err := e.rconn.QueryCursor(ctx, e.all, 64)
		if err != nil {
			t.Fatal(err)
		}
		// The first page and a look ahead for one more row: a few steps of
		// at most 1 024 rows, not the 5 000-row table.
		if n := e.chunks() - before; n == 0 || n > 3 {
			t.Fatalf("%s: open_cursor took %d steps of the scan", e.name, n)
		}
		if snap := e.table.Snapshot(); snap.Open != 1 || snap.RowsHeld != 0 {
			t.Fatalf("%s: after open %d cursor(s) holding %d row(s)", e.name, snap.Open, snap.RowsHeld)
		}
		next, pages := 0, 0
		for {
			mark := e.chunks()
			b, err := it.Next(ctx)
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatal(err)
			}
			if pages > 0 && e.chunks() == mark {
				t.Fatalf("%s: page %d came without the engine scanning", e.name, pages)
			}
			if n := e.chunks() - mark; n > 3 {
				t.Fatalf("%s: page %d took %d steps of the scan", e.name, pages, n)
			}
			for i := 0; i < b.Len(); i++ {
				if v := b.Value(0, i).Int; v != int64(next) {
					t.Fatalf("%s: row %d is %d", e.name, next, v)
				}
				next++
			}
			b.Release()
			pages++
			e.insert(t, 100000+pages) // not part of what the cursor opened over
		}
		if next != 5000 || pages != 8 { // 64, 128, 256, 512, 1 024 x 3, 968
			t.Fatalf("%s: %d rows in %d pages", e.name, next, pages)
		}
		it.Close()
		e.quiet(t, "after the drain", e.chunks())
		live.check(t)
	}
}

// TestCloseStopsTheScan: after close_cursor, after a LIMIT is met and after
// the idle reaper fires, the engine's scan counter stands still and the
// servant holds no cursor and no rows.
func TestCloseStopsTheScan(t *testing.T) {
	clock := time.Unix(1000, 0)
	for _, e := range startScanEngines(t, ISIServantOptions{CursorIdleTTL: time.Minute, Clock: func() time.Time { return clock }}) {
		ctx := context.Background()
		firstPage := func(q string) RowIter {
			t.Helper()
			it, err := e.rconn.QueryCursor(ctx, q, 64)
			if err != nil {
				t.Fatal(err)
			}
			b, err := it.Next(ctx)
			if err != nil || b.Len() != 64 {
				t.Fatalf("%s: first page: %v", e.name, err)
			}
			b.Release()
			return it
		}

		// close_cursor, mid-stream.
		it := firstPage(e.all)
		if e.table.OpenCount() != 1 {
			t.Fatalf("%s: %d cursors open mid-stream", e.name, e.table.OpenCount())
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		e.quiet(t, "after close_cursor", e.chunks())

		// The idle reaper: the client vanishes, the clock runs, another
		// statement arrives.
		firstPage(e.all)
		mark := e.chunks()
		clock = clock.Add(2 * time.Minute)
		if n := e.table.Reap(); n != 1 {
			t.Fatalf("%s: reaped %d cursor(s)", e.name, n)
		}
		e.quiet(t, "after the reaper", mark)

		// LIMIT (the relational engine's; OQL has none): the scan ends with
		// the tenth row, in the open, and leaves no cursor.
		if e.name != "Oracle" {
			continue
		}
		mark = e.chunks()
		res, err := e.rconn.Query(ctx, "SELECT v FROM r WHERE v >= 1000 LIMIT 10")
		if err != nil || len(res.Rows) != 10 || res.Rows[9][0].Int != 1009 {
			t.Fatalf("LIMIT 10 = %v, %v", res, err)
		}
		if n := e.chunks() - mark; n == 0 || n > 4 {
			t.Fatalf("LIMIT 10 took %d steps of the scan", n)
		}
		e.quiet(t, "after the LIMIT", e.chunks())
	}
}

// TestCursorHoldsMaterialisedRows: a plan that cannot stream is executed at
// open and the cursor holds what it has not served; rows_held says how much,
// and goes back to zero when the cursor does.
func TestCursorHoldsMaterialisedRows(t *testing.T) {
	e := startScanEngines(t, ISIServantOptions{})[0]
	ctx := context.Background()
	before := e.chunks()
	it, err := e.rconn.QueryCursor(ctx, "SELECT v FROM r ORDER BY v DESC", 64)
	if err != nil {
		t.Fatal(err)
	}
	if snap := e.table.Snapshot(); snap.Open != 1 || snap.RowsHeld != 5000-64 {
		t.Fatalf("after open: %+v", snap)
	}
	b, err := it.Next(ctx)
	if err != nil || b.Value(0, 0).Int != 4999 {
		t.Fatalf("first row: %v", err)
	}
	b.Release()
	if b, err = it.Next(ctx); err != nil || b.Len() != 128 {
		t.Fatalf("second page: %v", err)
	}
	b.Release()
	if snap := e.table.Snapshot(); snap.RowsHeld != 5000-64-128 {
		t.Fatalf("after a fetch: %+v", snap)
	}
	it.Close()
	e.quiet(t, "on a plan that does not stream", before)
}

// TestCursorErrorPastPageOne: an expression that fails on a row the first page
// does not reach fails the fetch that reaches it, with the engine's message,
// and the cursor is gone.
func TestCursorErrorPastPageOne(t *testing.T) {
	e := startScanEngines(t, ISIServantOptions{})[0]
	ctx := context.Background()
	it, err := e.rconn.QueryCursor(ctx, "SELECT 1000 / (v - 700) FROM r WHERE v >= 0", 64)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer it.Close()
	rows := 0
	for {
		b, err := it.Next(ctx)
		if err != nil {
			if !strings.Contains(err.Error(), "division by zero") {
				t.Fatalf("fetch error = %v", err)
			}
			break
		}
		rows += b.Len()
		b.Release()
	}
	// Pages of 64, 128 and 256 rows end at row 448; the 512-row page holds row 700.
	if rows != 448 {
		t.Fatalf("%d rows before the error, want 448", rows)
	}
	e.quiet(t, "after a failed fetch", e.chunks())
}
