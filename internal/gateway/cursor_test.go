package gateway

import (
	"context"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/cursor"
	"repro/internal/idl"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/relational"
)

// liveMark remembers how many batches were out of the pool; check fails the
// test when the count has moved, i.e. a batch leaked or was released twice.
type liveMark int64

func markLive() liveMark { return liveMark(LiveBatches()) }

func (m liveMark) check(t *testing.T) {
	t.Helper()
	if now := LiveBatches(); now != int64(m) {
		t.Fatalf("batches out of the pool: %d before, %d now", int64(m), now)
	}
}

// openOracle opens a local connection to a fresh RBH Oracle database.
func openOracle(t *testing.T) Conn {
	t.Helper()
	drv := NewRelationalDriver("Oracle")
	if err := drv.Add(newOracleDB(t)); err != nil {
		t.Fatal(err)
	}
	local, err := drv.Open("RBH")
	if err != nil {
		t.Fatal(err)
	}
	return local
}

// serveISI activates servant on its own ORB and returns a remote connection
// that reaches it over IIOP, plus the serving ORB (for its counters).
func serveISI(t testing.TB, servant orb.Servant) (*RemoteConn, *orb.ORB) {
	t.Helper()
	server := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ior, err := server.Activate("ISI/RBH", servant)
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	return NewRemoteConn(client.Resolve(ior)), server
}

// startISIPair activates an ISI servant for the RBH Oracle database and
// returns a remote connection to it plus the servant's cursor table.
func startISIPair(t *testing.T) (*RemoteConn, *cursorTableHandle) {
	t.Helper()
	servant, table := NewISIServant(openOracle(t), "Oracle", "RBH", nil)
	rconn, _ := serveISI(t, servant)
	return rconn, &cursorTableHandle{table}
}

type cursorTableHandle struct{ table interface{ OpenCount() int } }

func TestRemoteQueryCursorBatches(t *testing.T) {
	rconn, tb := startISIPair(t)
	ctx := context.Background()

	it, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students ORDER BY name", 1)
	if err != nil {
		t.Fatal(err)
	}
	if cols := it.Columns(); len(cols) != 1 || cols[0] != "name" {
		t.Fatalf("columns = %v", cols)
	}
	// 3 rows over batch 1: the open carries 1, one fetch carries the last 2
	// (they fit in twice the 2-row page due), so a cursor is retained
	// server-side until the stream is drained.
	if tb.table.OpenCount() != 1 {
		t.Fatalf("open cursors after open = %d", tb.table.OpenCount())
	}
	var names []string
	var pages []int
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		pages = append(pages, b.Len())
		for i := 0; i < b.Len(); i++ {
			names = append(names, b.Value(0, i).Str)
		}
		b.Release()
	}
	if len(pages) != 2 || pages[0] != 1 || pages[1] != 2 {
		t.Fatalf("page sizes = %v, want [1 2]", pages)
	}
	if strings.Join(names, ",") != "J. Chen,P. Okoye,S. Weiss" {
		t.Fatalf("streamed rows = %v", names)
	}
	if tb.table.OpenCount() != 0 {
		t.Fatalf("open cursors after drain = %d", tb.table.OpenCount())
	}
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := it.Next(ctx); err == nil {
		t.Fatal("Next on closed iterator succeeded")
	}
}

// TestCursorShortResultLeavesInTheOpenReply is the tail rule over the ISI, on
// both engines: a 72-row index window at batch 64 answers in the open reply,
// done, with no cursor left on the server, while a 2 000-row walk that no
// index answers (a LIKE) still pages 64/128/256/512/1 024 and the rest, one
// round trip each.
func TestCursorShortResultLeavesInTheOpenReply(t *testing.T) {
	objects := oodb.NewDB("SEQ")
	if _, err := objects.DefineClass("r", "",
		oodb.Attribute{Name: "k", Type: oodb.AttrString}, oodb.Attribute{Name: "v", Type: oodb.AttrInt}); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < 2000; j++ {
		if _, err := objects.NewObject("r", map[string]any{"k": fmt.Sprint("x", j), "v": int64(j)}); err != nil {
			t.Fatal(err)
		}
	}
	db := seqTable(t, 2000)
	for q, access := range map[string]string{
		"SELECT v FROM r WHERE v >= 100 AND v < 172":   "index range r_v(v) [100, 172)",
		"SELECT v FROM r WHERE k LIKE 'x%' AND v >= 9": "seq scan r",
	} {
		res, err := db.Query("EXPLAIN " + q)
		if err != nil || !strings.Contains(fmt.Sprint(res.Rows), access) {
			t.Fatalf("EXPLAIN %s = %v, %v; want %q", q, res, err, access)
		}
	}
	for _, engine := range []struct {
		name string
		conn Conn
	}{{"Oracle", &relConn{db: db}}, {"ObjectStore", &ooConn{db: objects}}} {
		servant, table := NewISIServant(engine.conn, engine.name, "SEQ", nil)
		rconn, server := serveISI(t, servant)
		for _, tc := range []struct {
			q     string
			pages []int
			open  int // cursors the open leaves on the server
		}{
			{"SELECT v FROM r WHERE v >= 100 AND v < 172", []int{72}, 0},
			{"SELECT v FROM r WHERE k LIKE 'x%' AND v >= 9", []int{64, 128, 256, 512, 1024, 7}, 1},
		} {
			ctx := context.Background()
			served := server.Stats.RequestsServed.Load()
			it, err := rconn.QueryCursor(ctx, tc.q, 64)
			if err != nil {
				t.Fatalf("%s: %s: %v", engine.name, tc.q, err)
			}
			if n := table.OpenCount(); n != tc.open {
				t.Errorf("%s: %s: %d cursor(s) open after the open, want %d", engine.name, tc.q, n, tc.open)
			}
			var pages []int
			for {
				b, err := it.Next(ctx)
				if err == io.EOF {
					break
				}
				if err != nil {
					t.Fatal(err)
				}
				pages = append(pages, b.Len())
				b.Release()
			}
			it.Close()
			if !slices.Equal(pages, tc.pages) {
				t.Errorf("%s: %s pages as %v, want %v", engine.name, tc.q, pages, tc.pages)
			}
			if n := server.Stats.RequestsServed.Load() - served; n != int64(len(tc.pages)) {
				t.Errorf("%s: %s took %d round trip(s) for %d page(s)", engine.name, tc.q, n, len(tc.pages))
			}
			if n := table.OpenCount(); n != 0 {
				t.Errorf("%s: %s left %d cursor(s) open", engine.name, tc.q, n)
			}
		}
	}
}

func TestRemoteCursorCloseReleasesServer(t *testing.T) {
	rconn, tb := startISIPair(t)
	ctx := context.Background()

	it, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students", 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := it.Next(ctx)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if tb.table.OpenCount() != 1 {
		t.Fatalf("open cursors mid-stream = %d", tb.table.OpenCount())
	}
	// Abandon mid-stream: Close must reach the server and free the cursor.
	if err := it.Close(); err != nil {
		t.Fatal(err)
	}
	if tb.table.OpenCount() != 0 {
		t.Fatalf("open cursors after early Close = %d", tb.table.OpenCount())
	}
}

func TestRemoteQueryDelegatesThroughCursor(t *testing.T) {
	rconn, tb := startISIPair(t)
	res, err := rconn.Query(context.Background(), "SELECT name FROM medical_students WHERE year > 4 ORDER BY name")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 || res.Rows[0][0].Str != "P. Okoye" {
		t.Fatalf("rows = %v", res.Rows)
	}
	// Batch 0 means the whole result travelled in the open reply: no server
	// cursor was ever retained.
	if tb.table.OpenCount() != 0 {
		t.Fatalf("whole-result query retained %d cursors", tb.table.OpenCount())
	}
	// Engine errors still surface with the engine's message.
	if _, err := rconn.Query(context.Background(), "SELECT * FROM no_such_table"); err == nil ||
		!strings.Contains(err.Error(), "no_such_table") {
		t.Fatalf("engine error = %v", err)
	}
}

// countingConn counts the statements that reach the engine.
type countingConn struct {
	Conn
	queries map[string]int
}

func (c *countingConn) QueryCursor(ctx context.Context, q string, batch int) (RowIter, error) {
	c.queries[q]++
	return c.Conn.QueryCursor(ctx, q, batch)
}

// TestRemoteCursorAtCapAnswersWhole: a servant whose cursor table is full
// answers an open with the whole result it has already computed — the member
// query runs once and the client makes one invocation, not a failed open
// followed by a second execution under another op.
func TestRemoteCursorAtCapAnswersWhole(t *testing.T) {
	engine := &countingConn{Conn: openOracle(t), queries: map[string]int{}}
	servant, table := NewISIServant(engine, "Oracle", "RBH", nil)
	rconn, server := serveISI(t, servant)
	ctx := context.Background()

	// Fill every cursor slot.
	for i := 0; i < cursor.DefaultMaxOpen; i++ {
		held, err := rconn.QueryCursor(ctx, "SELECT name FROM medical_students", 1)
		if err != nil {
			t.Fatal(err)
		}
		defer held.Close()
	}
	if table.OpenCount() != cursor.DefaultMaxOpen {
		t.Fatalf("open cursors = %d", table.OpenCount())
	}

	const q = "SELECT name FROM medical_students ORDER BY name"
	served := server.Stats.RequestsServed.Load()
	it, err := rconn.QueryCursor(ctx, q, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drain(ctx, it)
	if err != nil || len(res.Rows) != 3 || res.Rows[0][0].Str != "J. Chen" || res.Rows[2][0].Str != "S. Weiss" {
		t.Fatalf("drain at the cap = %+v, %v", res, err)
	}
	if table.OpenCount() != cursor.DefaultMaxOpen {
		t.Fatalf("open at the cap took a slot: %d open", table.OpenCount())
	}
	if n := engine.queries[q]; n != 1 {
		t.Errorf("engine ran the statement %d time(s), want 1", n)
	}
	if n := server.Stats.RequestsServed.Load() - served; n != 1 {
		t.Errorf("client made %d invocation(s), want 1", n)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/open_cursor_wire.golden")

// TestOpenCursorReplyGolden pins the open_cursor reply: its fields, in order,
// and its CDR bytes for a first page that leaves a cursor open (one row of
// three: two left are more than twice the one-row page, so the tail rule
// keeps the cursor). A change to either is a change to the ISI's wire format.
func TestOpenCursorReplyGolden(t *testing.T) {
	servant, table := NewISIServant(openOracle(t), "Oracle", "RBH", nil)
	a, err := servant.Invoke("open_cursor", []idl.Any{
		idl.String("SELECT student_id, name, year FROM medical_students ORDER BY student_id"), idl.Long(1)})
	if err != nil {
		t.Fatal(err)
	}
	defer table.Close(a.GetInt("id"))
	var names []string
	for _, f := range a.Fields() {
		names = append(names, f.Name)
	}
	if want := []string{"id", "columns", "page", "done"}; !slices.Equal(names, want) {
		t.Fatalf("open_cursor reply fields = %v, want %v", names, want)
	}
	e := cdr.NewEncoder(cdr.BigEndian)
	a.Marshal(e)
	got := hex.EncodeToString(e.Bytes()) + "\n"
	path := filepath.Join("testdata", "open_cursor_wire.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Fatalf("open_cursor reply bytes changed:\n got %s\nwant %s", got, want)
	}
}

// TestRemoteCursorRejectsMalformedReplies points the cursor client at a fake
// ISI whose open_cursor or fetch_cursor reply breaks the protocol. Replies
// come from another process, so each shape must end the iteration with a
// ProtocolError — under a context with no deadline, hence the watchdog — and
// the cursor the peer named must still be released.
func TestRemoteCursorRejectsMalformedReplies(t *testing.T) {
	page := func(rows ...[]idl.Any) idl.Any {
		width := 1
		if len(rows) > 0 {
			width = len(rows[0])
		}
		it := NewResultIter(&Result{Columns: make([]string, width), Rows: rows}, 0)
		b, err := it.Next(context.Background())
		if err == io.EOF {
			b = newBatch(width)
		}
		defer b.Release()
		return idl.Octets(encodePage(b, 0, b.rows, cdr.BigEndian))
	}
	open := func(fields ...idl.Field) idl.Any {
		return idl.Struct(append([]idl.Field{idl.F("id", idl.Long(7)), idl.F("columns", idl.Strings([]string{"name"}))}, fields...)...)
	}
	good := page([]idl.Any{idl.String("J. Chen")})
	truncated := idl.Octets(good.Bytes()[:len(good.Bytes())-3])
	trailing := idl.Octets(append(append([]byte(nil), good.Bytes()...), 0))
	wide := page([]idl.Any{idl.String("J. Chen"), idl.Long(1)})
	goodOpen := open(idl.F("page", good), idl.F("done", idl.Bool(false)))
	live := markLive()
	for _, tc := range []struct {
		name        string
		open, fetch idl.Any
		op          string // the reply that must be refused
	}{
		{"open is not a struct", idl.String("page"), idl.Null(), "open_cursor"},
		{"open lacks page", open(idl.F("done", idl.Bool(false))), idl.Null(), "open_cursor"},
		{"open page is not octets", open(idl.F("page", idl.Seq(idl.Seq(idl.String("J. Chen")))), idl.F("done", idl.Bool(false))), idl.Null(), "open_cursor"},
		{"open lacks done", open(idl.F("page", good)), idl.Null(), "open_cursor"},
		{"open done is not a boolean", open(idl.F("page", good), idl.F("done", idl.Long(0))), idl.Null(), "open_cursor"},
		{"open page is truncated", open(idl.F("page", truncated), idl.F("done", idl.Bool(false))), idl.Null(), "open_cursor"},
		{"open page has no bytes", open(idl.F("page", idl.Octets(nil)), idl.F("done", idl.Bool(false))), idl.Null(), "open_cursor"},
		{"open page is wider than columns", open(idl.F("page", wide), idl.F("done", idl.Bool(false))), idl.Null(), "open_cursor"},
		{"open is empty and not done", open(idl.F("page", page()), idl.F("done", idl.Bool(false))), idl.Null(), "open_cursor"},
		{"fetch is not a struct", goodOpen, idl.Long(1), "fetch_cursor"},
		{"fetch lacks done", goodOpen, idl.Struct(idl.F("page", good)), "fetch_cursor"},
		{"fetch lacks page", goodOpen, idl.Struct(idl.F("done", idl.Bool(false))), "fetch_cursor"},
		{"fetch carries rows, not a page", goodOpen, idl.Struct(idl.F("rows", idl.Seq(idl.Seq(idl.Long(1)))), idl.F("done", idl.Bool(true))), "fetch_cursor"},
		{"fetch page has trailing bytes", goodOpen, idl.Struct(idl.F("page", trailing), idl.F("done", idl.Bool(true))), "fetch_cursor"},
		{"fetch page is wider than columns", goodOpen, idl.Struct(idl.F("page", wide), idl.F("done", idl.Bool(true))), "fetch_cursor"},
		{"fetch is empty and not done", goodOpen, idl.Struct(idl.F("page", page()), idl.F("done", idl.Bool(false))), "fetch_cursor"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			closed := make(chan int64, 1)
			h := orb.NewHandler(ISIIDL)
			h.On("open_cursor", func([]idl.Any) (idl.Any, error) { return tc.open, nil })
			h.On("fetch_cursor", func([]idl.Any) (idl.Any, error) { return tc.fetch, nil })
			h.On("close_cursor", func(args []idl.Any) (idl.Any, error) {
				closed <- args[0].Int
				return idl.Any{Kind: idl.KindVoid}, nil
			})
			rconn, _ := serveISI(t, h)

			errc := make(chan error, 1)
			go func() {
				it, err := rconn.QueryCursor(context.Background(), "SELECT name FROM medical_students", 1)
				if err == nil {
					_, err = Drain(context.Background(), it)
				}
				errc <- err
			}()
			select {
			case err := <-errc:
				var pe *ProtocolError
				if !errors.As(err, &pe) || pe.Op != tc.op {
					t.Fatalf("error = %v, want a ProtocolError for %s", err, tc.op)
				}
			case <-time.After(2 * time.Second):
				t.Fatal("the client is still iterating after 2s")
			}
			live.check(t) // a refused page is back in the pool
			if tc.open.Kind != idl.KindStruct {
				return // the reply named no cursor to release
			}
			select {
			case id := <-closed:
				if id != 7 {
					t.Fatalf("close_cursor(%d), want 7", id)
				}
			default:
				t.Fatal("the cursor the peer named was not closed")
			}
		})
	}
}

// TestOneRowOpenCursorAllocations guards the small-reply path: most cursor
// traffic is one-row answers (a point lookup per member), so paging must not
// tax them. The whole round trip — client stub, both ORBs, servant, engine,
// page codec, drain — allocated 111 objects per call at the commit before
// pages (same statement, same harness); it must not allocate more now.
func TestOneRowOpenCursorAllocations(t *testing.T) {
	rconn, _ := startISIPair(t)
	ctx := context.Background()
	run := func() {
		res, err := rconn.Query(ctx, "SELECT name FROM medical_students WHERE name = 'J. Chen'")
		if err != nil || len(res.Rows) != 1 || res.Rows[0][0].Str != "J. Chen" {
			t.Fatalf("one-row query = %+v, %v", res, err)
		}
	}
	run() // dial, fill the pools
	const parent = 111
	if allocs := testing.AllocsPerRun(300, run); allocs > parent {
		t.Fatalf("a one-row open_cursor round trip allocates %.0f objects, %d before pages", allocs, parent)
	}
}

// lostReplyServant loses the reply to its second fetch_cursor: the servant has
// run, so the cursor has moved on a page, but the caller sees COMM_FAILURE, as
// it would if the connection died after the request was written.
type lostReplyServant struct {
	orb.Servant
	fetches atomic.Int32
}

func (s *lostReplyServant) Invoke(op string, args []idl.Any) (idl.Any, error) {
	res, err := s.Servant.Invoke(op, args)
	if op == "fetch_cursor" && s.fetches.Add(1) == 2 {
		return idl.Null(), &orb.SystemException{Name: orb.ExcCommFailure, Detail: "reply lost"}
	}
	return res, err
}

// TestFetchCursorIsNotRetried: fetch_cursor names no page, so a re-sent one
// after a lost reply would return the page after the lost one. Under a client
// retry policy a drain must return every row or fail, never come back short.
func TestFetchCursorIsNotRetried(t *testing.T) {
	db := relational.NewDatabase("RBH", relational.DialectOracle)
	var b strings.Builder
	b.WriteString("CREATE TABLE r (v INT);\n")
	for j := 0; j < 100; j++ {
		fmt.Fprintf(&b, "INSERT INTO r VALUES (%d);\n", j)
	}
	if _, err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	drv := NewRelationalDriver("Oracle")
	if err := drv.Add(db); err != nil {
		t.Fatal(err)
	}
	conn, err := drv.Open("RBH")
	if err != nil {
		t.Fatal(err)
	}
	server := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	servant, _ := NewISIServant(conn, "Oracle", "RBH", nil)
	ior, err := server.Activate("ISI/RBH", &lostReplyServant{Servant: servant})
	if err != nil {
		t.Fatal(err)
	}
	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true, RetryAttempts: 2})
	t.Cleanup(client.Shutdown)
	ctx := context.Background()
	it, err := NewRemoteConn(client.Resolve(ior)).QueryCursor(ctx, "SELECT v FROM r", 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Drain(ctx, it)
	if err == nil && len(res.Rows) != 100 {
		t.Fatalf("the drain came back with %d of 100 rows and no error", len(res.Rows))
	}
	if err == nil || !strings.Contains(err.Error(), orb.ExcCommFailure) {
		t.Fatalf("drain across a lost fetch_cursor reply: %v, want COMM_FAILURE", err)
	}
}
