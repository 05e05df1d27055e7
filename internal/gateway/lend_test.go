package gateway

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/giop"
	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/relational"
)

// lendConn is a local connection to an Oracle database whose table r holds n
// rows (k, s) = (j, the letter j mod 26), n a multiple of 1 024: no two
// neighbouring rows agree, so a page decoded from a buffer something else
// wrote over does not read back right.
func lendConn(t testing.TB, n int) Conn {
	t.Helper()
	var b bytes.Buffer
	b.WriteString("CREATE TABLE r (k INT, s VARCHAR(1));\n")
	for j := 0; j < n; j += 1024 {
		b.WriteString("INSERT INTO r VALUES ")
		for k := j; k < j+1024; k++ {
			if k > j {
				b.WriteString(", ")
			}
			fmt.Fprintf(&b, "(%d, '%c')", k, 'a'+k%26)
		}
		b.WriteString(";\n")
	}
	db := relational.NewDatabase("LEND", relational.DialectOracle)
	if _, err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	drv := NewRelationalDriver("Oracle")
	if err := drv.Add(db); err != nil {
		t.Fatal(err)
	}
	conn, err := drv.Open("LEND")
	if err != nil {
		t.Fatal(err)
	}
	return conn
}

// allocatedBytes reads the process's cumulative heap allocation (what
// runtime/metrics calls /gc/heap/allocs:bytes, but exact: ReadMemStats counts
// the objects of spans still cached per P too).
func allocatedBytes() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// sameResult fails the test unless got holds want's rows, value by value.
func sameResult(t *testing.T, what string, got, want *Result) {
	t.Helper()
	if len(got.Rows) != len(want.Rows) {
		t.Fatalf("%s: %d row(s), want %d", what, len(got.Rows), len(want.Rows))
	}
	for i, row := range want.Rows {
		for j := range row {
			if !got.Rows[i][j].Equal(row[j]) {
				t.Fatalf("%s: row %d col %d = %v, want %v", what, i, j, got.Rows[i][j], row[j])
			}
		}
	}
}

// drainAllocations drains a cursor of 8 pages of 1 024 rows over IIOP
// (servant and client ORBs in this process) and returns what the process
// allocated per page, both ends counted, and a page's wire size. With gc set
// a collection runs before every drain. The reading is the least of three
// runs of four drains: a one-off cost (a dispatch worker the server starts
// when a request beats the idle one back to its channel warms a reply
// encoder of its own) shows in one run, a cost every round trip pays in all.
func drainAllocations(t *testing.T, gc bool) (perPage, wire int) {
	const pages = 8
	servant, _ := NewISIServant(lendConn(t, pages*MaxPageRows), "Oracle", "LEND", nil)
	rconn, _ := serveISI(t, servant)
	ctx := context.Background()
	drain := func() (n, wire int) {
		it, err := rconn.QueryCursor(ctx, "SELECT k, s FROM r", MaxPageRows)
		if err != nil {
			t.Fatal(err)
		}
		defer it.Close()
		for {
			b, err := it.Next(ctx)
			if err == io.EOF {
				return n, wire
			}
			if err != nil {
				t.Fatal(err)
			}
			n, wire = n+1, wire+b.WireBytes()
			b.Release()
		}
	}
	mark := markLive()
	// Two drains dial the connection and fill its free lists.
	drain()
	drain()
	const runs, drains = 3, 4
	perPage = math.MaxInt
	for range runs {
		var allocated uint64
		n := 0
		wire = 0
		for range drains {
			if gc {
				runtime.GC()
			}
			before := allocatedBytes()
			dn, dw := drain()
			allocated += allocatedBytes() - before
			n, wire = n+dn, wire+dw
		}
		if n != drains*pages {
			t.Fatalf("drained %d page(s), want %d", n, drains*pages)
		}
		perPage = min(perPage, int(allocated)/n)
	}
	mark.check(t)
	return perPage, wire / (drains * pages)
}

// TestRemoteCursorPageAllocations: a page is encoded into a buffer the servant
// lends the ORB and decoded from the buffer the ORB received it in, so
// draining a cursor over IIOP allocates, per 1 024-row page and counting both
// ends, under a quarter of the page's wire size. What is left is the string
// run's one conversion (a byte a row here) and the few objects a round trip
// still makes (the client's request arguments, the open's plan and column
// names, a span). Encoding into a fresh buffer and copying the page out of
// the receive buffer cost more than twice the wire size. The per-page
// allocation also has an absolute budget of 1 440 bytes, so per-call objects
// cannot grow back; it read 1 251 when the budget was set.
func TestRemoteCursorPageAllocations(t *testing.T) {
	perPage, wire := drainAllocations(t, false)
	t.Logf("pages of %d wire bytes: %d bytes allocated per page", wire, perPage)
	if 4*perPage >= wire {
		t.Fatalf("a %d-byte page allocates %d bytes, want under a quarter of its size", wire, perPage)
	}
	if perPage > 1440 {
		t.Fatalf("a %d-byte page allocates %d bytes, want at most 1 440", wire, perPage)
	}
}

// TestRemoteCursorPageAllocationsAcrossGC: the buffers a page crosses IIOP in
// (the client and server connections' bodies, the dispatch worker's reply
// encoder, the servant's page buffer) are held on free lists the collector
// does not empty, so draining with a collection before every drain allocates
// what it does without one.
func TestRemoteCursorPageAllocationsAcrossGC(t *testing.T) {
	plain, _ := drainAllocations(t, false)
	perPage, wire := drainAllocations(t, true)
	t.Logf("pages of %d wire bytes: %d bytes allocated per page across collections, %d without", wire, perPage, plain)
	if perPage > plain+plain/50 {
		t.Fatalf("a page allocates %d bytes with a collection before every drain, %d without: a buffer was refilled", perPage, plain)
	}
}

// TestCursorPagesSurviveBufferReuse holds the lending contract to its three
// release points: pages decoded while their receive buffers are recycled
// under other streams read back right, a page an unscoped colocated caller
// kept is never recycled, and a scoped caller's error is neither retried nor
// allowed to keep the receive buffer.
func TestCursorPagesSurviveBufferReuse(t *testing.T) {
	ctx := context.Background()
	conn := lendConn(t, 4*MaxPageRows)
	servant, _ := NewISIServant(conn, "Oracle", "LEND", nil)
	want := func(q string) *Result {
		t.Helper()
		res, err := conn.Query(ctx, q)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	t.Run("six streams on one connection", func(t *testing.T) {
		rconn, _ := serveISI(t, servant)
		mark := markLive()
		const streams = 6
		queries := make([]string, streams)
		wants := make([]*Result, streams)
		for g := range queries {
			queries[g] = fmt.Sprintf("SELECT k, s FROM r WHERE k >= %d", 500*g)
			wants[g] = want(queries[g])
		}
		got := make([]*Result, streams)
		errs := make([]error, streams)
		var wg sync.WaitGroup
		for g := range queries {
			wg.Add(1)
			go func() {
				defer wg.Done()
				it, err := rconn.QueryCursor(ctx, queries[g], 64)
				if err == nil {
					got[g], err = Drain(ctx, it)
				}
				errs[g] = err
			}()
		}
		wg.Wait()
		for g := range queries {
			if errs[g] != nil {
				t.Fatalf("stream %d: %v", g, errs[g])
			}
			sameResult(t, queries[g], got[g], wants[g])
		}
		mark.check(t)
	})

	t.Run("an unscoped colocated page is kept", func(t *testing.T) {
		o := orb.New(orb.Options{Product: orb.VisiBroker})
		if err := o.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Shutdown)
		ior, err := o.Activate("ISI/LEND", servant)
		if err != nil {
			t.Fatal(err)
		}
		ref := o.Resolve(ior)
		const q = "SELECT k, s FROM r WHERE k < 700"
		a, err := ref.InvokeCtx(ctx, "open_cursor", idl.String(q), idl.Long(0))
		if err != nil {
			t.Fatal(err)
		}
		page, _ := a.Get("page")
		kept := bytes.Clone(page.Bytes())
		// Later opens, scoped and not, encode pages of their own, from the
		// pool the scoped ones hand their pages back to.
		rconn := NewRemoteConn(ref)
		for i := 0; i < 20; i++ {
			it, err := rconn.QueryCursor(ctx, fmt.Sprintf("SELECT s, k FROM r WHERE k >= %d", 100*i), 64)
			if err == nil {
				_, err = Drain(ctx, it)
			}
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.InvokeCtx(ctx, "open_cursor", idl.String("SELECT s FROM r WHERE k < 900"), idl.Long(0)); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(page.Bytes(), kept) {
			t.Fatal("a page handed to an unscoped colocated caller was written over")
		}
		b, err := decodePage(page.Bytes(), 2)
		if err != nil {
			t.Fatal(err)
		}
		got := &Result{}
		for i := 0; i < b.Len(); i++ {
			got.Rows = append(got.Rows, b.Row(nil, i))
		}
		b.Release()
		sameResult(t, "kept page", got, want(q))
	})

	t.Run("an error from use is not retried", func(t *testing.T) {
		server := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
		if err := server.Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(server.Shutdown)
		ior, err := server.Activate("ISI/LEND", servant)
		if err != nil {
			t.Fatal(err)
		}
		client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true, RetryAttempts: 3})
		t.Cleanup(client.Shutdown)
		ref := client.Resolve(ior)
		// A transport-class error: the retry loop would have retried it.
		refused := &orb.SystemException{Name: orb.ExcCommFailure, Detail: "use refused the reply"}
		held := giop.LiveMessages()
		uses := 0
		err = ref.InvokeScoped(ctx, "open_cursor", true, func(a idl.Any) error {
			uses++
			if page, _ := a.Get("page"); len(page.Bytes()) == 0 {
				t.Error("use got no page")
			}
			return refused
		}, idl.String("SELECT k, s FROM r"), idl.Long(0))
		if err != refused || uses != 1 {
			t.Fatalf("InvokeScoped = %v after %d use(s), want use's own error after one", err, uses)
		}
		if r := client.Stats.Retries.Load(); r != 0 {
			t.Fatalf("the client retried %d time(s)", r)
		}
		if s := server.Stats.RequestsServed.Load(); s != 1 {
			t.Fatalf("the servant ran %d time(s), want 1", s)
		}
		// The server releases its request after the reply is out, so wait
		// for both ends' buffers.
		for deadline := time.Now().Add(2 * time.Second); giop.LiveMessages() > held; {
			if time.Now().After(deadline) {
				t.Fatalf("%d receive buffer(s) still held", giop.LiveMessages()-held)
			}
			time.Sleep(time.Millisecond)
		}
	})
}

// BenchmarkCursorFetchIIOP times one cursor page of 1 024 rows (a long long
// and a string column) over loopback IIOP: the open, the page's encoding into
// a lent buffer, the reply, and the decode in the receive buffer.
func BenchmarkCursorFetchIIOP(b *testing.B) {
	servant, _ := NewISIServant(lendConn(b, MaxPageRows), "Oracle", "LEND", nil)
	rconn, _ := serveISI(b, servant)
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		it, err := rconn.QueryCursor(ctx, "SELECT k, s FROM r", MaxPageRows)
		if err != nil {
			b.Fatal(err)
		}
		page, err := it.Next(ctx)
		if err != nil || page.Len() != MaxPageRows {
			b.Fatalf("page of %v rows: %v", page, err)
		}
		b.SetBytes(int64(page.WireBytes()))
		page.Release()
		it.Close()
	}
}
