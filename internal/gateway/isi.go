package gateway

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"repro/internal/cdr"
	"repro/internal/cursor"
	"repro/internal/freelist"
	"repro/internal/idl"
	"repro/internal/orb"
	"repro/internal/trace"
)

// ISIIDL is the Information Source Interface: the CORBA face of one
// database. It is the object the paper's data layer exposes per source
// ("an information source interface provides access to a specific database
// server ... delivering requests from the communication layer and retrieving
// results from this database").
var ISIIDL = idl.MustParse(`
module WebFINDIT {
    interface ISI {
        any open_cursor(in string q, in long long batch);
        any fetch_cursor(in long long id);
        void close_cursor(in long long id);
    };
};
`)[0]

// NewISIServant wraps a connection to the database named database, run by
// engine, in an ISI servant, and returns the servant's cursor table so the
// node can publish its stats. clock drives the idle reaper (nil: time.Now;
// simulations inject one). Invocations are serialised with a mutex because
// gateway connections, like JDBC connections, are single-threaded.
//
// open_cursor opens a per-driver timing span ("isi.cursor:<engine>", with a
// "database" attribute), so the time a source's engine spends on each
// statement is visible in the trace of the query that reached it. The span
// covers the open alone: planning (and any blocking operator the plan has)
// plus the first page. Its "rows" attribute is that page's row count and
// "held" the rows the cursor holds for later pages: 0 when they are read from
// the engine's tables as they are asked for.
func NewISIServant(conn Conn, engine, database string, clock func() time.Time) (orb.Servant, *cursor.Table) {
	var mu sync.Mutex
	cursors := cursor.NewTable(0, 0, clock)
	h := orb.NewHandler(ISIIDL)
	s := &isiServant{Handler: h, replies: freelist.New(8, func() []idl.Field { return make([]idl.Field, 0, 4) })}
	h.OnCtx("open_cursor", func(ctx context.Context, args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		ctx, sp := trace.StartSpan(ctx, "isi.cursor:"+engine)
		sp.SetAttr("database", database)
		batch := int(args[1].Int)
		// At the cap no cursor can be retained: answer the whole result in
		// one page, past the byte budget too, instead of failing.
		full := cursors.Full()
		if full {
			batch = 0
		}
		it, err := conn.QueryCursor(ctx, args[0].Str, batch)
		if err != nil {
			sp.End(err)
			return idl.Null(), &orb.UserException{Name: "QueryError", Message: err.Error()}
		}
		src := &pageSource{it: it, whole: full}
		id, first, done, err := cursors.OpenSource(src)
		sp.SetAttrInt("rows", src.rows)
		sp.SetAttrInt("held", src.Held())
		sp.End(err)
		if err != nil {
			return idl.Null(), cursorException(err)
		}
		fs := append(s.replies.Get()[:0],
			idl.F("id", idl.Long(id)),
			idl.F("columns", idl.Strings(it.Columns())),
			idl.F("page", first[0]),
			idl.F("done", idl.Bool(done)),
		)
		return idl.Struct(fs...), nil
	})
	h.On("fetch_cursor", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		page, done, err := cursors.Fetch(args[0].Int)
		if err != nil {
			return idl.Null(), cursorException(err)
		}
		return idl.Struct(append(s.replies.Get()[:0], idl.F("page", page[0]), idl.F("done", idl.Bool(done)))...), nil
	})
	h.On("close_cursor", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		cursors.Close(args[0].Int)
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	return s, cursors
}

// isiServant is the ISI handler. The ORB hands its cursor replies back, and
// their page buffers and field arrays (each with room for open_cursor's four
// fields, as many as callers keep replies in flight) go back on free lists.
type isiServant struct {
	*orb.Handler
	replies freelist.List[[]idl.Field]
}

// ReleaseResult implements orb.ResultReleaser.
func (s *isiServant) ReleaseResult(_ string, result idl.Any) {
	if p, ok := result.Get("page"); ok && p.Kind == idl.KindOctets {
		releasePage(p.Bytes())
	}
	if fs := result.Fields(); cap(fs) >= 4 {
		clear(fs)
		s.replies.Put(fs)
	}
}

// cursorException types a cursor table error for the wire: the table's own
// refusals (unknown or reaped cursor, cap) are CursorErrors, anything else
// came from the engine behind the cursor's source and is the QueryError the
// statement would have raised had it run whole at open.
func cursorException(err error) error {
	name := "QueryError"
	if errors.Is(err, cursor.ErrNotFound) || errors.Is(err, cursor.ErrTooMany) {
		name = "CursorError"
	}
	return &orb.UserException{Name: name, Message: err.Error()}
}

// pageSource is a cursor's source over a connection's iterator: each call
// encodes one cursor page, an idl.Octets item, of the batch the iterator last
// gave, pulling the next batch once that one is all sent. A page ends at the
// batch's end or at giop.PageBudget bytes, whichever comes first (pageEnd),
// so a batch of large rows, a batch-0 open's whole result among them, leaves
// as several pages, one fetch each, and the rest of it waits here. There is
// always a first page, empty for an empty result. In-process iterators do not
// consult the context, so a fetch, which has none of the open's, passes the
// background one.
type pageSource struct {
	it    RowIter
	whole bool       // no byte budget: the open at the cursor cap sends all
	b     *Batch     // the batch being sent, until its last row is
	lo    int        // b's first row not sent yet
	last  bool       // b is the iterator's last batch
	rows  int        // rows of the page last encoded
	one   [1]idl.Any // the batch Next returns, reused
}

func (s *pageSource) Next() ([]idl.Any, bool, error) {
	if s.b == nil {
		b, err := s.it.Next(context.Background())
		s.last = err == io.EOF
		if s.last {
			b = newBatch(len(s.it.Columns()))
		} else if err != nil {
			return nil, false, err
		} else if cs, ok := s.it.(cursorState); ok {
			s.last = cs.Exhausted()
		}
		s.b, s.lo = b, 0
	}
	b, lo, hi := s.b, s.lo, s.b.rows
	if !s.whole {
		hi = pageEnd(b, lo)
	}
	s.rows = hi - lo
	s.one[0] = idl.Octets(encodePage(b, lo, hi, cdr.BigEndian))
	if hi < b.rows {
		s.lo = hi
		return s.one[:], false, nil
	}
	b.Release()
	s.b = nil
	return s.one[:], s.last, nil
}

// Held counts the rows of the batch not sent yet with what the iterator
// holds.
func (s *pageSource) Held() int {
	n := 0
	if s.b != nil {
		n = s.b.rows - s.lo
	}
	if cs, ok := s.it.(cursorState); ok {
		n += cs.Held()
	}
	return n
}

func (s *pageSource) Close() {
	if s.b != nil {
		s.b.Release()
		s.b = nil
	}
	s.it.Close()
}

// RemoteConn is a gateway connection whose engine lives behind an ISI
// servant reachable through the ORB. It lets the federation treat remote
// sources exactly like local ones.
type RemoteConn struct {
	ref    *orb.ObjectRef
	closed bool
}

// NewRemoteConn wraps an ISI object reference.
func NewRemoteConn(ref *orb.ObjectRef) *RemoteConn { return &RemoteConn{ref: ref} }

func (c *RemoteConn) check() error {
	if c.closed {
		return fmt.Errorf("gateway: remote connection is closed")
	}
	return nil
}

// Query implements Conn: the context travels through the ORB hop, so the
// remote ISI's driver span joins the caller's trace and the deadline bounds
// the exchange. The open is idempotent, so its transport failures retry under
// the client ORB's retry policy.
//
// It is QueryCursor with batch 0 (the whole result in the open round trip, no
// server state) drained. Prefer QueryCursor for results that may be large.
func (c *RemoteConn) Query(ctx context.Context, q string) (*Result, error) {
	it, err := c.QueryCursor(ctx, q, 0)
	if err != nil {
		return nil, err
	}
	return Drain(ctx, it)
}

// ProtocolError reports an ISI cursor reply that does not have the shape the
// protocol promises. Replies come from another process, so the client checks
// them before trusting them.
type ProtocolError struct {
	Op     string // "open_cursor" or "fetch_cursor"
	Reason string
}

func (e *ProtocolError) Error() string {
	return "gateway: malformed " + e.Op + " reply: " + e.Reason
}

// cursorPage validates one open_cursor or fetch_cursor reply of a cursor over
// width columns and decodes its page. An empty page from a cursor that is not
// done is an error: a client that accepted it would fetch again, forever.
// The reply is lent (InvokeScoped): its page is recycled once this returns.
// decodePage copies all it keeps (string(run), typed vectors, appended
// bitmaps, idl.UnmarshalAny), so nothing outlives the page
// (TestDecodedPageOwnsItsValues).
func cursorPage(op string, a idl.Any, width int) (b *Batch, done bool, err error) {
	if a.Kind != idl.KindStruct {
		return nil, false, &ProtocolError{op, "reply is " + a.Kind.String() + ", not struct"}
	}
	p, ok := a.Get("page")
	if !ok || p.Kind != idl.KindOctets {
		return nil, false, &ProtocolError{op, "page is not an octet sequence"}
	}
	d, ok := a.Get("done")
	if !ok || d.Kind != idl.KindBool {
		return nil, false, &ProtocolError{op, "done is not a boolean"}
	}
	if b, err = decodePage(p.Bytes(), width); err != nil {
		return nil, false, &ProtocolError{op, "page: " + err.Error()}
	}
	if b.Len() == 0 && !d.Bool {
		b.Release()
		return nil, false, &ProtocolError{op, "empty page from a cursor that is not done"}
	}
	return b, d.Bool, nil
}

// QueryCursor implements Conn over the ISI cursor protocol: open_cursor plans
// the query and returns its first page (a small result costs one round trip
// and leaves no server state), fetch_cursor has the engine produce the
// following, growing pages on demand, close_cursor stops the scan of an
// abandoned stream. A servant at its cursor cap answers the whole result in
// the open reply. An error the engine meets past the first page (an
// expression that fails on a later row) comes back from the Next that reaches
// it.
func (c *RemoteConn) QueryCursor(ctx context.Context, q string, batchSize int) (RowIter, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	// Idempotent: a re-sent open answers the same first page. If only the
	// reply was lost, the first open's cursor is left behind until the idle
	// reaper collects it (it counts against the cap until then).
	it := &remoteCursorIter{conn: c}
	it.args[0], it.args[1] = idl.String(q), idl.Long(int64(batchSize))
	err := c.ref.InvokeScoped(ctx, "open_cursor", true, func(a idl.Any) (err error) {
		cols, _ := a.Get("columns")
		it.id, it.cols = a.GetInt("id"), cols.StringSlice()
		it.first, it.done, err = cursorPage("open_cursor", a, len(it.cols))
		return err
	}, it.args[:2]...)
	if err != nil {
		it.Close() // the reply may still name a live cursor (no reply: id 0)
		return nil, remapISIError(err)
	}
	return it, nil
}

// remoteCursorIter pulls pages from a server-side ISI cursor, one round trip
// each, only when asked: the consumer's pace is the producer's pace.
type remoteCursorIter struct {
	conn   *RemoteConn
	id     int64
	cols   []string
	first  *Batch // the open reply's page, until Next hands it out
	done   bool   // server reported the cursor exhausted (and removed it)
	closed bool
	args   [2]idl.Any // the open's and each fetch's arguments, not one slice a call
}

func (it *remoteCursorIter) Columns() []string { return it.cols }

func (it *remoteCursorIter) Next(ctx context.Context) (*Batch, error) {
	if it.closed {
		return nil, fmt.Errorf("gateway: cursor iterator is closed")
	}
	if b := it.first; b != nil {
		it.first = nil
		if b.Len() > 0 {
			return b, nil
		}
		b.Release() // an empty result's only page
	}
	if it.done {
		return nil, io.EOF
	}
	// Not idempotent: fetch_cursor names no page, so a re-sent one after a
	// lost reply would answer the page after the lost one. A failed fetch is
	// a member that died mid-stream; the merge drops it by provenance.
	var b *Batch
	it.args[0] = idl.Long(it.id)
	err := it.conn.ref.InvokeScoped(ctx, "fetch_cursor", false, func(a idl.Any) (err error) {
		b, it.done, err = cursorPage("fetch_cursor", a, len(it.cols))
		return err
	}, it.args[:1]...)
	if err != nil {
		// The fetch failed (cursor reaped, member died, ctx over) or its page
		// did not decode: done stays false, so Close still tries.
		return nil, remapISIError(err)
	}
	if b.Len() == 0 {
		b.Release() // the row that was seen to follow is gone
		return nil, io.EOF
	}
	return b, nil
}

// Close releases the server-side cursor. It is detached from the caller's
// context on purpose: cancelling a stream (LIMIT satisfied, Rows.Close) is
// exactly when the close RPC must still go out.
func (it *remoteCursorIter) Close() error {
	if it.closed {
		return nil
	}
	it.closed = true
	if it.first != nil {
		it.first.Release()
		it.first = nil
	}
	if it.done || it.id == 0 {
		return nil // exhausted cursors are already gone server-side
	}
	ctx, cancel := context.WithTimeout(context.Background(), closeCursorTimeout)
	defer cancel()
	_, err := it.conn.ref.InvokeIdempotent(ctx, "close_cursor", idl.Long(it.id))
	return err
}

// closeCursorTimeout bounds the detached close_cursor round trip. Losing the
// race just means the idle reaper collects the cursor later.
const closeCursorTimeout = 2 * time.Second

// Close implements Conn.
func (c *RemoteConn) Close() error {
	c.closed = true
	return nil
}

// remapISIError unwraps ISI user exceptions into plain errors so callers see
// the engine's message rather than exception plumbing.
func remapISIError(err error) error {
	if ue, ok := err.(*orb.UserException); ok {
		return fmt.Errorf("%s", ue.Message)
	}
	return err
}

var _ Conn = (*RemoteConn)(nil)
