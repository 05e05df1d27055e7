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
        any exec(in string q);
        any meta();
        sequence<any> tables();
        any open_cursor(in string q, in long long batch);
        any fetch_cursor(in long long id);
        void close_cursor(in long long id);
    };
};
`)[0]

// ISIServantOptions tune the servant's cursor table; the zero value selects
// the cursor package defaults.
type ISIServantOptions struct {
	CursorMaxOpen int              // per-connection open-cursor cap
	CursorIdleTTL time.Duration    // idle reap threshold
	Clock         func() time.Time // nil = time.Now (simulations inject one)
}

// NewISIServant wraps a connection in an ISI servant with default cursor
// options. Invocations are serialised with a mutex because gateway
// connections, like JDBC connections, are single-threaded. open_cursor and
// exec each open a per-driver timing span ("isi.cursor:<engine>",
// "isi.exec:<engine>"), so the time a source's engine spends on each
// statement is visible in the trace of the query that reached it. A cursor's
// span covers the open alone: planning (and any blocking operator the plan
// has) plus the first page. Its "rows" attribute is that page's row count and
// "held" the rows the cursor holds for later pages: 0 when they are read from
// the engine's tables as they are asked for.
func NewISIServant(conn Conn) orb.Servant {
	s, _ := NewISIServantWith(conn, ISIServantOptions{})
	return s
}

// NewISIServantWith is NewISIServant with cursor options; it also returns
// the servant's cursor table so the node can publish its stats.
func NewISIServantWith(conn Conn, opts ISIServantOptions) (orb.Servant, *cursor.Table) {
	var mu sync.Mutex
	meta := conn.Meta()
	cursors := cursor.NewTable(opts.CursorMaxOpen, opts.CursorIdleTTL, opts.Clock)
	h := orb.NewHandler(ISIIDL)
	h.OnCtx("open_cursor", func(ctx context.Context, args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		ctx, sp := trace.StartSpan(ctx, "isi.cursor:"+meta.Engine)
		sp.SetAttr("database", meta.Database)
		batch := int(args[1].Int)
		if cursors.Full() {
			// At the cap no cursor can be retained: answer the whole result
			// in one page, as a batch-0 open would get, instead of failing.
			batch = 0
		}
		it, err := conn.QueryCursor(ctx, args[0].Str, batch)
		if err != nil {
			sp.End(err)
			return idl.Null(), &orb.UserException{Name: "QueryError", Message: err.Error()}
		}
		src := &pageSource{it: it}
		id, first, done, err := cursors.OpenSource(src)
		sp.SetAttrInt("rows", src.rows)
		sp.SetAttrInt("held", src.Held())
		sp.End(err)
		if err != nil {
			return idl.Null(), cursorException(err)
		}
		var affected int64
		if ra, ok := it.(rowsAffected); ok {
			affected = ra.RowsAffected()
		}
		return idl.Struct(
			idl.F("id", idl.Long(id)),
			idl.F("columns", idl.Strings(it.Columns())),
			idl.F("affected", idl.Long(affected)),
			idl.F("page", first[0]),
			idl.F("done", idl.Bool(done)),
		), nil
	})
	h.On("fetch_cursor", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		page, done, err := cursors.Fetch(args[0].Int)
		if err != nil {
			return idl.Null(), cursorException(err)
		}
		return idl.Struct(idl.F("page", page[0]), idl.F("done", idl.Bool(done))), nil
	})
	h.On("close_cursor", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		cursors.Close(args[0].Int)
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	h.OnCtx("exec", func(ctx context.Context, args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		ctx, sp := trace.StartSpan(ctx, "isi.exec:"+meta.Engine)
		sp.SetAttr("database", meta.Database)
		res, err := conn.Exec(ctx, args[0].Str)
		sp.End(err)
		if err != nil {
			return idl.Null(), &orb.UserException{Name: "ExecError", Message: err.Error()}
		}
		return res.ToAny(), nil
	})
	h.On("meta", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		m := conn.Meta()
		return idl.Struct(
			idl.F("engine", idl.String(m.Engine)),
			idl.F("database", idl.String(m.Database)),
			idl.F("model", idl.String(m.Model)),
		), nil
	})
	h.On("tables", func(args []idl.Any) (idl.Any, error) {
		mu.Lock()
		defer mu.Unlock()
		return idl.Strings(conn.Tables()), nil
	})
	return h, cursors
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
// pulls one batch and encodes it as one cursor page, an idl.Octets item. There
// is always a first page, empty for an empty result. In-process iterators do
// not consult the context, so a fetch, which has none of the open's, passes
// the background one.
type pageSource struct {
	it   RowIter
	rows int        // rows of the page last encoded
	one  [1]idl.Any // the batch Next returns, reused
}

func (s *pageSource) Next() ([]idl.Any, bool, error) {
	b, err := s.it.Next(context.Background())
	done := err == io.EOF
	if done {
		b = newBatch(len(s.it.Columns()))
	} else if err != nil {
		return nil, false, err
	} else if cs, ok := s.it.(cursorState); ok {
		done = cs.Exhausted()
	}
	s.rows = b.Len()
	s.one[0] = idl.Octets(encodePage(b, cdr.BigEndian))
	b.Release()
	return s.one[:], done, nil
}

func (s *pageSource) Held() int {
	if cs, ok := s.it.(cursorState); ok {
		return cs.Held()
	}
	return 0
}

func (s *pageSource) Close() { s.it.Close() }

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
	if b, err = decodePage(p.Bytes, width); err != nil {
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
	a, err := c.ref.InvokeIdempotent(ctx, "open_cursor", idl.String(q), idl.Long(int64(batchSize)))
	if err != nil {
		return nil, remapISIError(err)
	}
	cols, _ := a.Get("columns")
	it := &remoteCursorIter{conn: c, id: a.GetInt("id"), cols: cols.StringSlice(), affected: a.GetInt("affected")}
	if it.first, it.done, err = cursorPage("open_cursor", a, len(it.cols)); err != nil {
		it.Close() // the reply may still name a live cursor
		return nil, err
	}
	return it, nil
}

// remoteCursorIter pulls pages from a server-side ISI cursor, one round trip
// each, only when asked: the consumer's pace is the producer's pace.
type remoteCursorIter struct {
	conn     *RemoteConn
	id       int64
	cols     []string
	affected int64
	first    *Batch // the open reply's page, until Next hands it out
	done     bool   // server reported the cursor exhausted (and removed it)
	closed   bool
}

func (it *remoteCursorIter) Columns() []string   { return it.cols }
func (it *remoteCursorIter) RowsAffected() int64 { return it.affected }

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
	a, err := it.conn.ref.InvokeCtx(ctx, "fetch_cursor", idl.Long(it.id))
	if err != nil {
		// The fetch failed (cursor reaped, member died, ctx over): the
		// server-side cursor may still exist, so Close still tries.
		return nil, remapISIError(err)
	}
	b, done, err := cursorPage("fetch_cursor", a, len(it.cols))
	if err != nil {
		return nil, err // done stays false, so Close still releases the cursor
	}
	it.done = done
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

// Exec implements Conn. Statements may mutate, so they are never retried
// transparently.
func (c *RemoteConn) Exec(ctx context.Context, q string) (*Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	a, err := c.ref.InvokeCtx(ctx, "exec", idl.String(q))
	if err != nil {
		return nil, remapISIError(err)
	}
	return ResultFromAny(a)
}

// Begin is unsupported across the ISI boundary (as in the paper's prototype,
// remote access is per-statement).
func (c *RemoteConn) Begin() error {
	return fmt.Errorf("gateway: remote connections do not support transactions")
}

// Commit implements Conn.
func (c *RemoteConn) Commit() error { return c.Begin() }

// Rollback implements Conn.
func (c *RemoteConn) Rollback() error { return c.Begin() }

// Meta implements Conn by asking the remote side.
func (c *RemoteConn) Meta() SourceMeta {
	a, err := c.ref.Invoke("meta")
	if err != nil {
		return SourceMeta{Engine: "unreachable"}
	}
	return SourceMeta{
		Engine:   a.GetString("engine"),
		Database: a.GetString("database"),
		Model:    a.GetString("model"),
	}
}

// Tables implements Conn by asking the remote side.
func (c *RemoteConn) Tables() []string {
	a, err := c.ref.Invoke("tables")
	if err != nil {
		return nil
	}
	return a.StringSlice()
}

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

// RemoteDriver opens connections to ISI servants via stringified IORs
// (DSN form "remote://IOR:...").
type RemoteDriver struct {
	ORB *orb.ORB
}

// Open implements Driver.
func (d *RemoteDriver) Open(name string) (Conn, error) {
	ref, err := d.ORB.ResolveString(name)
	if err != nil {
		return nil, err
	}
	return NewRemoteConn(ref), nil
}

var _ Conn = (*RemoteConn)(nil)
var _ Driver = (*RemoteDriver)(nil)
var _ Driver = (*RelationalDriver)(nil)
var _ Driver = (*ObjectDriver)(nil)
