package gateway

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/idl"
	"repro/internal/oodb"
	"repro/internal/relational"
)

// Capabilities is a vendor's pushdown profile: which parts of a coalition
// function query the engine can evaluate itself, so the federated planner
// knows what to ship into the fragment and what to compensate for at the
// coordinator. Profiles are keyed by the engine name a source descriptor
// advertises — which is a claim, not a guarantee; the executor still
// tolerates an engine rejecting a pushed clause at run time.
type Capabilities struct {
	Predicates bool // evaluates pushed comparison conjuncts (= <> < <= > >=)
	Like       bool // evaluates pushed LIKE patterns
	Limit      bool // honours a pushed LIMIT clause
	InList     bool // evaluates a pushed literal IN list (semi-join key set)
}

// CapsFor resolves the capability profile for an advertised engine name.
// Relational vendors derive from their dialect profile (mSQL 2.x shipped
// RLIKE/CLIKE instead of standard LIKE, so LIKE stays at the coordinator,
// and wanted OR chains instead of IN lists, so semi-join key sets do too);
// the object engines evaluate every predicate but their OQL grammar has no
// LIMIT clause or IN operator. An unknown engine gets the zero profile —
// push nothing, the coordinator compensates for everything.
func CapsFor(engine string) Capabilities {
	switch engine {
	case "ObjectStore", "Ontos":
		return Capabilities{Predicates: true, Like: true, Limit: false, InList: false}
	}
	if d, err := relational.DialectByName(engine); err == nil {
		return Capabilities{Predicates: true, Like: d.Like, Limit: d.OrderLimit, InList: d.InList}
	}
	return Capabilities{}
}

// RelationalDriver serves connections to registered in-process relational
// engine instances. One driver instance is registered per vendor scheme
// ("oracle", "msql", "db2", "sybase"); Open(name) connects to the database
// registered under that name, enforcing that its dialect matches the scheme.
type RelationalDriver struct {
	vendor string // dialect name the scheme promises

	mu  sync.RWMutex
	dbs map[string]*relational.Database
}

// NewRelationalDriver creates a driver for one vendor.
func NewRelationalDriver(vendor string) *RelationalDriver {
	return &RelationalDriver{vendor: vendor, dbs: make(map[string]*relational.Database)}
}

// Add registers a database instance under its name.
func (d *RelationalDriver) Add(db *relational.Database) error {
	if db.Dialect().Name != d.vendor {
		return fmt.Errorf("gateway: database %s has dialect %s, driver serves %s",
			db.Name(), db.Dialect().Name, d.vendor)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dbs[strings.ToLower(db.Name())] = db
	return nil
}

// Open implements Driver.
func (d *RelationalDriver) Open(name string) (Conn, error) {
	d.mu.RLock()
	db, ok := d.dbs[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no %s database named %s", d.vendor, name)
	}
	return &relConn{db: db, session: db.NewSession(), vendor: d.vendor}, nil
}

type relConn struct {
	db      *relational.Database
	session *relational.Session
	vendor  string
	closed  bool
}

func (c *relConn) check() error {
	if c.closed {
		return fmt.Errorf("gateway: connection to %s is closed", c.db.Name())
	}
	return nil
}

// Query implements Conn like RemoteConn.Query: the cursor's one batch, drained.
func (c *relConn) Query(ctx context.Context, q string) (*Result, error) {
	it, err := c.QueryCursor(ctx, q, 0)
	if err != nil {
		return nil, err
	}
	return Drain(ctx, it)
}

// QueryCursor implements Conn. The engine is in-process and synchronous, so
// the context is not consulted mid-statement. Nothing runs here beyond
// planning and whatever blocking operator the statement has (relational/rows.go):
// each Next pulls one page of rows from the engine's iterator and types it
// into a batch, so no value is boxed on its way to the wire and Close stops
// the walk.
func (c *relConn) QueryCursor(_ context.Context, q string, batchSize int) (RowIter, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	rows, err := c.db.QueryRows(q)
	if err != nil {
		return nil, err
	}
	return &localIter{cols: rows.Columns(), page: max(batchSize, 0), src: relRows{rows}}, nil
}

// relRows is the batchSource over a relational engine iterator.
type relRows struct{ rows *relational.Rows }

// relChunks recycles the column buffers the engine fills, so an iterator
// holds none between two pages.
var relChunks = sync.Pool{New: func() any { return new(relational.Chunk) }}

func (s relRows) held() int { return s.rows.Held() }
func (s relRows) close()    { s.rows.Close() }
func (s relRows) fill(b *Batch, most int) (bool, error) {
	ch := relChunks.Get().(*relational.Chunk)
	defer func() {
		for _, col := range ch.Cols {
			clear(col) // a parked chunk pins no result data
		}
		relChunks.Put(ch)
	}()
	ch.Cols = slices.Grow(ch.Cols[:0], len(b.cols))[:len(b.cols)]
	done, err := s.rows.Next(ch, most)
	if err != nil {
		return false, err
	}
	for j := range b.cols {
		fillRelational(&b.cols[j], ch.Cols[j][:ch.N])
	}
	b.rows = ch.N
	return done, nil
}

// fillRelational appends one column of engine values to a batch column, each
// by its own type: nothing is boxed.
func fillRelational(col *column, vals []relational.Value) {
	for r, v := range vals {
		switch {
		case v.Null:
			col.appendNull(r)
		case v.Kind == relational.TypeInt:
			col.appendInt(r, v.Int)
		case v.Kind == relational.TypeFloat:
			col.appendFloat(r, v.Float)
		case v.Kind == relational.TypeBool:
			col.appendBool(r, v.Bool)
		default: // TEXT, DATE
			col.appendString(r, v.Str)
		}
	}
}

func (c *relConn) Exec(_ context.Context, q string) (*Result, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	res, err := c.session.Exec(q)
	if err != nil {
		return nil, err
	}
	return fromRelational(res), nil
}

func (c *relConn) Begin() error {
	if err := c.check(); err != nil {
		return err
	}
	return c.session.Begin()
}

func (c *relConn) Commit() error {
	if err := c.check(); err != nil {
		return err
	}
	return c.session.Commit()
}

func (c *relConn) Rollback() error {
	if err := c.check(); err != nil {
		return err
	}
	return c.session.Rollback()
}

func (c *relConn) Meta() SourceMeta {
	return SourceMeta{Engine: c.vendor, Database: c.db.Name(), Model: "relational"}
}

func (c *relConn) Tables() []string { return c.db.TableNames() }

func (c *relConn) Close() error {
	if c.session.InTx() {
		if err := c.session.Rollback(); err != nil {
			return err
		}
	}
	c.closed = true
	return nil
}

// fromRelational converts an engine result to the gateway's wire result.
func fromRelational(r *relational.Result) *Result {
	out := &Result{Columns: r.Columns, RowsAffected: r.RowsAffected}
	for _, row := range r.Rows {
		vals := make([]idl.Any, len(row))
		for i, v := range row {
			vals[i] = relValueToAny(v)
		}
		out.Rows = append(out.Rows, vals)
	}
	return out
}

func relValueToAny(v relational.Value) idl.Any {
	if v.Null {
		return idl.Null()
	}
	switch v.Kind {
	case relational.TypeInt:
		return idl.Long(v.Int)
	case relational.TypeFloat:
		return idl.Double(v.Float)
	case relational.TypeBool:
		return idl.Bool(v.Bool)
	default: // TEXT, DATE
		return idl.String(v.Str)
	}
}

// ObjectDriver serves connections to registered in-process object-oriented
// engine instances; registered per product scheme ("objectstore", "ontos").
type ObjectDriver struct {
	product string

	mu  sync.RWMutex
	dbs map[string]*oodb.DB
}

// NewObjectDriver creates a driver for one OODB product.
func NewObjectDriver(product string) *ObjectDriver {
	return &ObjectDriver{product: product, dbs: make(map[string]*oodb.DB)}
}

// Add registers a database instance under its name.
func (d *ObjectDriver) Add(db *oodb.DB) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dbs[strings.ToLower(db.Name())] = db
}

// Open implements Driver.
func (d *ObjectDriver) Open(name string) (Conn, error) {
	d.mu.RLock()
	db, ok := d.dbs[strings.ToLower(name)]
	d.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no %s database named %s", d.product, name)
	}
	return &ooConn{db: db, product: d.product}, nil
}

type ooConn struct {
	db      *oodb.DB
	product string
	closed  bool
}

func (c *ooConn) check() error {
	if c.closed {
		return fmt.Errorf("gateway: connection to %s is closed", c.db.Name())
	}
	return nil
}

// Query implements Conn like relConn.Query.
func (c *ooConn) Query(ctx context.Context, q string) (*Result, error) {
	it, err := c.QueryCursor(ctx, q, 0)
	if err != nil {
		return nil, err
	}
	return Drain(ctx, it)
}

// QueryCursor implements Conn like relConn.QueryCursor (in-process, so the
// context is not consulted): each Next pulls one page from the engine's
// iterator over the class extent as it stood at open. Every OQL query
// streams. The engine's values are boxed already; string lists have no typed
// vector and travel in a fallback column.
func (c *ooConn) QueryCursor(_ context.Context, q string, batchSize int) (RowIter, error) {
	if err := c.check(); err != nil {
		return nil, err
	}
	rows, err := oodb.QueryRows(c.db, q)
	if err != nil {
		return nil, err
	}
	return &localIter{cols: rows.Columns(), page: max(batchSize, 0), src: ooRows{rows}}, nil
}

// ooRows is the batchSource over an object engine iterator, which holds no
// rows.
type ooRows struct{ rows *oodb.Rows }

var ooChunks = sync.Pool{New: func() any { return new(oodb.Chunk) }}

func (s ooRows) held() int { return 0 }
func (s ooRows) close()    { s.rows.Close() }
func (s ooRows) fill(b *Batch, most int) (bool, error) {
	ch := ooChunks.Get().(*oodb.Chunk)
	defer func() {
		for _, col := range ch.Cols {
			clear(col) // a parked chunk pins no result data
		}
		ooChunks.Put(ch)
	}()
	ch.Cols = slices.Grow(ch.Cols[:0], len(b.cols))[:len(b.cols)]
	done := s.rows.Next(ch, most)
	for j := range b.cols {
		for r, v := range ch.Cols[j] {
			b.cols[j].appendAny(r, ooValueToAny(v))
		}
	}
	b.rows = ch.N
	return done, nil
}

// Exec on an OO connection accepts the same query language (reads only; the
// OO engines are populated through their native API, as in the paper's
// prototype where co-databases are maintained by the system).
func (c *ooConn) Exec(ctx context.Context, q string) (*Result, error) { return c.Query(ctx, q) }

func (c *ooConn) Begin() error {
	return fmt.Errorf("gateway: %s connections do not support transactions", c.product)
}

func (c *ooConn) Commit() error   { return c.Begin() }
func (c *ooConn) Rollback() error { return c.Begin() }

func (c *ooConn) Meta() SourceMeta {
	return SourceMeta{Engine: c.product, Database: c.db.Name(), Model: "object-oriented"}
}

func (c *ooConn) Tables() []string { return c.db.ClassNames() }

func (c *ooConn) Close() error {
	c.closed = true
	return nil
}

func ooValueToAny(v any) idl.Any {
	switch x := v.(type) {
	case nil:
		return idl.Null()
	case string:
		return idl.String(x)
	case int64:
		return idl.Long(x)
	case float64:
		return idl.Double(x)
	case bool:
		return idl.Bool(x)
	case []string:
		return idl.Strings(x)
	default:
		return idl.String(fmt.Sprintf("%v", x))
	}
}
