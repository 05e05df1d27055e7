package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Result carries the outcome of one statement: column names and rows for
// SELECT, the inserted-row count for INSERT.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int64
}

// Format renders the result as an aligned text table (used by the shell, the
// examples and the figure reproductions).
func (r *Result) Format() string {
	if len(r.Columns) == 0 {
		return fmt.Sprintf("OK, %d row(s) affected", r.RowsAffected)
	}
	widths := make([]int, len(r.Columns))
	for i, c := range r.Columns {
		widths[i] = len(c)
	}
	cells := make([][]string, len(r.Rows))
	for ri, row := range r.Rows {
		cells[ri] = make([]string, len(row))
		for ci, v := range row {
			s := v.String()
			cells[ri][ci] = s
			if ci < len(widths) && len(s) > widths[ci] {
				widths[ci] = len(s)
			}
		}
	}
	var b strings.Builder
	writeRow := func(vals []string) {
		for i, v := range vals {
			if i > 0 {
				b.WriteString(" | ")
			}
			b.WriteString(v)
			for p := len(v); p < widths[i]; p++ {
				b.WriteByte(' ')
			}
		}
		b.WriteByte('\n')
	}
	writeRow(r.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("-+-")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range cells {
		writeRow(row)
	}
	fmt.Fprintf(&b, "(%d row(s))\n", len(r.Rows))
	return b.String()
}

// Database is one engine instance: a named catalog of append-only tables
// guarded by a readers-writer lock, with a vendor dialect profile. Its
// contents are loaded by CREATE TABLE, CREATE INDEX and INSERT, then read.
type Database struct {
	name    string
	dialect Dialect

	mu      sync.RWMutex
	tables  map[string]*Table // by lower-cased name
	indexes map[string]bool   // index names, lower-cased

	// schemaVer is bumped by every CREATE statement; cached plans parsed under
	// an older version are re-parsed on next use (mirrors the federation
	// metadata cache's version-stamp invalidation).
	schemaVer atomic.Uint64
	plans     *planCache

	// chunks counts the steps walks over tables have taken (rows.go).
	chunks atomic.Int64
}

// NewDatabase creates an empty database with the given dialect.
func NewDatabase(name string, dialect Dialect) *Database {
	return &Database{
		name:    name,
		dialect: dialect,
		tables:  make(map[string]*Table),
		indexes: make(map[string]bool),
		plans:   newPlanCache(defaultPlanCacheCap),
	}
}

// bumpSchema invalidates cached plans after a CREATE.
func (db *Database) bumpSchema() { db.schemaVer.Add(1) }

// SchemaVersion returns the monotonic CREATE version counter.
func (db *Database) SchemaVersion() uint64 { return db.schemaVer.Load() }

// parseCached parses a script through the per-database plan cache. Entries
// are keyed by exact query text and revalidated against the schema version,
// so a plan cached before a CREATE is re-parsed on next use. Parse
// errors are not cached.
func (db *Database) parseCached(sql string) ([]Statement, error) {
	v := db.schemaVer.Load()
	if stmts, ok := db.plans.get(sql, v); ok {
		return stmts, nil
	}
	stmts, err := ParseSQLScript(sql)
	if err != nil {
		return nil, err
	}
	db.plans.put(sql, stmts, v)
	return stmts, nil
}

// parseOneCached is parseCached restricted to a single statement, matching
// ParseSQL's contract.
func (db *Database) parseOneCached(sql string) (Statement, error) {
	stmts, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	if len(stmts) != 1 {
		return nil, fmt.Errorf("sql: expected one statement, got %d", len(stmts))
	}
	return stmts[0], nil
}

// Name returns the database name.
func (db *Database) Name() string { return db.name }

// ChunksScanned counts the steps walks over tables (full scans and index
// lookups) have taken since the database was created, each a run of at most
// 1 024 table slots or index candidates. It stands still when no walk is running: a
// closed or exhausted cursor costs nothing.
func (db *Database) ChunksScanned() int64 { return db.chunks.Load() }

// Dialect returns the vendor profile.
func (db *Database) Dialect() Dialect { return db.dialect }

// TableNames lists tables, sorted.
func (db *Database) TableNames() []string {
	db.mu.RLock()
	defer db.mu.RUnlock()
	names := make([]string, 0, len(db.tables))
	for _, t := range db.tables {
		names = append(names, t.schema.Name)
	}
	sort.Strings(names)
	return names
}

// Table returns the named table's handle (read-only use must still go
// through Exec/Query for locking; this accessor serves catalog inspection).
func (db *Database) Table(name string) (*Table, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	t, ok := db.tables[strings.ToLower(name)]
	return t, ok
}

// Exec parses and executes one statement.
func (db *Database) Exec(sql string) (*Result, error) {
	stmt, err := db.parseOneCached(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// ExecScript executes a semicolon-separated script, returning the last
// result.
func (db *Database) ExecScript(sql string) (*Result, error) {
	stmts, err := db.parseCached(sql)
	if err != nil {
		return nil, err
	}
	var last *Result
	for _, stmt := range stmts {
		last, err = db.ExecStmt(stmt)
		if err != nil {
			return nil, err
		}
	}
	return last, nil
}

// parseQuery parses sql through the plan cache and admits it if it only reads.
func (db *Database) parseQuery(sql string) (Statement, error) {
	stmt, err := db.parseOneCached(sql)
	if err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *SelectStmt, *ExplainStmt: // both are read-only
		return stmt, nil
	}
	return nil, fmt.Errorf("relational: Query requires SELECT, got %s", describeStmt(stmt))
}

// Query is Exec restricted to SELECT: the statement's iterator (rows.go)
// drained under one hold of the read lock, so the result is a snapshot.
func (db *Database) Query(sql string) (*Result, error) {
	stmt, err := db.parseQuery(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt)
}

// ExecStmt executes a parsed statement.
func (db *Database) ExecStmt(stmt Statement) (*Result, error) {
	if err := db.dialect.Check(stmt); err != nil {
		return nil, err
	}
	switch s := stmt.(type) {
	case *SelectStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.execSelect(s)
	case *InsertStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execInsert(s)
	case *CreateTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreateTable(s)
	case *CreateIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreateIndex(s)
	case *ExplainStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.explainSelect(s.Query)
	}
	return nil, fmt.Errorf("relational: unsupported statement %s", describeStmt(stmt))
}

func (db *Database) table(name string) (*Table, error) {
	t, ok := db.tables[strings.ToLower(name)]
	if !ok {
		return nil, fmt.Errorf("relational: %s: no such table %s", db.name, name)
	}
	return t, nil
}

func (db *Database) execCreateTable(s *CreateTableStmt) (*Result, error) {
	key := strings.ToLower(s.Schema.Name)
	if _, exists := db.tables[key]; exists {
		if s.IfNotExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("relational: %s: table %s already exists", db.name, s.Schema.Name)
	}
	db.tables[key] = newTable(s.Schema)
	db.bumpSchema()
	return &Result{}, nil
}

func (db *Database) execCreateIndex(s *CreateIndexStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ixKey := strings.ToLower(s.Name)
	if db.indexes[ixKey] {
		return nil, fmt.Errorf("relational: %s: index %s already exists", db.name, s.Name)
	}
	col := t.schema.ColIndex(s.Column)
	if col < 0 {
		return nil, fmt.Errorf("relational: %s: table %s has no column %s", db.name, s.Table, s.Column)
	}
	if err := t.createIndex(s.Name, col, s.Unique); err != nil {
		return nil, err
	}
	db.indexes[ixKey] = true
	db.bumpSchema()
	return &Result{}, nil
}

func (db *Database) execInsert(s *InsertStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ords, err := insertOrdinals(t, s.Columns)
	if err != nil {
		return nil, err
	}

	// VALUES rows see no columns: each expression is compiled against none
	// and evaluated over one row. A literal is its own value, so a load
	// script's INSERT of literals compiles nothing.
	var sourceRows []Row
	var c *vctx
	for _, exprs := range s.Rows {
		row := make(Row, len(exprs))
		for i, e := range exprs {
			if lit, ok := e.(*Literal); ok {
				row[i] = lit.Val
				continue
			}
			if err := new(refPass).expr(e, false); err != nil {
				return nil, err
			}
			if c == nil {
				c = getVctx()
				defer c.release()
			}
			compileExpr(e, nil).eval(c, &vbatch{}, []int{0}, row[i:i+1])
		}
		sourceRows = append(sourceRows, row)
	}

	res := &Result{}
	for _, src := range sourceRows {
		if len(src) != len(ords) {
			return nil, fmt.Errorf("relational: %s: INSERT expects %d values, got %d",
				db.name, len(ords), len(src))
		}
		full := make(Row, len(t.schema.Columns))
		for i := range full {
			full[i] = NullValue()
		}
		for i, ord := range ords {
			full[ord] = src[i]
		}
		if err := t.insert(full); err != nil {
			return nil, err
		}
		res.RowsAffected++
	}
	return res, nil
}

func insertOrdinals(t *Table, cols []string) ([]int, error) {
	if len(cols) == 0 {
		ords := make([]int, len(t.schema.Columns))
		for i := range ords {
			ords[i] = i
		}
		return ords, nil
	}
	ords := make([]int, len(cols))
	seen := make(map[int]bool, len(cols))
	for i, c := range cols {
		ord := t.schema.ColIndex(c)
		if ord < 0 {
			return nil, fmt.Errorf("relational: table %s has no column %s", t.schema.Name, c)
		}
		if seen[ord] {
			return nil, fmt.Errorf("relational: column %s listed twice", c)
		}
		seen[ord] = true
		ords[i] = ord
	}
	return ords, nil
}

// splitConjuncts flattens a tree of ANDs into its conjuncts.
func splitConjuncts(e Expr) []Expr {
	if e == nil {
		return nil
	}
	if b, ok := e.(*Binary); ok && b.Op == "AND" {
		return append(splitConjuncts(b.L), splitConjuncts(b.R)...)
	}
	return []Expr{e}
}
