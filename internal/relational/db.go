package relational

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Result carries the outcome of one statement: column names and rows for
// SELECT, affected-row counts for DML.
type Result struct {
	Columns      []string
	Rows         []Row
	RowsAffected int64
	LastInsertID int64
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

// Database is one engine instance: a named catalog of tables guarded by a
// readers-writer lock, with a vendor dialect profile.
type Database struct {
	name    string
	dialect Dialect

	mu      sync.RWMutex
	tables  map[string]*Table // by lower-cased name
	indexes map[string]string // index name (lower) -> table name (lower)

	// schemaVer is bumped by every DDL statement; cached plans parsed under
	// an older version are re-parsed on next use (mirrors the federation
	// metadata cache's version-stamp invalidation).
	schemaVer atomic.Uint64
	plans     *planCache

	// rowExec forces the seed row-at-a-time interpreter instead of the
	// batched executor; tests use it to compare both engines. Set it before
	// issuing queries, not concurrently with them.
	rowExec bool

	// chunks counts the steps walks over tables have taken (rows.go).
	chunks atomic.Int64
}

// NewDatabase creates an empty database with the given dialect.
func NewDatabase(name string, dialect Dialect) *Database {
	return &Database{
		name:    name,
		dialect: dialect,
		tables:  make(map[string]*Table),
		indexes: make(map[string]string),
		plans:   newPlanCache(defaultPlanCacheCap),
	}
}

// bumpSchema invalidates cached plans after a DDL change.
func (db *Database) bumpSchema() { db.schemaVer.Add(1) }

// SchemaVersion returns the monotonic DDL version counter.
func (db *Database) SchemaVersion() uint64 { return db.schemaVer.Load() }

// parseCached parses a script through the per-database plan cache. Entries
// are keyed by exact query text and revalidated against the schema version,
// so a plan cached before a CREATE/DROP is re-parsed on next use. Parse
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
// 1 024 table slots or row IDs. It stands still when no walk is running: a
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

// Exec parses and executes one statement outside any transaction.
func (db *Database) Exec(sql string) (*Result, error) {
	stmt, err := db.parseOneCached(sql)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(stmt, nil)
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
		last, err = db.ExecStmt(stmt, nil)
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
	return db.ExecStmt(stmt, nil)
}

// ExecStmt executes a parsed statement; tx, when non-nil, records undo
// operations for rollback.
func (db *Database) ExecStmt(stmt Statement, tx *Tx) (*Result, error) {
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
		return db.execInsert(s, tx)
	case *UpdateStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execUpdate(s, tx)
	case *DeleteStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDelete(s, tx)
	case *CreateTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreateTable(s)
	case *DropTableStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDropTable(s)
	case *CreateIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execCreateIndex(s)
	case *DropIndexStmt:
		db.mu.Lock()
		defer db.mu.Unlock()
		return db.execDropIndex(s)
	case *ExplainStmt:
		db.mu.RLock()
		defer db.mu.RUnlock()
		return db.explainSelect(s.Query)
	case *BeginStmt, *CommitStmt, *RollbackStmt:
		return nil, fmt.Errorf("relational: %s must go through a Session", describeStmt(stmt))
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

func (db *Database) execDropTable(s *DropTableStmt) (*Result, error) {
	key := strings.ToLower(s.Table)
	if _, exists := db.tables[key]; !exists {
		if s.IfExists {
			return &Result{}, nil
		}
		return nil, fmt.Errorf("relational: %s: no such table %s", db.name, s.Table)
	}
	delete(db.tables, key)
	for ixName, tbl := range db.indexes {
		if tbl == key {
			delete(db.indexes, ixName)
		}
	}
	db.bumpSchema()
	return &Result{}, nil
}

func (db *Database) execCreateIndex(s *CreateIndexStmt) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ixKey := strings.ToLower(s.Name)
	if _, exists := db.indexes[ixKey]; exists {
		return nil, fmt.Errorf("relational: %s: index %s already exists", db.name, s.Name)
	}
	col := t.schema.ColIndex(s.Column)
	if col < 0 {
		return nil, fmt.Errorf("relational: %s: table %s has no column %s", db.name, s.Table, s.Column)
	}
	if err := t.createIndex(s.Name, col, s.Unique); err != nil {
		return nil, err
	}
	db.indexes[ixKey] = strings.ToLower(s.Table)
	db.bumpSchema()
	return &Result{}, nil
}

func (db *Database) execDropIndex(s *DropIndexStmt) (*Result, error) {
	ixKey := strings.ToLower(s.Name)
	tblKey, ok := db.indexes[ixKey]
	if !ok {
		return nil, fmt.Errorf("relational: %s: no such index %s", db.name, s.Name)
	}
	t := db.tables[tblKey]
	if err := t.dropIndex(s.Name); err != nil {
		return nil, err
	}
	delete(db.indexes, ixKey)
	db.bumpSchema()
	return &Result{}, nil
}

func (db *Database) execInsert(s *InsertStmt, tx *Tx) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	ords, err := insertOrdinals(t, s.Columns)
	if err != nil {
		return nil, err
	}

	var sourceRows []Row
	switch {
	case s.Query != nil:
		res, err := db.execSelect(s.Query)
		if err != nil {
			return nil, err
		}
		sourceRows = res.Rows
	default:
		env := &evalEnv{}
		for _, exprs := range s.Rows {
			row := make(Row, len(exprs))
			for i, e := range exprs {
				v, err := eval(e, env)
				if err != nil {
					return nil, err
				}
				row[i] = v
			}
			sourceRows = append(sourceRows, row)
		}
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
		id, err := t.insert(full)
		if err != nil {
			return nil, err
		}
		if tx != nil {
			tbl, rowID := t, id
			tx.record(func() error {
				_, err := tbl.delete(rowID)
				return err
			})
		}
		res.RowsAffected++
		res.LastInsertID = id
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

func (db *Database) execUpdate(s *UpdateStmt, tx *Tx) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	env := envForTable(t, s.Table)
	type setOp struct {
		ord int
		e   Expr
	}
	sets := make([]setOp, len(s.Set))
	for i, sc := range s.Set {
		ord := t.schema.ColIndex(sc.Column)
		if ord < 0 {
			return nil, fmt.Errorf("relational: table %s has no column %s", t.schema.Name, sc.Column)
		}
		sets[i] = setOp{ord: ord, e: sc.Value}
	}

	where, _, err := db.rewriteSubqueries(s.Where)
	if err != nil {
		return nil, err
	}
	ids, err := matchingRowIDs(t, where, env)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, id := range ids {
		old, ok := t.rowByID(id)
		if !ok {
			continue
		}
		env.row = old
		newRow := old.Clone()
		for _, op := range sets {
			v, err := eval(op.e, env)
			if err != nil {
				return nil, err
			}
			newRow[op.ord] = v
		}
		prev, err := t.update(id, newRow)
		if err != nil {
			return nil, err
		}
		if tx != nil {
			tbl, rowID, oldRow := t, id, prev
			tx.record(func() error {
				_, err := tbl.update(rowID, oldRow)
				return err
			})
		}
		res.RowsAffected++
	}
	return res, nil
}

func (db *Database) execDelete(s *DeleteStmt, tx *Tx) (*Result, error) {
	t, err := db.table(s.Table)
	if err != nil {
		return nil, err
	}
	env := envForTable(t, s.Table)
	where, _, err := db.rewriteSubqueries(s.Where)
	if err != nil {
		return nil, err
	}
	ids, err := matchingRowIDs(t, where, env)
	if err != nil {
		return nil, err
	}
	res := &Result{}
	for _, id := range ids {
		old, err := t.delete(id)
		if err != nil {
			return nil, err
		}
		if tx != nil {
			tbl, rowID, oldRow := t, id, old
			tx.record(func() error {
				return tbl.insertWithID(rowID, oldRow)
			})
		}
		res.RowsAffected++
	}
	return res, nil
}

// envForTable builds an eval environment exposing one table's columns under
// both the table name and its own name (UPDATE/DELETE have no aliases).
func envForTable(t *Table, binding string) *evalEnv {
	env := &evalEnv{}
	b := strings.ToLower(binding)
	for _, c := range t.schema.Columns {
		env.cols = append(env.cols, colBinding{table: b, name: strings.ToLower(c.Name)})
	}
	return env
}

// matchingRowIDs evaluates a WHERE clause over a table and returns matching
// row IDs, ascending (all rows when where is nil). It reads the candidates of
// the index access the clause's conjuncts allow, if chooseIndex takes one.
func matchingRowIDs(t *Table, where Expr, env *evalEnv) ([]int64, error) {
	var ids []int64
	var evalErr error
	visit := func(id int64, row Row) bool {
		if where == nil {
			ids = append(ids, id)
			return true
		}
		env.row = row
		v, err := eval(where, env)
		if err != nil {
			evalErr = err
			return false
		}
		if b, ok := v.Truthy(); ok && b {
			ids = append(ids, id)
		}
		return true
	}
	var acc indexAccess
	if chooseIndex(t, env.cols, splitConjuncts(where), &acc); acc.ix != nil {
		buf := make(Row, len(t.cols))
		for _, id := range acc.rowIDs() {
			s := t.slots[id] // an index holds live rows only
			for c, cv := range t.cols {
				buf[c] = cv[s]
			}
			if !visit(id, buf) {
				break
			}
		}
	} else {
		t.scan(visit)
	}
	if evalErr != nil {
		return nil, evalErr
	}
	return ids, nil
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

// ---- Sessions and transactions ----

// Session is one client's connection-scoped view of the database, carrying
// an optional open transaction. Sessions are not safe for concurrent use by
// multiple goroutines (match the semantics of a JDBC connection).
type Session struct {
	db *Database
	tx *Tx
}

// Tx is an open transaction: an undo log applied in reverse on rollback.
type Tx struct {
	undo []func() error
}

func (tx *Tx) record(fn func() error) { tx.undo = append(tx.undo, fn) }

// NewSession opens a session.
func (db *Database) NewSession() *Session { return &Session{db: db} }

// Exec parses and executes one statement in the session, honouring
// transaction control statements.
func (s *Session) Exec(sql string) (*Result, error) {
	stmt, err := s.db.parseOneCached(sql)
	if err != nil {
		return nil, err
	}
	if err := s.db.dialect.Check(stmt); err != nil {
		return nil, err
	}
	switch stmt.(type) {
	case *BeginStmt:
		return &Result{}, s.Begin()
	case *CommitStmt:
		return &Result{}, s.Commit()
	case *RollbackStmt:
		return &Result{}, s.Rollback()
	}
	return s.db.ExecStmt(stmt, s.tx)
}

// Begin opens a transaction.
func (s *Session) Begin() error {
	if !s.db.dialect.Transactions {
		return fmt.Errorf("relational: %s does not support transactions", s.db.dialect.Name)
	}
	if s.tx != nil {
		return fmt.Errorf("relational: transaction already open")
	}
	s.tx = &Tx{}
	return nil
}

// Commit makes the transaction's effects permanent (they already are; the
// undo log is discarded).
func (s *Session) Commit() error {
	if s.tx == nil {
		return fmt.Errorf("relational: no open transaction")
	}
	s.tx = nil
	return nil
}

// Rollback undoes every DML effect of the open transaction, in reverse.
func (s *Session) Rollback() error {
	if s.tx == nil {
		return fmt.Errorf("relational: no open transaction")
	}
	tx := s.tx
	s.tx = nil
	s.db.mu.Lock()
	defer s.db.mu.Unlock()
	for i := len(tx.undo) - 1; i >= 0; i-- {
		if err := tx.undo[i](); err != nil {
			return fmt.Errorf("relational: rollback: %w", err)
		}
	}
	return nil
}
