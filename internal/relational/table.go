package relational

import (
	"fmt"
	"slices"
	"sort"
	"strings"
)

// Index is a secondary (or primary-key) index over one or more columns. The
// key for a single-column index is the column value itself, which enables
// range scans; multi-column keys are encoded strings and support equality
// only.
type Index struct {
	Name   string
	Cols   []int
	Unique bool
	tree   *btree
}

func (ix *Index) keyFor(row Row) Value {
	if len(ix.Cols) == 1 {
		return row[ix.Cols[0]]
	}
	vals := make([]Value, len(ix.Cols))
	for i, c := range ix.Cols {
		vals[i] = row[c]
	}
	return TextValue(encodeKey(vals))
}

// Table is one table with optional indexes, stored column-major: cols[c][s]
// holds the value of column c in slot s, so the batched executor can scan a
// column as one contiguous vector. Slots are append-only between
// compactions, which keeps slot order equal to insertion order, and row IDs
// ascend with the slots: a scan that remembers the last ID it saw finds its
// place again by binary search, whatever was compacted in between. All access
// is mediated by the owning Database's lock.
type Table struct {
	schema  Schema
	cols    [][]Value     // one value vector per schema column; equal lengths
	ids     []int64       // slot -> row ID
	live    []bool        // slot liveness; false marks a tombstone
	slots   map[int64]int // row ID -> slot, for live rows and tombstones
	dead    int           // tombstoned slots not yet compacted away
	nextID  int64
	indexes map[string]*Index // by lower-cased index name
	pk      *Index            // non-nil when the schema has a primary key
}

func newTable(schema Schema) *Table {
	t := &Table{
		schema:  schema,
		cols:    make([][]Value, len(schema.Columns)),
		slots:   make(map[int64]int),
		indexes: make(map[string]*Index),
	}
	if len(schema.PrimaryKey) > 0 {
		t.pk = &Index{
			Name:   "pk_" + strings.ToLower(schema.Name),
			Cols:   append([]int(nil), schema.PrimaryKey...),
			Unique: true,
			tree:   newBTree(),
		}
	}
	return t
}

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return &t.schema }

// Len reports the live row count.
func (t *Table) Len() int { return len(t.ids) - t.dead }

// checkRow validates a row against column constraints and coerces values to
// the declared types.
func (t *Table) checkRow(row Row) (Row, error) {
	if len(row) != len(t.schema.Columns) {
		return nil, fmt.Errorf("relational: table %s expects %d values, got %d",
			t.schema.Name, len(t.schema.Columns), len(row))
	}
	out := make(Row, len(row))
	for i, col := range t.schema.Columns {
		v, err := Coerce(row[i], col.Type)
		if err != nil {
			return nil, fmt.Errorf("relational: table %s column %s: %w", t.schema.Name, col.Name, err)
		}
		if v.Null && col.NotNull {
			return nil, fmt.Errorf("relational: table %s column %s: NULL not allowed", t.schema.Name, col.Name)
		}
		if col.Size > 0 && !v.Null && len(v.Str) > col.Size {
			return nil, fmt.Errorf("relational: table %s column %s: value exceeds VARCHAR(%d)",
				t.schema.Name, col.Name, col.Size)
		}
		out[i] = v
	}
	return out, nil
}

// appendRow appends a row in a fresh slot at the end of the scan order.
func (t *Table) appendRow(id int64, row Row) {
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], row[c])
	}
	t.ids = append(t.ids, id)
	t.live = append(t.live, true)
	t.slots[id] = len(t.ids) - 1
}

// rowAt materialises a copy of the row stored in the given slot.
func (t *Table) rowAt(s int) Row {
	row := make(Row, len(t.cols))
	for c, col := range t.cols {
		row[c] = col[s]
	}
	return row
}

// rowByID materialises a copy of the live row with the given ID.
func (t *Table) rowByID(id int64) (Row, bool) {
	s, ok := t.slots[id]
	if !ok || !t.live[s] {
		return nil, false
	}
	return t.rowAt(s), true
}

// insert adds a row, enforcing uniqueness, and returns its row ID.
func (t *Table) insert(row Row) (int64, error) {
	row, err := t.checkRow(row)
	if err != nil {
		return 0, err
	}
	if err := t.checkUnique(row, -1); err != nil {
		return 0, err
	}
	t.nextID++
	id := t.nextID
	t.appendRow(id, row)
	t.indexRow(id, row)
	return id, nil
}

// insertWithID restores a row under a prior ID (transaction rollback path).
// The row reappears at its original position in the scan order: in its
// tombstoned slot if that is still present, in a slot opened where its ID
// belongs if a compaction has squeezed the tombstone out.
func (t *Table) insertWithID(id int64, row Row) error {
	if s, ok := t.slots[id]; ok {
		if t.live[s] {
			return fmt.Errorf("relational: table %s: row %d already exists", t.schema.Name, id)
		}
		for c := range t.cols {
			t.cols[c][s] = row[c]
		}
		t.live[s] = true
		t.dead--
	} else if n := len(t.ids); n == 0 || t.ids[n-1] < id {
		t.appendRow(id, row)
	} else {
		s := sort.Search(n, func(i int) bool { return t.ids[i] > id })
		for c := range t.cols {
			t.cols[c] = slices.Insert(t.cols[c], s, row[c])
		}
		t.ids = slices.Insert(t.ids, s, id)
		t.live = slices.Insert(t.live, s, true)
		for i := s; i <= n; i++ {
			t.slots[t.ids[i]] = i
		}
	}
	t.indexRow(id, row)
	return nil
}

func (t *Table) checkUnique(row Row, skipID int64) error {
	check := func(ix *Index, label string) error {
		key := ix.keyFor(row)
		if key.Null {
			return nil // NULLs never collide, per SQL
		}
		for _, id := range ix.tree.Lookup(key) {
			if id != skipID {
				return fmt.Errorf("relational: table %s: duplicate %s value %s",
					t.schema.Name, label, key)
			}
		}
		return nil
	}
	if t.pk != nil {
		if err := check(t.pk, "primary key"); err != nil {
			return err
		}
	}
	for _, ix := range t.indexes {
		if !ix.Unique {
			continue
		}
		if err := check(ix, "unique index "+ix.Name); err != nil {
			return err
		}
	}
	return nil
}

func (t *Table) indexRow(id int64, row Row) {
	if t.pk != nil {
		t.pk.tree.Insert(t.pk.keyFor(row), id)
	}
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.keyFor(row), id)
	}
}

func (t *Table) unindexRow(id int64, row Row) {
	if t.pk != nil {
		t.pk.tree.Delete(t.pk.keyFor(row), id)
	}
	for _, ix := range t.indexes {
		ix.tree.Delete(ix.keyFor(row), id)
	}
}

// delete removes the row with the given ID and returns the old row.
func (t *Table) delete(id int64) (Row, error) {
	s, ok := t.slots[id]
	if !ok || !t.live[s] {
		return nil, fmt.Errorf("relational: table %s: no row %d", t.schema.Name, id)
	}
	row := t.rowAt(s)
	t.live[s] = false
	t.dead++
	for c := range t.cols {
		t.cols[c][s] = Value{} // release payload references
	}
	t.unindexRow(id, row)
	t.maybeCompact()
	return row, nil
}

// update replaces the row with the given ID and returns the old row.
func (t *Table) update(id int64, newRow Row) (Row, error) {
	s, ok := t.slots[id]
	if !ok || !t.live[s] {
		return nil, fmt.Errorf("relational: table %s: no row %d", t.schema.Name, id)
	}
	old := t.rowAt(s)
	newRow, err := t.checkRow(newRow)
	if err != nil {
		return nil, err
	}
	if err := t.checkUnique(newRow, id); err != nil {
		return nil, err
	}
	t.unindexRow(id, old)
	for c := range t.cols {
		t.cols[c][s] = newRow[c]
	}
	t.indexRow(id, newRow)
	return old, nil
}

// maybeCompact squeezes tombstoned slots out of the column vectors when they
// dominate, preserving the relative order of live rows.
func (t *Table) maybeCompact() {
	if t.dead < 64 || t.dead*2 < len(t.ids) {
		return
	}
	w := 0
	for s, id := range t.ids {
		if !t.live[s] {
			delete(t.slots, id)
			continue
		}
		if w != s {
			for c := range t.cols {
				t.cols[c][w] = t.cols[c][s]
			}
			t.ids[w] = id
			t.slots[id] = w
		}
		w++
	}
	for c := range t.cols {
		clear(t.cols[c][w:])
		t.cols[c] = t.cols[c][:w]
	}
	t.ids = t.ids[:w]
	t.live = t.live[:w]
	for s := range t.live {
		t.live[s] = true
	}
	t.dead = 0
}

// scan visits live rows in insertion order; fn returns false to stop. The
// row passed to fn aliases a buffer reused across calls and must not be
// retained past the callback.
func (t *Table) scan(fn func(id int64, row Row) bool) {
	buf := make(Row, len(t.cols))
	for s, id := range t.ids {
		if !t.live[s] {
			continue
		}
		for c, col := range t.cols {
			buf[c] = col[s]
		}
		if !fn(id, buf) {
			return
		}
	}
}

// singleColIndex is an index over exactly column col (the primary key, if it
// is one), or nil.
func (t *Table) singleColIndex(col int) *Index {
	if t.pk != nil && len(t.pk.Cols) == 1 && t.pk.Cols[0] == col {
		return t.pk
	}
	for _, ix := range t.indexes {
		if len(ix.Cols) == 1 && ix.Cols[0] == col {
			return ix
		}
	}
	return nil
}

// createIndex builds a new secondary index over an existing table.
func (t *Table) createIndex(name string, col int, unique bool) error {
	key := strings.ToLower(name)
	if _, exists := t.indexes[key]; exists {
		return fmt.Errorf("relational: index %s already exists", name)
	}
	ix := &Index{Name: name, Cols: []int{col}, Unique: unique, tree: newBTree()}
	// Verify uniqueness before publishing the index.
	if unique {
		seen := make(map[string]bool, t.Len())
		var dupErr error
		t.scan(func(_ int64, row Row) bool {
			v := ix.keyFor(row)
			if v.Null {
				return true
			}
			k := encodeKey([]Value{v})
			if seen[k] {
				dupErr = fmt.Errorf("relational: cannot create unique index %s: duplicate value %s", name, v)
				return false
			}
			seen[k] = true
			return true
		})
		if dupErr != nil {
			return dupErr
		}
	}
	t.scan(func(id int64, row Row) bool {
		ix.tree.Insert(ix.keyFor(row), id)
		return true
	})
	t.indexes[key] = ix
	return nil
}

func (t *Table) dropIndex(name string) error {
	key := strings.ToLower(name)
	if _, ok := t.indexes[key]; !ok {
		return fmt.Errorf("relational: no index %s on table %s", name, t.schema.Name)
	}
	delete(t.indexes, key)
	return nil
}

// IndexNames lists the table's secondary indexes, sorted.
func (t *Table) IndexNames() []string {
	names := make([]string, 0, len(t.indexes))
	for _, ix := range t.indexes {
		names = append(names, ix.Name)
	}
	sort.Strings(names)
	return names
}
