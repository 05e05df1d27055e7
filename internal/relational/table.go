package relational

import (
	"fmt"
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
// column as one contiguous vector. A table is append-only: slot s holds row
// ID s+1, in insertion order, and no row is ever moved or removed, so a walk,
// an index's candidates and the row oracle all address a row by its slot. All
// access is mediated by the owning Database's lock.
type Table struct {
	schema  Schema
	cols    [][]Value         // one value vector per schema column; equal lengths
	indexes map[string]*Index // by lower-cased index name
	pk      *Index            // non-nil when the schema has a primary key
}

func newTable(schema Schema) *Table {
	t := &Table{
		schema:  schema,
		cols:    make([][]Value, len(schema.Columns)),
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

// Len reports the row count, which is also the next row's slot.
func (t *Table) Len() int { return len(t.cols[0]) }

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

// insert appends a row in the next slot, enforcing uniqueness.
func (t *Table) insert(row Row) error {
	row, err := t.checkRow(row)
	if err != nil {
		return err
	}
	if err := t.checkUnique(row); err != nil {
		return err
	}
	s := t.Len()
	for c := range t.cols {
		t.cols[c] = append(t.cols[c], row[c])
	}
	if t.pk != nil {
		t.pk.tree.Insert(t.pk.keyFor(row), s)
	}
	for _, ix := range t.indexes {
		ix.tree.Insert(ix.keyFor(row), s)
	}
	return nil
}

func (t *Table) checkUnique(row Row) error {
	check := func(ix *Index, label string) error {
		key := ix.keyFor(row)
		if key.Null {
			return nil // NULLs never collide, per SQL
		}
		if ix.tree.Lookup(key) != nil {
			return fmt.Errorf("relational: table %s: duplicate %s value %s",
				t.schema.Name, label, key)
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

// scan visits the rows in slot order; fn returns false to stop. The row
// passed to fn aliases a buffer reused across calls and must not be retained
// past the callback.
func (t *Table) scan(fn func(s int, row Row) bool) {
	buf := make(Row, len(t.cols))
	for s := range t.Len() {
		for c, col := range t.cols {
			buf[c] = col[s]
		}
		if !fn(s, buf) {
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

// createIndex builds a new secondary index over an existing table, refusing
// a unique one the rows already break.
func (t *Table) createIndex(name string, col int, unique bool) error {
	ix := &Index{Name: name, Cols: []int{col}, Unique: unique, tree: newBTree()}
	var err error
	t.scan(func(s int, row Row) bool {
		key := ix.keyFor(row)
		if unique && !key.Null && ix.tree.Lookup(key) != nil {
			err = fmt.Errorf("relational: cannot create unique index %s: duplicate value %s", name, key)
			return false
		}
		ix.tree.Insert(key, s)
		return true
	})
	if err != nil {
		return err
	}
	t.indexes[strings.ToLower(name)] = ix
	return nil
}
