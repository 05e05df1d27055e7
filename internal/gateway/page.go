package gateway

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cdr"
	"repro/internal/idl"
)

// MaxPageRows is where cursor pages stop growing: the first page of a cursor
// holds the batch size its client asked for, every later page twice its
// predecessor, up to this many rows (the relational engine's vector size).
// The schedule depends on nothing but the rows served, so the same statement
// always pages the same way.
const MaxPageRows = 1024

// nextPageRows is the page growth schedule. A first page above MaxPageRows
// (a client that asked for more) keeps its size.
func nextPageRows(rows int) int {
	if rows >= MaxPageRows {
		return rows
	}
	return min(2*rows, MaxPageRows)
}

// Batch is a column-major block of result rows: what a RowIter yields and
// what one cursor page decodes into. Each column holds its values in one
// typed vector when they share a kind (long long, double, boolean, string,
// NULLs marked in a bitmap) and boxed as idl.Any values when they do not
// (KindAny, the fallback: mixed kinds, or kinds with no typed vector such as
// the object engines' string lists).
//
// Batches come from a pool. Whoever receives one from RowIter.Next owns it and
// must Release it exactly once; values read from it stay valid afterwards
// (strings are immutable, boxed values are not reused).
type Batch struct {
	rows int
	cols []column
	sel  []int32 // physical rows kept, in order; meaningful once kept is set
	kept bool    // Keep has run: the batch is a selection of its rows
	wire int     // bytes of the page this batch was decoded from
}

type column struct {
	kind   idl.Kind // KindNull until the first non-NULL value arrives
	nulls  []byte   // bit r set: row r is NULL; may be shorter than the column
	ints   []int64
	floats []float64
	bits   []byte // booleans, one bit per row
	strs   []string
	anys   []idl.Any
}

var batchPool = sync.Pool{New: func() any { return new(Batch) }}

// liveBatches counts batches handed out and not yet released.
var liveBatches atomic.Int64

// LiveBatches reports how many batches are out of the pool. A drained or
// closed stream leaves the count where it found it; the leak tests say so.
func LiveBatches() int64 { return liveBatches.Load() }

// newBatch takes a zero-row batch of ncols untyped columns from the pool.
func newBatch(ncols int) *Batch {
	b := batchPool.Get().(*Batch)
	liveBatches.Add(1)
	if cap(b.cols) < ncols {
		b.cols = make([]column, ncols)
	}
	b.cols = b.cols[:ncols]
	return b
}

// pooledCols is the widest batch the pool keeps whole: a wider one (far more
// columns than any function query projects) gives its columns up on Release.
const pooledCols = 64

// Release returns the batch to the pool. Vectors keep their capacity but drop
// what they reference, so a parked batch pins no result data.
func (b *Batch) Release() {
	if cap(b.cols) > pooledCols {
		b.cols = nil
	}
	for i := range b.cols {
		c := &b.cols[i]
		clear(c.strs)
		clear(c.anys)
		*c = column{nulls: c.nulls[:0], ints: c.ints[:0], floats: c.floats[:0],
			bits: c.bits[:0], strs: c.strs[:0], anys: c.anys[:0]}
	}
	*b = Batch{cols: b.cols[:0], sel: b.sel[:0]}
	liveBatches.Add(-1)
	batchPool.Put(b)
}

// Len is the number of rows in the batch (of kept rows, after Keep).
func (b *Batch) Len() int {
	if b.kept {
		return len(b.sel)
	}
	return b.rows
}

// Cols is the number of columns.
func (b *Batch) Cols() int { return len(b.cols) }

// WireBytes is the size of the encoded page the batch was decoded from; 0 for
// a batch an in-process engine produced.
func (b *Batch) WireBytes() int { return b.wire }

// Value returns the value of column col in row i as a self-describing Any.
func (b *Batch) Value(col, i int) idl.Any {
	if b.kept {
		i = int(b.sel[i])
	}
	return b.cols[col].value(i)
}

// Row appends row i's values to dst: the row-major rendering of the row.
func (b *Batch) Row(dst []idl.Any, i int) []idl.Any {
	for col := range b.cols {
		dst = append(dst, b.Value(col, i))
	}
	return dst
}

// Keep narrows the batch to the rows keep reports true for, preserving their
// order. Later calls narrow further; indexes are always into the current
// rows.
func (b *Batch) Keep(keep func(i int) bool) {
	n := b.Len()
	out := b.sel[:0]
	for i := 0; i < n; i++ {
		if keep(i) {
			r := int32(i)
			if b.kept {
				r = b.sel[i] // out trails i, so this entry is not overwritten yet
			}
			out = append(out, r)
		}
	}
	b.sel, b.kept = out, true
}

func (c *column) isNull(r int) bool {
	return r>>3 < len(c.nulls) && c.nulls[r>>3]&(1<<(r&7)) != 0
}

func (c *column) value(r int) idl.Any {
	if c.kind == idl.KindAny {
		return c.anys[r]
	}
	if c.kind == idl.KindNull || c.isNull(r) {
		return idl.Null()
	}
	switch c.kind {
	case idl.KindLongLong:
		return idl.Long(c.ints[r])
	case idl.KindDouble:
		return idl.Double(c.floats[r])
	case idl.KindBool:
		return idl.Bool(c.bits[r>>3]&(1<<(r&7)) != 0)
	default:
		return idl.String(c.strs[r])
	}
}

// Appending. A column is filled row by row; r is the row being appended (the
// number of values the column already holds).

// adopt readies the column for a value of kind k at row r and reports whether
// the value belongs in k's typed vector. A column that has seen only NULLs
// takes the kind (its NULL rows get zero slots); a column of another kind is
// re-boxed into the fallback representation.
func (c *column) adopt(k idl.Kind, r int) bool {
	switch c.kind {
	case k:
		return true
	case idl.KindAny:
		return false
	case idl.KindNull:
		c.kind = k
		switch k {
		case idl.KindLongLong:
			c.ints = append(c.ints, make([]int64, r)...)
		case idl.KindDouble:
			c.floats = append(c.floats, make([]float64, r)...)
		case idl.KindString:
			c.strs = append(c.strs, make([]string, r)...)
		case idl.KindAny:
			c.anys = append(c.anys, make([]idl.Any, r)...) // the zero Any is null
			c.nulls = c.nulls[:0]
		}
		return true // booleans grow their bitmap as bits are set
	}
	boxed := slices.Grow(c.anys[:0], r+1)
	for i := 0; i < r; i++ {
		boxed = append(boxed, c.value(i))
	}
	*c = column{kind: idl.KindAny, nulls: c.nulls[:0], ints: c.ints[:0], floats: c.floats[:0],
		bits: c.bits[:0], strs: c.strs[:0], anys: boxed}
	return false
}

func (c *column) appendNull(r int) {
	switch c.kind {
	case idl.KindAny:
		c.anys = append(c.anys, idl.Null())
		return
	case idl.KindLongLong:
		c.ints = append(c.ints, 0)
	case idl.KindDouble:
		c.floats = append(c.floats, 0)
	case idl.KindBool:
		c.setBit(r, false)
	case idl.KindString:
		c.strs = append(c.strs, "")
	}
	for len(c.nulls) <= r>>3 {
		c.nulls = append(c.nulls, 0)
	}
	c.nulls[r>>3] |= 1 << (r & 7)
}

func (c *column) appendInt(r int, v int64) {
	if c.adopt(idl.KindLongLong, r) {
		c.ints = append(c.ints, v)
	} else {
		c.anys = append(c.anys, idl.Long(v))
	}
}

func (c *column) appendFloat(r int, v float64) {
	if c.adopt(idl.KindDouble, r) {
		c.floats = append(c.floats, v)
	} else {
		c.anys = append(c.anys, idl.Double(v))
	}
}

func (c *column) appendBool(r int, v bool) {
	if c.adopt(idl.KindBool, r) {
		c.setBit(r, v)
	} else {
		c.anys = append(c.anys, idl.Bool(v))
	}
}

func (c *column) appendString(r int, v string) {
	if c.adopt(idl.KindString, r) {
		c.strs = append(c.strs, v)
	} else {
		c.anys = append(c.anys, idl.String(v))
	}
}

// appendAny appends a boxed value; the four kinds with a typed vector and
// NULL go where the typed appenders would put them.
func (c *column) appendAny(r int, v idl.Any) {
	switch v.Kind {
	case idl.KindNull:
		c.appendNull(r)
	case idl.KindLongLong:
		c.appendInt(r, v.Int)
	case idl.KindDouble:
		c.appendFloat(r, v.Float)
	case idl.KindBool:
		c.appendBool(r, v.Bool)
	case idl.KindString:
		c.appendString(r, v.Str)
	default:
		c.adopt(idl.KindAny, r)
		c.anys = append(c.anys, v)
	}
}

func (c *column) setBit(r int, v bool) {
	for len(c.bits) <= r>>3 {
		c.bits = append(c.bits, 0)
	}
	if v {
		c.bits[r>>3] |= 1 << (r & 7)
	}
}

// The page wire format. A cursor page is a CDR encapsulation (first octet:
// byte order) holding a whole Batch:
//
//	ulong rows, ulong ncols, then per column
//	  octet           kind: null, boolean, long long, double, string, or any
//	  sequence<octet> NULL bitmap: empty (no NULLs) or ceil(rows/8) octets,
//	                  bit r%8 of octet r/8 set = row r is NULL; always whole
//	                  for a null-kind column, always empty for an any column
//	  payload         null: none; boolean: sequence<octet>, ceil(rows/8) bits;
//	                  long long / double: rows values, 8-aligned, no count;
//	                  string: rows ulong end offsets, then one sequence<octet>
//	                  run; any: rows marshalled Any values
//
// NULL rows of a typed column occupy a zero slot, so a value's position is its
// row. Every column costs at least a bit per row, which is what lets the
// decoder bound a hostile row count by the bytes present.

// encodePage renders the batch (all its rows; it must not have been narrowed
// by Keep) as a page in the given byte order, into a buffer of its own sized
// once from the batch. Page buffers are deliberately not pooled: the reply
// that carries a page is marshalled after the servant's handler returns (and
// a colocated client is handed the very bytes), so the encoding side never
// learns when a page could be recycled. Pooling is on the decoding side.
func encodePage(b *Batch, order cdr.ByteOrder) []byte {
	bitmap := (b.rows + 7) / 8
	size := 16
	for i := range b.cols {
		c := &b.cols[i]
		size += 24 + 2*bitmap + 8*(len(c.ints)+len(c.floats)) + 4*len(c.strs) + 16*len(c.anys)
		for _, s := range c.strs {
			size += len(s)
		}
	}
	var e cdr.Encoder // on the stack; only its buffer outlives the call
	e.ResetFor(order, 0)
	e.Grow(size)
	e.WriteOctet(byte(order)) // the encapsulation's order flag, at offset 0
	e.WriteULong(uint32(b.rows))
	e.WriteULong(uint32(len(b.cols)))
	for i := range b.cols {
		c := &b.cols[i]
		e.WriteOctet(byte(c.kind))
		if c.kind == idl.KindNull || len(c.nulls) > 0 {
			e.WriteOctets(wholeBitmap(c.nulls, bitmap))
		} else {
			e.WriteOctets(nil)
		}
		switch c.kind {
		case idl.KindBool:
			e.WriteOctets(wholeBitmap(c.bits, bitmap))
		case idl.KindLongLong:
			e.WriteLongLongs(c.ints)
		case idl.KindDouble:
			e.WriteDoubles(c.floats)
		case idl.KindString:
			e.WriteStringRun(c.strs)
		case idl.KindAny:
			for _, v := range c.anys {
				v.Marshal(&e)
			}
		}
	}
	return e.Bytes()
}

// wholeBitmap pads a bitmap that stops at its last set bit to n octets.
func wholeBitmap(bits []byte, n int) []byte {
	for len(bits) < n {
		bits = append(bits, 0)
	}
	return bits
}

// decodePage decodes a page of a cursor whose open reply named width columns
// into a pooled batch. Pages come from another process: the column count is
// held to that width, and every row count, offset and bitmap length is
// checked against the bytes present before anything is sized by it, so a
// malformed page costs an error, never a panic or an allocation its own
// length does not justify.
func decodePage(page []byte, width int) (*Batch, error) {
	if len(page) == 0 {
		return nil, fmt.Errorf("empty page")
	}
	d := cdr.NewDecoderAt(page[1:], cdr.ByteOrder(page[0]&1), 1)
	rows, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("row count: %w", err)
	}
	ncols, err := d.ReadULong()
	if err != nil {
		return nil, fmt.Errorf("column count: %w", err)
	}
	if int64(ncols) != int64(width) {
		return nil, fmt.Errorf("%d column(s), the cursor has %d", ncols, width)
	}
	// A column is at least its kind octet and its bitmap's length.
	if ncols > uint32(d.Remaining()/5) {
		return nil, fmt.Errorf("%d column(s) in %d byte(s)", ncols, d.Remaining())
	}
	if ncols == 0 && rows > 0 {
		return nil, fmt.Errorf("%d row(s) of no columns", rows)
	}
	b := newBatch(int(ncols))
	b.rows, b.wire = int(rows), len(page)
	for i := range b.cols {
		if err := b.cols[i].decode(d, b.rows); err != nil {
			b.Release()
			return nil, fmt.Errorf("column %d: %w", i, err)
		}
	}
	if d.Remaining() != 0 {
		b.Release()
		return nil, fmt.Errorf("%d byte(s) after the last column", d.Remaining())
	}
	return b, nil
}

func (c *column) decode(d *cdr.Decoder, rows int) error {
	k, err := d.ReadOctet()
	if err != nil {
		return err
	}
	c.kind = idl.Kind(k)
	bitmap := (rows + 7) / 8
	nulls, err := d.ReadOctets()
	if err != nil {
		return fmt.Errorf("NULL bitmap: %w", err)
	}
	whole := len(nulls) == bitmap
	if !whole && (len(nulls) != 0 || c.kind == idl.KindNull) || len(nulls) != 0 && c.kind == idl.KindAny {
		return fmt.Errorf("NULL bitmap of %d octet(s) for %d row(s) of %s", len(nulls), rows, c.kind)
	}
	c.nulls = append(c.nulls, nulls...)
	switch c.kind {
	case idl.KindNull:
	case idl.KindBool:
		bits, err := d.ReadOctets()
		if err != nil {
			return err
		}
		if len(bits) != bitmap {
			return fmt.Errorf("%d octet(s) of booleans for %d row(s)", len(bits), rows)
		}
		c.bits = append(c.bits, bits...)
	case idl.KindLongLong:
		c.ints, err = d.ReadLongLongs(c.ints, rows)
	case idl.KindDouble:
		c.floats, err = d.ReadDoubles(c.floats, rows)
	case idl.KindString:
		c.strs, err = d.ReadStringRun(c.strs, rows)
	case idl.KindAny:
		if rows > d.Remaining() {
			return cdr.ErrShortBuffer
		}
		c.anys = slices.Grow(c.anys, rows)
		for i := 0; i < rows && err == nil; i++ {
			var v idl.Any
			v, err = idl.UnmarshalAny(d)
			c.anys = append(c.anys, v)
		}
	default:
		return fmt.Errorf("column kind %s has no page encoding", c.kind)
	}
	return err
}
