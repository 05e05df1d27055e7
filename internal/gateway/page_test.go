package gateway

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/idl"
	"repro/internal/relational"
)

// batchOf builds one batch from row-major rows, the way a connection holding
// boxed rows would.
func batchOf(ncols int, rows [][]idl.Any) *Batch {
	names := make([]string, ncols)
	b, err := NewResultIter(&Result{Columns: names, Rows: rows}, 0).Next(context.Background())
	if err == io.EOF {
		return newBatch(ncols)
	}
	return b
}

// sameRows fails the test unless the batch reads back, value by value, as the
// row-major rows it was built from.
func sameRows(t *testing.T, what string, b *Batch, rows [][]idl.Any) {
	t.Helper()
	if b.Len() != len(rows) {
		t.Fatalf("%s: %d row(s), want %d", what, b.Len(), len(rows))
	}
	for i, row := range rows {
		got := b.Row(nil, i)
		if len(got) != len(row) {
			t.Fatalf("%s: row %d has %d value(s), want %d", what, i, len(got), len(row))
		}
		for j := range row {
			if !got[j].Equal(row[j]) {
				t.Fatalf("%s: row %d col %d = %v, want %v", what, i, j, got[j], row[j])
			}
		}
	}
}

// randomColumn draws one column generator: the four typed kinds, an all-NULL
// column, a string-list column (no typed vector) and a column that mixes kinds
// — the last two must take the fallback representation and still round-trip.
func randomColumn(rng *rand.Rand) func() idl.Any {
	nullRate := []float64{0, 0, 0.1, 0.9}[rng.Intn(4)]
	var gen func() idl.Any
	switch rng.Intn(8) {
	case 0:
		gen = func() idl.Any { return idl.Long(rng.Int63() - rng.Int63()) }
	case 1:
		gen = func() idl.Any { return idl.Double(rng.NormFloat64() * 1e6) }
	case 2:
		gen = func() idl.Any { return idl.Bool(rng.Intn(2) == 0) }
	case 3:
		gen = func() idl.Any { return idl.String(strings.Repeat("é", rng.Intn(4)) + fmt.Sprint(rng.Intn(1000))) }
	case 4:
		return func() idl.Any { return idl.Null() }
	case 5:
		gen = func() idl.Any { return idl.Strings([]string{"a", fmt.Sprint(rng.Intn(10))}) }
	case 6: // a typed start that turns mixed part-way
		n := 0
		gen = func() idl.Any {
			if n++; n < 5 {
				return idl.Long(int64(n))
			}
			return idl.String(fmt.Sprint("s", n))
		}
	default: // kinds the typed vectors do not hold exactly
		gen = func() idl.Any {
			return []idl.Any{{Kind: idl.KindLong, Int: 7}, {Kind: idl.KindFloat, Float: 1.5}, idl.Octets([]byte{1, 2}),
				idl.Struct(idl.F("k", idl.Long(1)))}[rng.Intn(4)]
		}
	}
	return func() idl.Any {
		if rng.Float64() < nullRate {
			return idl.Null()
		}
		return gen()
	}
}

// TestPageRoundTrip is the codec's property test: whatever the column kinds,
// NULL density, byte order and page size, a batch reads like the row-major
// rows it was built from, and so does its page after a trip through the
// codec; re-encoding the decoded batch reproduces the page byte for byte.
func TestPageRoundTrip(t *testing.T) {
	mark := markLive()
	rng := rand.New(rand.NewSource(18))
	for _, n := range []int{0, 1, 2, 7, 8, 9, 64, MaxPageRows} {
		for trial := 0; trial < 12; trial++ {
			ncols := 1 + rng.Intn(4)
			gens := make([]func() idl.Any, ncols)
			for j := range gens {
				gens[j] = randomColumn(rng)
			}
			rows := make([][]idl.Any, n)
			for i := range rows {
				rows[i] = make([]idl.Any, ncols)
				for j := range rows[i] {
					rows[i][j] = gens[j]()
				}
			}
			b := batchOf(ncols, rows)
			sameRows(t, "built batch", b, rows)
			for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
				page := encodePage(b, 0, b.rows, order)
				back, err := decodePage(page, ncols)
				if err != nil {
					t.Fatalf("%d rows, %s: decode: %v", n, order, err)
				}
				if wide, err := decodePage(page, ncols+1); err == nil {
					wide.Release()
					t.Fatalf("%d rows, %s: a %d-column page decoded for a cursor of %d", n, order, ncols, ncols+1)
				}
				if back.WireBytes() != len(page) {
					t.Fatalf("WireBytes = %d, page is %d", back.WireBytes(), len(page))
				}
				sameRows(t, fmt.Sprintf("%d rows, %s", n, order), back, rows)
				if again := encodePage(back, 0, back.rows, order); !bytes.Equal(again, page) {
					t.Fatalf("%d rows, %s: re-encoded page differs", n, order)
				}
				back.Release()
				// Any run of the rows pages on its own, within its bound.
				lo := rng.Intn(n + 1)
				hi := lo + rng.Intn(n-lo+1)
				part := encodePage(b, lo, hi, order)
				if bound := pageBytes(b, lo, hi); len(part) > bound {
					t.Fatalf("%d rows, %s: rows [%d, %d) encode to %d bytes, bound %d", n, order, lo, hi, len(part), bound)
				}
				if back, err = decodePage(part, ncols); err != nil {
					t.Fatalf("%d rows, %s: decode rows [%d, %d): %v", n, order, lo, hi, err)
				}
				sameRows(t, fmt.Sprintf("%d rows, %s, rows [%d, %d)", n, order, lo, hi), back, rows[lo:hi])
				back.Release()
			}
			b.Release()
		}
	}
	mark.check(t)
}

// TestDecodedPageOwnsItsValues: the cursor client decodes a page inside the
// ORB's receive buffer, which is recycled the moment decoding is over, so a
// decoded batch must point into nothing of the page: every kind of column,
// NULLs and the fallback column's octets included, reads back the same after
// the page's bytes are written over.
func TestDecodedPageOwnsItsValues(t *testing.T) {
	mark := markLive()
	rows := make([][]idl.Any, 100)
	for i := range rows {
		rows[i] = []idl.Any{
			idl.String(fmt.Sprint("name-", i)), idl.Long(int64(i)), idl.Double(float64(i) / 4),
			idl.Bool(i%3 == 0), idl.Octets([]byte{byte(i), 1, 2}),
		}
		if i%7 == 0 {
			rows[i][2] = idl.Null()
			rows[i][4] = idl.Strings([]string{"list", fmt.Sprint(i)})
		}
	}
	b := batchOf(5, rows)
	page := encodePage(b, 0, b.rows, cdr.LittleEndian)
	b.Release()
	back, err := decodePage(page, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range page {
		page[i] = 0xa5
	}
	sameRows(t, "after the page was written over", back, rows)
	back.Release()
	mark.check(t)
}

func TestBatchKeepNarrowsInOrder(t *testing.T) {
	rows := make([][]idl.Any, 10)
	for i := range rows {
		rows[i] = []idl.Any{idl.Long(int64(i)), idl.String(fmt.Sprint("r", i))}
	}
	b := batchOf(2, rows)
	defer b.Release()
	b.Keep(func(i int) bool { return i%2 == 1 })               // 1 3 5 7 9
	b.Keep(func(i int) bool { return b.Value(0, i).Int != 5 }) // 1 3 7 9
	b.Keep(func(i int) bool { return i > 0 })                  // 3 7 9
	sameRows(t, "kept", b, [][]idl.Any{rows[3], rows[7], rows[9]})
	b.Keep(func(int) bool { return false })
	if b.Len() != 0 {
		t.Fatalf("Len after dropping everything = %d", b.Len())
	}
}

// TestPagedIterGrowthSchedule: the first batch is what the caller asked for,
// each later one doubles up to MaxPageRows, and the schedule depends on
// nothing but the rows served and the source's bound on the rows left. The
// tail rule: when that bound is at most twice the batch due (and at most
// MaxPageRows) the batch takes every row left, so no page of the schedule
// grows past MaxPageRows, and a LIMIT caps the bound.
func TestPagedIterGrowthSchedule(t *testing.T) {
	pages := func(t *testing.T, it RowIter) []int {
		t.Helper()
		defer it.Close()
		var got []int
		next := int64(0)
		for {
			b, err := it.Next(context.Background())
			if err == io.EOF {
				return got
			}
			if err != nil {
				t.Fatal(err)
			}
			got = append(got, b.Len())
			if b.Value(0, 0).Int != next {
				t.Fatalf("page starts at row %d, want %d", b.Value(0, 0).Int, next)
			}
			next += int64(b.Len())
			b.Release()
		}
	}
	for _, tc := range []struct {
		rows, batch int
		want        []int
	}{
		{5000, 0, []int{5000}},
		{5000, 64, []int{64, 128, 256, 512, 1024, 1024, 1024, 968}},
		{5000, 3, []int{3, 6, 12, 24, 48, 96, 192, 384, 768, 1024, 1024, 1024, 395}},
		{5000, 2000, []int{2000, 2000, 1000}},
		// A remainder of at most twice the batch due is one page.
		{72, 64, []int{72}},
		{128, 64, []int{128}},
		{300, 64, []int{64, 236}},
		{3, 1, []int{1, 2}},
		// A larger remainder follows the schedule.
		{129, 64, []int{64, 65}},
		{500, 64, []int{64, 128, 308}},
		// The remainder that ends a schedule never exceeds MaxPageRows.
		{1024, 600, []int{1024}},
		{1025, 600, []int{600, 425}},
		{2049, 1024, []int{1024, 1024, 1}},
		{3008, 64, []int{64, 128, 256, 512, 1024, 1024}},
	} {
		rows := make([][]idl.Any, tc.rows)
		for i := range rows {
			rows[i] = []idl.Any{idl.Long(int64(i))}
		}
		got := pages(t, NewResultIter(&Result{Columns: []string{"v"}, Rows: rows}, tc.batch))
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%d rows at batch %d page as %v, want %v", tc.rows, tc.batch, got, tc.want)
		}
		for _, n := range got {
			if tc.batch > 0 && tc.batch <= MaxPageRows && n > MaxPageRows {
				t.Errorf("%d rows at batch %d: a %d-row page", tc.rows, tc.batch, n)
			}
		}
	}

	// A LIMIT caps the engine's bound: 100 of 5 000 rows are one page at
	// batch 64, and 200 or 300 of them page as they would over 200 or 300
	// rows, the bound taken again after every page.
	conn := &relConn{db: seqTable(t, 5000)}
	for _, tc := range []struct {
		q    string
		want []int
	}{
		{"SELECT v FROM r LIMIT 100", []int{100}},
		{"SELECT v FROM r LIMIT 200", []int{64, 136}},
		{"SELECT v FROM r LIMIT 300", []int{64, 236}},
		{"SELECT v FROM r", []int{64, 128, 256, 512, 1024, 1024, 1024, 968}},
	} {
		it, err := conn.QueryCursor(context.Background(), tc.q, 64)
		if err != nil {
			t.Fatal(err)
		}
		if got := pages(t, it); fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("%s pages as %v, want %v", tc.q, got, tc.want)
		}
	}
}

// seqTable is an Oracle database whose table r holds the rows (k, v) =
// ('x<j>', j) for j below n, with an index on v.
func seqTable(t *testing.T, n int) *relational.Database {
	t.Helper()
	var b strings.Builder
	b.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, v INT);\nCREATE INDEX r_v ON r (v);\n")
	for j := 0; j < n; j++ {
		fmt.Fprintf(&b, "INSERT INTO r VALUES ('x%d', %d);\n", j, j)
	}
	db := relational.NewDatabase("SEQ", relational.DialectOracle)
	if _, err := db.ExecScript(b.String()); err != nil {
		t.Fatal(err)
	}
	return db
}

// TestDecodePageRefusesHostileInput: every count, offset and bitmap length in
// a page is checked against the bytes present. None of these may panic, and
// none may allocate what the page's own length does not justify (a process
// that sizes a vector by a hostile count dies of it; there is no recovering).
func TestDecodePageRefusesHostileInput(t *testing.T) {
	mark := markLive()
	head := func(rows, ncols uint32) *cdr.Encoder {
		e := cdr.NewEncoderAt(cdr.BigEndian, 1)
		e.WriteULong(rows)
		e.WriteULong(ncols)
		return e
	}
	page := func(e *cdr.Encoder) []byte { return append([]byte{byte(cdr.BigEndian)}, e.Bytes()...) }
	const huge = math.MaxUint32

	cases := map[string][]byte{
		"no bytes":             nil,
		"order flag only":      {0},
		"no column count":      {0, 0, 0, 0, 0, 0, 0, 1},
		"rows without columns": page(head(3, 0)),
		"huge column count":    page(head(1, huge)),
	}
	column := func(name string, rows uint32, kind idl.Kind, nulls []byte, payload func(e *cdr.Encoder)) {
		e := head(rows, 1)
		e.WriteOctet(byte(kind))
		e.WriteOctets(nulls)
		if payload != nil {
			payload(e)
		}
		cases[name] = page(e)
	}
	column("huge rows of long long", huge, idl.KindLongLong, nil, func(e *cdr.Encoder) { e.WriteLongLongs([]int64{1}) })
	column("huge rows of double", huge, idl.KindDouble, nil, nil)
	column("huge rows of string", huge, idl.KindString, nil, func(e *cdr.Encoder) { e.WriteStringRun([]string{"x"}) })
	column("huge rows of any", huge, idl.KindAny, nil, func(e *cdr.Encoder) { idl.Null().Marshal(e) })
	column("huge rows of boolean", huge, idl.KindBool, nil, func(e *cdr.Encoder) { e.WriteOctets([]byte{1}) })
	column("huge rows of NULLs without a bitmap", huge, idl.KindNull, nil, nil)
	column("NULL column with a short bitmap", 9, idl.KindNull, []byte{0xff}, nil)
	column("short NULL bitmap", 9, idl.KindLongLong, []byte{1}, func(e *cdr.Encoder) { e.WriteLongLongs(make([]int64, 9)) })
	column("long NULL bitmap", 2, idl.KindLongLong, []byte{1, 0}, func(e *cdr.Encoder) { e.WriteLongLongs(make([]int64, 2)) })
	column("NULL bitmap on an any column", 1, idl.KindAny, []byte{1}, func(e *cdr.Encoder) { idl.Null().Marshal(e) })
	column("short boolean bits", 9, idl.KindBool, nil, func(e *cdr.Encoder) { e.WriteOctets([]byte{1}) })
	column("missing values", 3, idl.KindLongLong, nil, func(e *cdr.Encoder) { e.WriteLongLongs([]int64{1, 2}) })
	column("string offset past the run", 1, idl.KindString, nil, func(e *cdr.Encoder) {
		e.WriteULong(5)
		e.WriteOctets([]byte("abc"))
	})
	column("string offsets going backwards", 2, idl.KindString, nil, func(e *cdr.Encoder) {
		e.WriteULong(3)
		e.WriteULong(1)
		e.WriteOctets([]byte("abc"))
	})
	column("string run longer than its offsets", 1, idl.KindString, nil, func(e *cdr.Encoder) {
		e.WriteULong(1)
		e.WriteOctets([]byte("abc"))
	})
	column("kind with no page encoding", 1, idl.KindStruct, nil, nil)
	column("trailing bytes", 1, idl.KindLongLong, nil, func(e *cdr.Encoder) {
		e.WriteLongLongs([]int64{1})
		e.WriteOctet(0)
	})
	for name, p := range cases {
		// Each page is held to the width it claims itself, so that what it
		// is refused for is what its name says.
		width := 0
		if len(p) >= 9 {
			width = int(binary.BigEndian.Uint32(p[5:]))
		}
		if b, err := decodePage(p, width); err == nil {
			b.Release()
			t.Errorf("%s: decoded without error", name)
		}
	}
	mark.check(t)
}

// TestDecodePageAllocations: decoding into a pooled batch costs a handful of
// objects a page — the string run's one conversion, not one per value.
func TestDecodePageAllocations(t *testing.T) {
	rows := make([][]idl.Any, MaxPageRows)
	for i := range rows {
		rows[i] = []idl.Any{idl.String(fmt.Sprint("x0-", i)), idl.Long(int64(i))}
	}
	b := batchOf(2, rows)
	page := encodePage(b, 0, b.rows, cdr.BigEndian)
	b.Release()
	allocs := testing.AllocsPerRun(200, func() {
		b, err := decodePage(page, 2)
		if err != nil {
			t.Fatal(err)
		}
		b.Release()
	})
	if allocs > 8 {
		t.Fatalf("decoding a %d-row two-column page allocates %.0f objects, want <= 8", MaxPageRows, allocs)
	}
}

// TestWideBatchIsNotPooledWhole: a page as wide as its bytes allow decodes,
// but the pool does not keep its column array for the narrow pages to come.
func TestWideBatchIsNotPooledWhole(t *testing.T) {
	wide := newBatch(pooledCols + 1)
	page := encodePage(wide, 0, wide.rows, cdr.BigEndian)
	wide.Release()
	b, err := decodePage(page, pooledCols+1)
	if err != nil {
		t.Fatal(err)
	}
	b.Release()
	if cap(b.cols) != 0 {
		t.Fatalf("a released batch kept %d columns, the pool's limit is %d", cap(b.cols), pooledCols)
	}
	narrow := newBatch(pooledCols)
	narrow.Release()
	if cap(narrow.cols) != pooledCols {
		t.Fatalf("a released %d-column batch kept %d", pooledCols, cap(narrow.cols))
	}
}

// TestPageSourceEndsPagesAtTheBudget: a batch-0 cursor over rows of 8 KiB
// text, one of them 300 KiB, leaves in pages of at most giop.PageBudget bytes,
// the 300 KiB row alone in its own; the rows come out whole and in order, the
// rows not sent yet count as held, and only the last page says done. At the
// cursor cap the source sends everything in one page.
func TestPageSourceEndsPagesAtTheBudget(t *testing.T) {
	mark := markLive()
	rows := make([][]idl.Any, 200)
	for i := range rows {
		text := strings.Repeat(fmt.Sprintf("%08d", i), 1024)
		if i == 70 {
			text = strings.Repeat("z", 300<<10)
		}
		rows[i] = []idl.Any{idl.Long(int64(i)), idl.String(text), idl.Bool(i%3 == 0)}
		if i%5 == 0 {
			rows[i][0] = idl.Null()
		}
	}
	res := &Result{Columns: []string{"n", "text", "flag"}, Rows: rows}

	src := &pageSource{it: NewResultIter(res, 0)}
	var got [][]idl.Any
	for pages := 1; ; pages++ {
		items, done, err := src.Next()
		if err != nil {
			t.Fatal(err)
		}
		page := items[0].Bytes()
		b, err := decodePage(page, 3)
		if err != nil {
			t.Fatalf("page %d: %v", pages, err)
		}
		if len(page) > giop.PageBudget && b.Len() != 1 {
			t.Fatalf("page %d: %d rows in %d bytes, above the %d-byte budget", pages, b.Len(), len(page), giop.PageBudget)
		}
		for i := 0; i < b.Len(); i++ {
			got = append(got, b.Row(nil, i))
		}
		b.Release()
		releasePage(page)
		if left := len(rows) - len(got); src.Held() != left {
			t.Fatalf("page %d: held %d, want the %d rows not sent", pages, src.Held(), left)
		}
		if done {
			if pages < 8 {
				t.Fatalf("%d rows of 8 KiB left in %d pages", len(rows), pages)
			}
			break
		}
		if len(got) == len(rows) {
			t.Fatal("every row was sent, and the page did not say done")
		}
	}
	paged := batchOf(3, got)
	sameRows(t, "paged rows", paged, rows)
	paged.Release()
	src.Close()

	whole := &pageSource{it: NewResultIter(res, 0), whole: true}
	items, done, err := whole.Next()
	if err != nil || !done {
		t.Fatalf("at the cap: done %v, %v", done, err)
	}
	b, err := decodePage(items[0].Bytes(), 3)
	if err != nil || b.Len() != len(rows) {
		t.Fatalf("at the cap: %v, %v", b, err)
	}
	b.Release()
	whole.Close()
	mark.check(t)
}
