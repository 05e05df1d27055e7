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
	"repro/internal/idl"
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
				page := encodePage(b, order)
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
				if again := encodePage(back, order); !bytes.Equal(again, page) {
					t.Fatalf("%d rows, %s: re-encoded page differs", n, order)
				}
				back.Release()
			}
			b.Release()
		}
	}
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
// nothing but the rows served.
func TestPagedIterGrowthSchedule(t *testing.T) {
	rows := make([][]idl.Any, 5000)
	for i := range rows {
		rows[i] = []idl.Any{idl.Long(int64(i))}
	}
	res := &Result{Columns: []string{"v"}, Rows: rows}
	for _, tc := range []struct {
		batch int
		want  []int
	}{
		{0, []int{5000}},
		{64, []int{64, 128, 256, 512, 1024, 1024, 1024, 968}},
		{3, []int{3, 6, 12, 24, 48, 96, 192, 384, 768, 1024, 1024, 1024, 395}},
		{2000, []int{2000, 2000, 1000}},
	} {
		it := NewResultIter(res, tc.batch)
		var got []int
		next := int64(0)
		for {
			b, err := it.Next(context.Background())
			if err == io.EOF {
				break
			}
			got = append(got, b.Len())
			if b.Value(0, 0).Int != next {
				t.Fatalf("batch %d: page starts at row %d, want %d", tc.batch, b.Value(0, 0).Int, next)
			}
			next += int64(b.Len())
			b.Release()
		}
		if fmt.Sprint(got) != fmt.Sprint(tc.want) {
			t.Errorf("batch %d pages as %v, want %v", tc.batch, got, tc.want)
		}
	}
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
	page := encodePage(b, cdr.BigEndian)
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
	page := encodePage(wide, cdr.BigEndian)
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
