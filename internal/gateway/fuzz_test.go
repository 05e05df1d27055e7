package gateway

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/cdr"
	"repro/internal/idl"
)

// FuzzPageDecode: decodePage must never panic or over-allocate on arbitrary
// bytes held to an arbitrary width, and a page it accepts re-encodes to a page
// that decodes to the same rows and is a fixed point of the codec.
func FuzzPageDecode(f *testing.F) {
	for _, rows := range [][][]idl.Any{
		nil,
		{{idl.Long(1), idl.String("a")}, {idl.Null(), idl.String("")}, {idl.Long(-3), idl.Null()}},
		{{idl.Double(1.5), idl.Bool(true)}, {idl.Double(-2), idl.Bool(false)}},
		{{idl.Strings([]string{"x", "y"})}, {idl.Long(2)}},
	} {
		ncols := 2
		if len(rows) > 0 {
			ncols = len(rows[0])
		}
		b := batchOf(ncols, rows)
		f.Add(encodePage(b, 0, b.rows, cdr.BigEndian), uint8(ncols))
		f.Add(encodePage(b, 0, b.rows, cdr.LittleEndian), uint8(ncols))
		b.Release()
	}
	f.Add([]byte{0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 1, byte(idl.KindNull), 0, 0, 0, 0, 0, 0}, uint8(1))
	f.Fuzz(func(t *testing.T, page []byte, width uint8) {
		b, err := decodePage(page, int(width))
		if err != nil {
			return
		}
		defer b.Release()
		order := cdr.ByteOrder(page[0] & 1)
		again := encodePage(b, 0, b.rows, order)
		back, err := decodePage(again, int(width))
		if err != nil {
			t.Fatalf("re-encoded page does not decode: %v", err)
		}
		defer back.Release()
		if back.Len() != b.Len() || back.Cols() != b.Cols() {
			t.Fatalf("re-encoded page is %dx%d, was %dx%d", back.Len(), back.Cols(), b.Len(), b.Cols())
		}
		for i := 0; i < b.Len(); i++ {
			for j := 0; j < b.Cols(); j++ {
				// NaN payloads survive the codec bit for bit but never compare equal.
				v, w := b.Value(j, i), back.Value(j, i)
				if !v.Equal(w) && !(v.Kind == idl.KindDouble && math.IsNaN(v.Float) && math.IsNaN(w.Float)) {
					t.Fatalf("row %d col %d: %v became %v", i, j, v, w)
				}
			}
		}
		if third := encodePage(back, 0, back.rows, order); !bytes.Equal(third, again) {
			t.Fatal("the codec's own page is not a fixed point")
		}
	})
}
