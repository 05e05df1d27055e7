package cdr

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestPrimitiveRoundTrip(t *testing.T) {
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		e := NewEncoder(order)
		e.WriteOctet(0xAB)
		e.WriteBool(true)
		e.WriteBool(false)
		e.WriteShort(-1234)
		e.WriteUShort(65000)
		e.WriteLong(-123456789)
		e.WriteULong(4000000000)
		e.WriteLongLong(-1 << 60)
		e.WriteULongLong(1 << 63)
		e.WriteFloat(3.5)
		e.WriteDouble(-2.25)
		e.WriteString("hello, CORBA")
		e.WriteOctets([]byte{1, 2, 3})

		d := NewDecoder(e.Bytes(), order)
		if v, _ := d.ReadOctet(); v != 0xAB {
			t.Errorf("%s octet = %x", order, v)
		}
		if v, _ := d.ReadBool(); !v {
			t.Errorf("%s bool1", order)
		}
		if v, _ := d.ReadBool(); v {
			t.Errorf("%s bool2", order)
		}
		if v, _ := d.ReadShort(); v != -1234 {
			t.Errorf("%s short = %d", order, v)
		}
		if v, _ := d.ReadUShort(); v != 65000 {
			t.Errorf("%s ushort = %d", order, v)
		}
		if v, _ := d.ReadLong(); v != -123456789 {
			t.Errorf("%s long = %d", order, v)
		}
		if v, _ := d.ReadULong(); v != 4000000000 {
			t.Errorf("%s ulong = %d", order, v)
		}
		if v, _ := d.ReadLongLong(); v != -1<<60 {
			t.Errorf("%s longlong = %d", order, v)
		}
		if v, _ := d.ReadULongLong(); v != 1<<63 {
			t.Errorf("%s ulonglong = %d", order, v)
		}
		if v, _ := d.ReadFloat(); v != 3.5 {
			t.Errorf("%s float = %f", order, v)
		}
		if v, _ := d.ReadDouble(); v != -2.25 {
			t.Errorf("%s double = %f", order, v)
		}
		if v, _ := d.ReadString(); v != "hello, CORBA" {
			t.Errorf("%s string = %q", order, v)
		}
		if v, _ := d.ReadOctets(); len(v) != 3 || v[2] != 3 {
			t.Errorf("%s octets = %v", order, v)
		}
		if d.Remaining() != 0 {
			t.Errorf("%s: %d bytes left over", order, d.Remaining())
		}
	}
}

func TestAlignment(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteOctet(1) // offset 0
	e.WriteULong(7) // must pad to offset 4
	b := e.Bytes()
	if len(b) != 8 {
		t.Fatalf("len = %d, want 8 (1 octet + 3 pad + 4)", len(b))
	}
	if b[1] != 0 || b[2] != 0 || b[3] != 0 {
		t.Errorf("padding not zeroed: %v", b)
	}
	e2 := NewEncoder(BigEndian)
	e2.WriteOctet(1)
	e2.WriteDouble(1.0) // pads to 8
	if e2.Len() != 16 {
		t.Errorf("double alignment: len = %d, want 16", e2.Len())
	}
}

func TestAlignmentWithBaseOffset(t *testing.T) {
	// Simulates a GIOP body: alignment origin 12 bytes before the buffer.
	e := NewEncoderAt(BigEndian, 12)
	e.WriteULong(1) // 12 is 4-aligned: no padding
	if e.Len() != 4 {
		t.Fatalf("len = %d", e.Len())
	}
	e = NewEncoderAt(BigEndian, 13)
	e.WriteULong(1) // 13 -> pad 3
	if e.Len() != 7 {
		t.Fatalf("len = %d, want 7", e.Len())
	}
	d := NewDecoderAt(e.Bytes(), BigEndian, 13)
	v, err := d.ReadULong()
	if err != nil || v != 1 {
		t.Fatalf("read back %d, %v", v, err)
	}
}

func TestEncapsulation(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteEncapsulation(LittleEndian, func(inner *Encoder) {
		inner.WriteULong(99)
		inner.WriteString("nested")
	})
	d := NewDecoder(e.Bytes(), BigEndian)
	inner, err := d.ReadEncapsulation()
	if err != nil {
		t.Fatal(err)
	}
	if inner.Order() != LittleEndian {
		t.Errorf("inner order = %v", inner.Order())
	}
	if v, _ := inner.ReadULong(); v != 99 {
		t.Errorf("inner ulong = %d", v)
	}
	if s, _ := inner.ReadString(); s != "nested" {
		t.Errorf("inner string = %q", s)
	}
}

func TestShortBufferErrors(t *testing.T) {
	d := NewDecoder([]byte{1, 2}, BigEndian)
	if _, err := d.ReadULong(); err == nil {
		t.Error("no error on short ulong")
	}
	d = NewDecoder([]byte{0, 0, 0, 10, 'a'}, BigEndian)
	if _, err := d.ReadString(); err == nil {
		t.Error("no error on truncated string")
	}
	d = NewDecoder(nil, BigEndian)
	if _, err := d.ReadOctet(); err == nil {
		t.Error("no error on empty buffer")
	}
}

func TestStringValidation(t *testing.T) {
	// Zero-length CDR string (missing NUL) must be rejected.
	e := NewEncoder(BigEndian)
	e.WriteULong(0)
	d := NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadString(); err == nil {
		t.Error("zero-length string accepted")
	}
	// Non-NUL-terminated string rejected.
	e = NewEncoder(BigEndian)
	e.WriteULong(2)
	e.WriteOctet('a')
	e.WriteOctet('b')
	d = NewDecoder(e.Bytes(), BigEndian)
	if _, err := d.ReadString(); err == nil {
		t.Error("unterminated string accepted")
	}
}

func TestQuickStringRoundTrip(t *testing.T) {
	f := func(s string, order bool) bool {
		// CDR strings carry no NULs (NUL-terminated on the wire).
		for i := 0; i < len(s); i++ {
			if s[i] == 0 {
				return true
			}
		}
		o := BigEndian
		if order {
			o = LittleEndian
		}
		e := NewEncoder(o)
		e.WriteString(s)
		d := NewDecoder(e.Bytes(), o)
		got, err := d.ReadString()
		return err == nil && got == s
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickNumericRoundTrip(t *testing.T) {
	f := func(a int64, b uint32, c int16, d float64) bool {
		e := NewEncoder(LittleEndian)
		e.WriteLongLong(a)
		e.WriteULong(b)
		e.WriteShort(c)
		e.WriteDouble(d)
		dec := NewDecoder(e.Bytes(), LittleEndian)
		ga, _ := dec.ReadLongLong()
		gb, _ := dec.ReadULong()
		gc, _ := dec.ReadShort()
		gd, err := dec.ReadDouble()
		if err != nil {
			return false
		}
		return ga == a && gb == b && gc == c && (gd == d || (d != d && gd != gd))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(BigEndian)
	e.WriteString("data")
	e.Reset()
	if e.Len() != 0 {
		t.Errorf("after reset len = %d", e.Len())
	}
	e.WriteULong(5)
	if e.Len() != 4 {
		t.Errorf("reuse after reset: len = %d", e.Len())
	}
}

// TestBulkRuns: the typed runs round-trip in both byte orders and from any
// alignment, and the reader appends to what the destination already holds.
func TestBulkRuns(t *testing.T) {
	ints := []int64{0, -1, 1 << 62, -(1 << 62), 42}
	floats := []float64{0, -1.5, math.MaxFloat64, math.SmallestNonzeroFloat64}
	strs := []string{"", "x0-1", "", "héllo", strings.Repeat("z", 300)}
	for _, order := range []ByteOrder{BigEndian, LittleEndian} {
		for pad := 0; pad < 8; pad++ {
			e := NewEncoder(order)
			for i := 0; i < pad; i++ {
				e.WriteOctet(0xaa)
			}
			e.WriteLongLongs(ints)
			e.WriteOctet(1)
			e.WriteDoubles(floats)
			e.WriteOctet(2)
			e.WriteStringRun(strs)
			e.WriteStringRun(nil)

			d := NewDecoder(e.Bytes(), order)
			for i := 0; i < pad; i++ {
				d.ReadOctet()
			}
			gotInts, err := d.ReadLongLongs([]int64{7}, len(ints))
			if err != nil || !slices.Equal(gotInts, append([]int64{7}, ints...)) {
				t.Fatalf("%s pad %d: ints = %v, %v", order, pad, gotInts, err)
			}
			d.ReadOctet()
			gotFloats, err := d.ReadDoubles(nil, len(floats))
			if err != nil || !slices.Equal(gotFloats, floats) {
				t.Fatalf("%s pad %d: floats = %v, %v", order, pad, gotFloats, err)
			}
			d.ReadOctet()
			gotStrs, err := d.ReadStringRun([]string{"kept"}, len(strs))
			if err != nil || !slices.Equal(gotStrs, append([]string{"kept"}, strs...)) {
				t.Fatalf("%s pad %d: strings = %q, %v", order, pad, gotStrs, err)
			}
			if none, err := d.ReadStringRun(nil, 0); err != nil || len(none) != 0 || d.Remaining() != 0 {
				t.Fatalf("%s pad %d: empty run = %q, %v, %d byte(s) left", order, pad, none, err, d.Remaining())
			}
		}
	}
}

// TestWireCountsAreCheckedBeforeSizing: a count larger than the bytes present
// is an error before it sizes anything (a hostile 2^31 would otherwise be an
// out-of-memory crash, which no caller can recover from).
func TestWireCountsAreCheckedBeforeSizing(t *testing.T) {
	huge := 1 << 31
	d := NewDecoder(make([]byte, 64), BigEndian)
	if _, err := d.ReadLongLongs(nil, huge); err == nil {
		t.Error("ReadLongLongs sized by a count past the buffer")
	}
	if _, err := d.ReadDoubles(nil, huge); err == nil {
		t.Error("ReadDoubles sized by a count past the buffer")
	}
	if _, err := d.ReadStringRun(nil, huge); err == nil {
		t.Error("ReadStringRun sized by a count past the buffer")
	}
	if _, err := d.ReadLongLongs(nil, -1); err == nil {
		t.Error("negative count accepted")
	}
}
