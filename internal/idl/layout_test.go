package idl

import (
	"bytes"
	"testing"
	"unsafe"

	"repro/internal/cdr"
)

// TestAnyLayout pins the size that keeps a cell off the duff device: the
// compiler copies and zeroes values of 64 bytes and up through
// runtime.duffcopy/duffzero, and every cell a member returns is copied by
// value several times on its way to the client.
func TestAnyLayout(t *testing.T) {
	if n := unsafe.Sizeof(Any{}); n > 48 {
		t.Errorf("Any is %d bytes, want at most 48", n)
	}
	if n := unsafe.Sizeof(Field{}); n > 64 {
		t.Errorf("Field is %d bytes, want at most 64", n)
	}
}

// TestAnyAccessors: Bytes, Seq and Fields return the slice the value was
// built from, aliased and with its capacity, and nil for any other kind.
func TestAnyAccessors(t *testing.T) {
	b := make([]byte, 3, 10)
	if got := Octets(b).Bytes(); unsafe.SliceData(got) != unsafe.SliceData(b) || len(got) != 3 || cap(got) != 10 {
		t.Errorf("Octets(b).Bytes() = len %d cap %d, want b itself (len 3 cap 10)", len(got), cap(got))
	}
	xs := []Any{Long(1), String("two")}
	seq := Seq(xs...)
	seq.Seq()[0] = Long(9)
	if xs[0].Int != 9 || len(seq.Seq()) != 2 {
		t.Errorf("Seq(xs...).Seq() does not alias xs: xs[0] = %s", xs[0])
	}
	fs := []Field{F("a", Bool(true))}
	if got := Struct(fs...).Fields(); unsafe.SliceData(got) != unsafe.SliceData(fs) || len(got) != 1 {
		t.Errorf("Struct(fs...).Fields() = %v, want fs itself", got)
	}

	for _, a := range []Any{Null(), Long(3), String("s"), Octets(b), Seq(xs...), Struct(fs...)} {
		if a.Kind != KindOctets && a.Bytes() != nil {
			t.Errorf("%s.Bytes() = %v, want nil", a.Kind, a.Bytes())
		}
		if a.Kind != KindSeq && a.Seq() != nil {
			t.Errorf("%s.Seq() = %v, want nil", a.Kind, a.Seq())
		}
		if a.Kind != KindStruct && a.Fields() != nil {
			t.Errorf("%s.Fields() = %v, want nil", a.Kind, a.Fields())
		}
	}
	if got := refer(KindAny, xs).Seq(); len(got) != 2 {
		t.Errorf("a KindAny sequence reads as %v, want its two elements", got)
	}
}

// TestAnyEmptyAggregates: nil stays nil and empty stays empty through the
// accessors, and both cross the wire as an empty value of their kind.
func TestAnyEmptyAggregates(t *testing.T) {
	for _, c := range []struct {
		a       Any
		fromNil bool
	}{
		{Octets(nil), true}, {Octets([]byte{}), false},
		{Seq(), true}, {Seq([]Any{}...), false},
		{Struct(), true}, {Struct([]Field{}...), false},
	} {
		var isNil bool
		switch c.a.Kind {
		case KindOctets:
			isNil = c.a.Bytes() == nil
		case KindSeq:
			isNil = c.a.Seq() == nil
		case KindStruct:
			isNil = c.a.Fields() == nil
		}
		if isNil != c.fromNil {
			t.Errorf("%s built from nil=%t reads back nil=%t", c.a.Kind, c.fromNil, isNil)
		}
		for _, share := range []bool{false, true} {
			e := cdr.NewEncoder(cdr.BigEndian)
			c.a.Marshal(e)
			got, err := decodeAny(cdr.NewDecoder(e.Bytes(), cdr.BigEndian), share, nil)
			if err != nil || !got.Equal(c.a) || got.String() != c.a.String() {
				t.Errorf("empty %s (share %t) round trip = %s, %v", c.a.Kind, share, got, err)
			}
		}
	}
}

// TestSharingDecodeAliases: a sharing decode's octet sequences, at the top
// and nested in a sequence and a struct, point into the receive buffer; a
// copying decode's do not.
func TestSharingDecodeAliases(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	Struct(F("page", Octets([]byte("page"))), F("rows", Seq(Octets([]byte("row"))))).Marshal(e)
	buf := e.Bytes()
	in := func(p []byte) bool {
		at := uintptr(unsafe.Pointer(unsafe.SliceData(p)))
		lo := uintptr(unsafe.Pointer(unsafe.SliceData(buf)))
		return at >= lo && at < lo+uintptr(len(buf))
	}
	for _, share := range []bool{false, true} {
		a, err := decodeAny(cdr.NewDecoder(buf, cdr.BigEndian), share, nil)
		if err != nil {
			t.Fatal(err)
		}
		page, _ := a.Get("page")
		rows, _ := a.Get("rows")
		row := rows.Seq()[0].Bytes()
		if string(page.Bytes()) != "page" || string(row) != "row" {
			t.Fatalf("decoded %s", a)
		}
		if in(page.Bytes()) != share || in(row) != share {
			t.Errorf("share %t: page in buffer %t, row in buffer %t", share, in(page.Bytes()), in(row))
		}
	}
}

// TestLentDecodeReusesFields: a lent decode puts a top-level struct's fields
// in the array it is handed and keeps that array for the next decode, which
// reuses it; nested structs get arrays of their own.
func TestLentDecodeReusesFields(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	Struct(F("id", Long(7)), F("inner", Struct(F("done", Bool(true))))).Marshal(e)
	var fields []Field
	for i := 0; i < 2; i++ {
		a, err := DecodeAny(cdr.NewDecoder(e.Bytes(), cdr.BigEndian), &fields)
		if err != nil {
			t.Fatal(err)
		}
		if len(fields) != 2 || &a.Fields()[0] != &fields[0] {
			t.Fatalf("decode %d: the struct's fields are not in the lent array", i)
		}
		inner, _ := a.Get("inner")
		if a.GetInt("id") != 7 || &inner.Fields()[0] == &fields[0] {
			t.Fatalf("decode %d = %s", i, a)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		DecodeAny(cdr.NewDecoder(e.Bytes(), cdr.BigEndian), &fields)
	}); n > 2 {
		t.Errorf("a lent decode of a known shape allocates %v times, want at most 2 (the nested struct's array and field name)", n)
	}
}

// TestKindAnyString: a KindAny value is a sequence everywhere else (Marshal,
// Equal, DecodeAny, StringSlice), so it prints as its elements too.
func TestKindAnyString(t *testing.T) {
	e := cdr.NewEncoder(cdr.BigEndian)
	e.WriteOctet(byte(KindAny))
	MarshalAnys(e, []Any{Long(1), String("x")})
	a, err := UnmarshalAny(cdr.NewDecoder(e.Bytes(), cdr.BigEndian))
	if err != nil {
		t.Fatal(err)
	}
	if got := a.String(); got != `[1, "x"]` {
		t.Errorf("KindAny sequence prints as %s, want [1, \"x\"]", got)
	}
	re := cdr.NewEncoder(cdr.BigEndian)
	a.Marshal(re)
	if !bytes.Equal(re.Bytes(), e.Bytes()) {
		t.Error("KindAny sequence does not re-marshal to its own bytes")
	}
}
