package idl

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cdr"
)

// FuzzUnmarshalAny: arbitrary bytes never panic the Any decoder, a value it
// accepts survives a marshal/unmarshal round trip unchanged, and the sharing
// decode agrees with the copying one on every input, value and error alike.
func FuzzUnmarshalAny(f *testing.F) {
	for _, a := range []Any{
		Null(), Bool(true), Long(-5), Double(2.5), String("x"), Octets([]byte{1, 2, 3}),
		Seq(Long(1), String("two"), Seq()), Struct(F("rows", Seq(Seq(Long(1)))), F("done", Bool(false))),
		refer(KindAny, []Any{Long(1), Null()}), Octets(nil), Octets([]byte{}), Seq(), Struct(), Struct(F("e", Seq())),
	} {
		e := cdr.NewEncoder(cdr.BigEndian)
		a.Marshal(e)
		f.Add(e.Bytes(), false)
		e = cdr.NewEncoder(cdr.LittleEndian)
		a.Marshal(e)
		f.Add(e.Bytes(), true)
	}
	f.Add([]byte{0x0e, 0, 0, 0, 0xff, 0xff, 0xff, 0xff}, false)
	f.Fuzz(func(t *testing.T, data []byte, little bool) {
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}
		a, err := UnmarshalAny(cdr.NewDecoder(data, order))
		shared, serr := DecodeAny(cdr.NewDecoder(data, order), new([]Field))
		e, es := cdr.NewEncoder(order), cdr.NewEncoder(order)
		a.Marshal(e)
		shared.Marshal(es) // the bytes, not Equal: a NaN is not Equal to itself
		if fmt.Sprint(err) != fmt.Sprint(serr) || !bytes.Equal(e.Bytes(), es.Bytes()) {
			t.Fatalf("copying decode = %v, %v; sharing decode = %v, %v", a, err, shared, serr)
		}
		if err != nil {
			return
		}
		b, err := UnmarshalAny(cdr.NewDecoder(e.Bytes(), order))
		if err != nil {
			t.Fatalf("re-marshalled value does not decode: %v", err)
		}
		e2 := cdr.NewEncoder(order)
		b.Marshal(e2)
		if !bytes.Equal(e.Bytes(), e2.Bytes()) {
			t.Fatalf("round trip changed the value: %v became %v", a, b)
		}
	})
}
