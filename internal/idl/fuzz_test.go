package idl

import (
	"bytes"
	"testing"

	"repro/internal/cdr"
)

// FuzzUnmarshalAny: arbitrary bytes never panic the Any decoder, and a value
// it accepts survives a marshal/unmarshal round trip unchanged.
func FuzzUnmarshalAny(f *testing.F) {
	for _, a := range []Any{
		Null(), Bool(true), Long(-5), Double(2.5), String("x"), Octets([]byte{1, 2, 3}),
		Seq(Long(1), String("two"), Seq()), Struct(F("rows", Seq(Seq(Long(1)))), F("done", Bool(false))),
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
		if err != nil {
			return
		}
		e := cdr.NewEncoder(order)
		a.Marshal(e)
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
