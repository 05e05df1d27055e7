// Package idl provides the interface-definition layer of the ORB: type
// codes, self-describing Any values that marshal to CDR, an IDL subset
// parser, and an interface repository used for servant dispatch and client
// stub checking.
//
// The paper uses OMG IDL "for the separation between the implementation and
// the interface of a CORBA service"; this package plays the same role for the
// Go reproduction.
package idl

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"unsafe"

	"repro/internal/cdr"
)

// Kind enumerates the type codes understood by the ORB, a practical subset
// of the OMG typecode set.
type Kind byte

// Type code kinds. The octet values are part of the wire format.
const (
	KindNull Kind = iota
	KindVoid
	KindBool
	KindOctet
	KindShort
	KindUShort
	KindLong
	KindULong
	KindLongLong
	KindULongLong
	KindFloat
	KindDouble
	KindString
	KindOctets // sequence<octet>
	KindSeq    // sequence<any>
	KindStruct // name/value pairs
	KindAny
)

var kindNames = map[Kind]string{
	KindNull:      "null",
	KindVoid:      "void",
	KindBool:      "boolean",
	KindOctet:     "octet",
	KindShort:     "short",
	KindUShort:    "unsigned short",
	KindLong:      "long",
	KindULong:     "unsigned long",
	KindLongLong:  "long long",
	KindULongLong: "unsigned long long",
	KindFloat:     "float",
	KindDouble:    "double",
	KindString:    "string",
	KindOctets:    "sequence<octet>",
	KindSeq:       "sequence<any>",
	KindStruct:    "struct",
	KindAny:       "any",
}

func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", byte(k))
}

// Field is one member of a struct Any.
type Field struct {
	Name  string
	Value Any
}

// Any is a self-describing value: a type code kind plus a payload. It is the
// unit of data the ORB moves between processes. The zero Any is the null
// value.
//
// An Any is 48 bytes, small enough to copy without the duff device. An octet
// sequence, sequence or struct payload is one reference to its slice's first
// element, which keeps the slice alive; Int holds the length and spare the
// capacity beyond it. Build such a value with Octets, Seq or Struct, read it
// with Bytes, Seq or Fields, and never set its Int by hand.
type Any struct {
	Kind  Kind
	Bool  bool
	spare uint32  // capacity of the referenced slice beyond its length
	Int   int64   // Short/UShort/Long/ULong/LongLong/ULongLong/Octet; Bytes/Seq/Fields length
	Float float64 // Float/Double
	Str   string
	ref   unsafe.Pointer // first element of the Bytes, Seq or Fields slice
}

// refer builds an Any of kind k holding s.
func refer[T any](k Kind, s []T) Any {
	return Any{Kind: k, Int: int64(len(s)), spare: uint32(min(uint64(cap(s)-len(s)), math.MaxUint32)),
		ref: unsafe.Pointer(unsafe.SliceData(s))}
}

// slice is the inverse of refer, capacity included; nil unless ok.
func slice[T any](a Any, ok bool) []T {
	if !ok || a.ref == nil {
		return nil
	}
	n := int(a.Int)
	return unsafe.Slice((*T)(a.ref), n+int(a.spare))[:n]
}

// Bytes returns an octet sequence's bytes, nil for any other kind.
func (a Any) Bytes() []byte { return slice[byte](a, a.Kind == KindOctets) }

// Seq returns a sequence's elements, nil for any other kind.
func (a Any) Seq() []Any { return slice[Any](a, a.Kind == KindSeq || a.Kind == KindAny) }

// Fields returns a struct's fields, nil for any other kind.
func (a Any) Fields() []Field { return slice[Field](a, a.Kind == KindStruct) }

// Convenience constructors.

// Null returns the null Any.
func Null() Any { return Any{Kind: KindNull} }

// Bool wraps a boolean.
func Bool(v bool) Any { return Any{Kind: KindBool, Bool: v} }

// Long wraps a 64-bit integer as a long long.
func Long(v int64) Any { return Any{Kind: KindLongLong, Int: v} }

// Double wraps a 64-bit float.
func Double(v float64) Any { return Any{Kind: KindDouble, Float: v} }

// String wraps a string.
func String(v string) Any { return Any{Kind: KindString, Str: v} }

// Octets wraps a byte slice.
func Octets(v []byte) Any { return refer(KindOctets, v) }

// Seq wraps a sequence of Any values.
func Seq(vs ...Any) Any { return refer(KindSeq, vs) }

// Strings wraps a []string as a sequence of string Anys.
func Strings(ss []string) Any {
	vs := make([]Any, len(ss))
	for i, s := range ss {
		vs[i] = String(s)
	}
	return Seq(vs...)
}

// Struct wraps a set of named fields; field order is preserved.
func Struct(fields ...Field) Any { return refer(KindStruct, fields) }

// F builds a struct field.
func F(name string, v Any) Field { return Field{Name: name, Value: v} }

// Get returns the named field of a struct Any.
func (a Any) Get(name string) (Any, bool) {
	for _, f := range a.Fields() {
		if f.Name == name {
			return f.Value, true
		}
	}
	return Any{}, false
}

// GetString returns the named struct field as a string (empty if absent or
// not a string).
func (a Any) GetString(name string) string {
	v, ok := a.Get(name)
	if !ok || v.Kind != KindString {
		return ""
	}
	return v.Str
}

// GetInt returns the named struct field as an int64 (0 if absent).
func (a Any) GetInt(name string) int64 {
	v, ok := a.Get(name)
	if !ok {
		return 0
	}
	return v.Int
}

// StringSlice converts a sequence-of-string Any back to []string.
func (a Any) StringSlice() []string {
	seq := a.Seq()
	out := make([]string, 0, len(seq))
	for _, v := range seq {
		out = append(out, v.Str)
	}
	return out
}

// Equal reports deep equality of two Any values.
func (a Any) Equal(b Any) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case KindNull, KindVoid:
		return true
	case KindBool:
		return a.Bool == b.Bool
	case KindOctet, KindShort, KindUShort, KindLong, KindULong, KindLongLong, KindULongLong:
		return a.Int == b.Int
	case KindFloat, KindDouble:
		return a.Float == b.Float
	case KindString:
		return a.Str == b.Str
	case KindOctets:
		return string(a.Bytes()) == string(b.Bytes())
	case KindSeq, KindAny:
		as, bs := a.Seq(), b.Seq()
		if len(as) != len(bs) {
			return false
		}
		for i := range as {
			if !as[i].Equal(bs[i]) {
				return false
			}
		}
		return true
	case KindStruct:
		af, bf := a.Fields(), b.Fields()
		if len(af) != len(bf) {
			return false
		}
		for i := range af {
			if af[i].Name != bf[i].Name || !af[i].Value.Equal(bf[i].Value) {
				return false
			}
		}
		return true
	}
	return false
}

// String renders the Any for debugging and experiment reports.
func (a Any) String() string {
	switch a.Kind {
	case KindNull:
		return "null"
	case KindVoid:
		return "void"
	case KindBool:
		return fmt.Sprintf("%t", a.Bool)
	case KindOctet, KindShort, KindUShort, KindLong, KindULong, KindLongLong, KindULongLong:
		return fmt.Sprintf("%d", a.Int)
	case KindFloat, KindDouble:
		return fmt.Sprintf("%g", a.Float)
	case KindString:
		return fmt.Sprintf("%q", a.Str)
	case KindOctets:
		return fmt.Sprintf("octets[%d]", len(a.Bytes()))
	case KindSeq, KindAny:
		parts := make([]string, len(a.Seq()))
		for i, v := range a.Seq() {
			parts[i] = v.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindStruct:
		parts := make([]string, len(a.Fields()))
		for i, f := range a.Fields() {
			parts[i] = f.Name + ": " + f.Value.String()
		}
		return "{" + strings.Join(parts, ", ") + "}"
	}
	return a.Kind.String()
}

// Marshal appends the Any to a CDR encoder as a kind octet followed by the
// kind-specific payload.
func (a Any) Marshal(e *cdr.Encoder) {
	e.WriteOctet(byte(a.Kind))
	switch a.Kind {
	case KindNull, KindVoid:
	case KindBool:
		e.WriteBool(a.Bool)
	case KindOctet:
		e.WriteOctet(byte(a.Int))
	case KindShort:
		e.WriteShort(int16(a.Int))
	case KindUShort:
		e.WriteUShort(uint16(a.Int))
	case KindLong:
		e.WriteLong(int32(a.Int))
	case KindULong:
		e.WriteULong(uint32(a.Int))
	case KindLongLong:
		e.WriteLongLong(a.Int)
	case KindULongLong:
		e.WriteULongLong(uint64(a.Int))
	case KindFloat:
		e.WriteFloat(float32(a.Float))
	case KindDouble:
		e.WriteDouble(a.Float)
	case KindString:
		e.WriteString(a.Str)
	case KindOctets:
		e.WriteOctets(a.Bytes())
	case KindSeq, KindAny:
		e.WriteULong(uint32(len(a.Seq())))
		for _, v := range a.Seq() {
			v.Marshal(e)
		}
	case KindStruct:
		e.WriteULong(uint32(len(a.Fields())))
		for _, f := range a.Fields() {
			e.WriteString(f.Name)
			f.Value.Marshal(e)
		}
	}
}

// UnmarshalAny reads an Any from a CDR decoder; the value owns its bytes.
func UnmarshalAny(d *cdr.Decoder) (Any, error) { return decodeAny(d, false, nil) }

// DecodeAny reads a lent Any from a CDR decoder, valid only as long as the
// decoder's buffer and *fields are: its octet sequences alias the buffer
// (strings still copy), and a top-level struct's fields go to *fields.
func DecodeAny(d *cdr.Decoder, fields *[]Field) (Any, error) { return decodeAny(d, true, fields) }

// decodeAny reads an Any, sharing the buffer if share is set.
func decodeAny(d *cdr.Decoder, share bool, fields *[]Field) (Any, error) {
	k, err := d.ReadOctet()
	if err != nil {
		return Any{}, err
	}
	a := Any{Kind: Kind(k)}
	switch a.Kind {
	case KindNull, KindVoid:
	case KindBool:
		a.Bool, err = d.ReadBool()
	case KindOctet:
		var b byte
		b, err = d.ReadOctet()
		a.Int = int64(b)
	case KindShort:
		var v int16
		v, err = d.ReadShort()
		a.Int = int64(v)
	case KindUShort:
		var v uint16
		v, err = d.ReadUShort()
		a.Int = int64(v)
	case KindLong:
		var v int32
		v, err = d.ReadLong()
		a.Int = int64(v)
	case KindULong:
		var v uint32
		v, err = d.ReadULong()
		a.Int = int64(v)
	case KindLongLong:
		a.Int, err = d.ReadLongLong()
	case KindULongLong:
		var v uint64
		v, err = d.ReadULongLong()
		a.Int = int64(v)
	case KindFloat:
		var v float32
		v, err = d.ReadFloat()
		a.Float = float64(v)
	case KindDouble:
		a.Float, err = d.ReadDouble()
	case KindString:
		a.Str, err = d.ReadString()
	case KindOctets:
		var b []byte
		b, err = d.ReadOctets()
		if err == nil && !share {
			b = append([]byte(nil), b...)
		}
		a = refer(a.Kind, b)
	case KindSeq, KindAny:
		var n uint32
		n, err = d.ReadULong()
		if err != nil {
			break
		}
		vs := make([]Any, 0, wireCount(n, d))
		for i := uint32(0); i < n; i++ {
			var v Any
			v, err = decodeAny(d, share, nil)
			if err != nil {
				break
			}
			vs = append(vs, v)
		}
		a = refer(a.Kind, vs)
	case KindStruct:
		var n uint32
		n, err = d.ReadULong()
		if err != nil {
			break
		}
		var fs, last []Field
		if fields != nil {
			// The lent array still holds the last decode's fields: a name it
			// repeats is taken from there instead of copied again.
			last = (*fields)[:cap(*fields)]
			fs = last[:0]
		} else {
			fs = make([]Field, 0, wireCount(n, d))
		}
		for i := uint32(0); i < n; i++ {
			var name []byte
			name, err = d.ReadStringBytes()
			if err != nil {
				break
			}
			var v Any
			v, err = decodeAny(d, share, nil)
			if err != nil {
				break
			}
			f := Field{Value: v}
			if int(i) < len(last) && last[i].Name == string(name) {
				f.Name = last[i].Name
			} else {
				f.Name = string(name)
			}
			fs = append(fs, f)
		}
		if fields != nil {
			*fields = fs
		}
		a = refer(a.Kind, fs)
	default:
		return Any{}, fmt.Errorf("idl: unknown any kind %d", k)
	}
	if err != nil {
		return Any{}, fmt.Errorf("idl: unmarshal %s: %w", a.Kind, err)
	}
	return a, nil
}

// wireCount bounds an element count read off the wire by the bytes left to
// decode (every element takes at least one), so a hostile count cannot size
// an allocation: decoding still fails, on the first element that is missing.
func wireCount(n uint32, d *cdr.Decoder) int {
	return min(int(n), d.Remaining())
}

// MarshalAnys encodes a slice of Anys with a leading count.
func MarshalAnys(e *cdr.Encoder, vs []Any) {
	e.WriteULong(uint32(len(vs)))
	for _, v := range vs {
		v.Marshal(e)
	}
}

// UnmarshalAnys decodes a slice of Anys written by MarshalAnys into dst's
// array, growing it; each value owns its bytes.
func UnmarshalAnys(d *cdr.Decoder, dst []Any) ([]Any, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	vs := slices.Grow(dst[:0], wireCount(n, d))
	for i := uint32(0); i < n; i++ {
		v, err := UnmarshalAny(d)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}
