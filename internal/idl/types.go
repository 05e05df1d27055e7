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
	"sort"
	"strings"

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
type Any struct {
	Kind   Kind
	Bool   bool
	Int    int64   // Short/UShort/Long/ULong/LongLong/ULongLong/Octet
	Float  float64 // Float/Double
	Str    string
	Bytes  []byte
	Seq    []Any
	Fields []Field
}

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
func Octets(v []byte) Any { return Any{Kind: KindOctets, Bytes: v} }

// Seq wraps a sequence of Any values.
func Seq(vs ...Any) Any { return Any{Kind: KindSeq, Seq: vs} }

// Strings wraps a []string as a sequence of string Anys.
func Strings(ss []string) Any {
	vs := make([]Any, len(ss))
	for i, s := range ss {
		vs[i] = String(s)
	}
	return Seq(vs...)
}

// Struct wraps a set of named fields; field order is preserved.
func Struct(fields ...Field) Any { return Any{Kind: KindStruct, Fields: fields} }

// F builds a struct field.
func F(name string, v Any) Field { return Field{Name: name, Value: v} }

// Get returns the named field of a struct Any.
func (a Any) Get(name string) (Any, bool) {
	for _, f := range a.Fields {
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
	out := make([]string, 0, len(a.Seq))
	for _, v := range a.Seq {
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
		if len(a.Bytes) != len(b.Bytes) {
			return false
		}
		for i := range a.Bytes {
			if a.Bytes[i] != b.Bytes[i] {
				return false
			}
		}
		return true
	case KindSeq, KindAny:
		if len(a.Seq) != len(b.Seq) {
			return false
		}
		for i := range a.Seq {
			if !a.Seq[i].Equal(b.Seq[i]) {
				return false
			}
		}
		return true
	case KindStruct:
		if len(a.Fields) != len(b.Fields) {
			return false
		}
		for i := range a.Fields {
			if a.Fields[i].Name != b.Fields[i].Name || !a.Fields[i].Value.Equal(b.Fields[i].Value) {
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
		return fmt.Sprintf("octets[%d]", len(a.Bytes))
	case KindSeq:
		parts := make([]string, len(a.Seq))
		for i, v := range a.Seq {
			parts[i] = v.String()
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case KindStruct:
		parts := make([]string, len(a.Fields))
		for i, f := range a.Fields {
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
		e.WriteOctets(a.Bytes)
	case KindSeq, KindAny:
		e.WriteULong(uint32(len(a.Seq)))
		for _, v := range a.Seq {
			v.Marshal(e)
		}
	case KindStruct:
		e.WriteULong(uint32(len(a.Fields)))
		for _, f := range a.Fields {
			e.WriteString(f.Name)
			f.Value.Marshal(e)
		}
	}
}

// UnmarshalAny reads an Any from a CDR decoder.
func UnmarshalAny(d *cdr.Decoder) (Any, error) {
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
		if err == nil {
			a.Bytes = append([]byte(nil), b...)
		}
	case KindSeq, KindAny:
		var n uint32
		n, err = d.ReadULong()
		if err != nil {
			break
		}
		a.Seq = make([]Any, 0, wireCount(n, d))
		for i := uint32(0); i < n; i++ {
			var v Any
			v, err = UnmarshalAny(d)
			if err != nil {
				break
			}
			a.Seq = append(a.Seq, v)
		}
	case KindStruct:
		var n uint32
		n, err = d.ReadULong()
		if err != nil {
			break
		}
		a.Fields = make([]Field, 0, wireCount(n, d))
		for i := uint32(0); i < n; i++ {
			var name string
			name, err = d.ReadString()
			if err != nil {
				break
			}
			var v Any
			v, err = UnmarshalAny(d)
			if err != nil {
				break
			}
			a.Fields = append(a.Fields, Field{Name: name, Value: v})
		}
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

// UnmarshalAnys decodes a slice of Anys written by MarshalAnys.
func UnmarshalAnys(d *cdr.Decoder) ([]Any, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	vs := make([]Any, 0, wireCount(n, d))
	for i := uint32(0); i < n; i++ {
		v, err := UnmarshalAny(d)
		if err != nil {
			return nil, err
		}
		vs = append(vs, v)
	}
	return vs, nil
}

// SortFields orders a struct Any's fields by name, for canonical output.
func (a *Any) SortFields() {
	sort.Slice(a.Fields, func(i, j int) bool { return a.Fields[i].Name < a.Fields[j].Name })
}
