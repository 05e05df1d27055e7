// Package cdr implements the OMG Common Data Representation (CDR) used by
// GIOP/IIOP messages: a byte-aligned, endianness-tagged binary encoding for
// primitive types, strings, sequences and encapsulations.
//
// The encoding follows CDR 1.0 alignment rules: every primitive is aligned to
// its natural size relative to the start of the stream (or of the enclosing
// encapsulation). Both big- and little-endian transfer syntaxes are
// supported; receivers honour the byte-order flag carried in GIOP headers and
// encapsulations.
package cdr

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// ByteOrder identifies a CDR transfer syntax byte order.
type ByteOrder byte

const (
	// BigEndian is the canonical network byte order (flag 0).
	BigEndian ByteOrder = 0
	// LittleEndian is the x86-native byte order (flag 1).
	LittleEndian ByteOrder = 1
)

func (o ByteOrder) String() string {
	if o == BigEndian {
		return "big-endian"
	}
	return "little-endian"
}

func (o ByteOrder) order() binary.ByteOrder {
	if o == BigEndian {
		return binary.BigEndian
	}
	return binary.LittleEndian
}

// ErrShortBuffer is returned when a decoder runs out of input.
var ErrShortBuffer = errors.New("cdr: short buffer")

// Encoder builds a CDR stream. The zero value is not ready for use; call
// NewEncoder. Alignment is computed relative to the stream start plus a base
// offset so the encoder can marshal GIOP bodies whose alignment origin is the
// start of the message.
type Encoder struct {
	buf   []byte
	order ByteOrder
	base  int
}

// NewEncoder returns an encoder using the given byte order.
func NewEncoder(order ByteOrder) *Encoder {
	return &Encoder{order: order}
}

// NewEncoderAt returns an encoder whose alignment origin is offset bytes
// before the first written byte. GIOP request bodies use the message start as
// alignment origin, so an encoder for a body following a 12-byte header is
// created with offset 12.
func NewEncoderAt(order ByteOrder, offset int) *Encoder {
	return &Encoder{order: order, base: offset}
}

// Bytes returns the encoded stream. The slice is owned by the encoder and is
// invalidated by further writes.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes written so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Order reports the encoder's byte order.
func (e *Encoder) Order() ByteOrder { return e.order }

// Grow makes room for n more bytes, so a caller that knows its message's size
// pays for one buffer instead of a series of doublings.
func (e *Encoder) Grow(n int) { e.buf = slices.Grow(e.buf, n) }

// Reset discards all written data, retaining the buffer for reuse.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// ResetFor discards all written data and reconfigures the byte order and
// alignment origin, retaining the buffer: the reuse hook for encoder pooling
// (giop.AcquireBodyEncoder), where one scratch encoder serves messages of
// differing orders over its lifetime.
func (e *Encoder) ResetFor(order ByteOrder, offset int) {
	e.buf = e.buf[:0]
	e.order = order
	e.base = offset
}

// align pads the stream with zero bytes until the next write position is a
// multiple of n (relative to the alignment origin).
func (e *Encoder) align(n int) {
	pos := e.base + len(e.buf)
	pad := (n - pos%n) % n
	for i := 0; i < pad; i++ {
		e.buf = append(e.buf, 0)
	}
}

// WriteOctet appends a single unaligned byte.
func (e *Encoder) WriteOctet(b byte) { e.buf = append(e.buf, b) }

// WriteBool appends a boolean as a single octet (1 = true, 0 = false).
func (e *Encoder) WriteBool(v bool) {
	if v {
		e.WriteOctet(1)
	} else {
		e.WriteOctet(0)
	}
}

// WriteUShort appends a 16-bit unsigned integer aligned to 2 bytes.
func (e *Encoder) WriteUShort(v uint16) {
	e.align(2)
	if e.order == BigEndian {
		e.buf = binary.BigEndian.AppendUint16(e.buf, v)
	} else {
		e.buf = binary.LittleEndian.AppendUint16(e.buf, v)
	}
}

// WriteShort appends a 16-bit signed integer aligned to 2 bytes.
func (e *Encoder) WriteShort(v int16) { e.WriteUShort(uint16(v)) }

// WriteULong appends a 32-bit unsigned integer aligned to 4 bytes. (The
// order is branched on, not dispatched through binary.ByteOrder: a scratch
// array handed to the interface escapes, one heap object per value.)
func (e *Encoder) WriteULong(v uint32) {
	e.align(4)
	if e.order == BigEndian {
		e.buf = binary.BigEndian.AppendUint32(e.buf, v)
	} else {
		e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	}
}

// WriteLong appends a 32-bit signed integer aligned to 4 bytes.
func (e *Encoder) WriteLong(v int32) { e.WriteULong(uint32(v)) }

// WriteULongLong appends a 64-bit unsigned integer aligned to 8 bytes.
func (e *Encoder) WriteULongLong(v uint64) {
	e.align(8)
	if e.order == BigEndian {
		e.buf = binary.BigEndian.AppendUint64(e.buf, v)
	} else {
		e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	}
}

// WriteLongLong appends a 64-bit signed integer aligned to 8 bytes.
func (e *Encoder) WriteLongLong(v int64) { e.WriteULongLong(uint64(v)) }

// WriteFloat appends a 32-bit IEEE 754 float aligned to 4 bytes.
func (e *Encoder) WriteFloat(v float32) { e.WriteULong(math.Float32bits(v)) }

// WriteDouble appends a 64-bit IEEE 754 float aligned to 8 bytes.
func (e *Encoder) WriteDouble(v float64) { e.WriteULongLong(math.Float64bits(v)) }

// WriteString appends a CDR string: a ulong byte count (including the
// terminating NUL) followed by the bytes and a NUL terminator.
func (e *Encoder) WriteString(s string) {
	e.WriteULong(uint32(len(s) + 1))
	e.buf = append(e.buf, s...)
	e.buf = append(e.buf, 0)
}

// WriteOctets appends a sequence<octet>: a ulong length followed by the raw
// bytes (no terminator, no per-element alignment).
func (e *Encoder) WriteOctets(b []byte) {
	e.WriteULong(uint32(len(b)))
	e.buf = append(e.buf, b...)
}

// WriteStrings appends a sequence<string>.
func (e *Encoder) WriteStrings(ss []string) {
	e.WriteULong(uint32(len(ss)))
	for _, s := range ss {
		e.WriteString(s)
	}
}

// extend aligns the stream to size and appends n zero bytes, returning them
// for the caller to fill in place.
func (e *Encoder) extend(size, n int) []byte {
	e.align(size)
	off := len(e.buf)
	e.buf = append(e.buf, make([]byte, n)...)
	return e.buf[off:]
}

// The bulk writers append a typed run with no leading count: the caller's
// framing (a cursor page's row count) carries it. The byte order is tested
// once per run, not once per value.

// WriteLongLongs appends vs as one 8-aligned run of 64-bit integers.
func (e *Encoder) WriteLongLongs(vs []int64) {
	out := e.extend(8, 8*len(vs))
	if e.order == BigEndian {
		for i, v := range vs {
			binary.BigEndian.PutUint64(out[8*i:], uint64(v))
		}
		return
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], uint64(v))
	}
}

// WriteDoubles appends vs as one 8-aligned run of IEEE 754 doubles.
func (e *Encoder) WriteDoubles(vs []float64) {
	out := e.extend(8, 8*len(vs))
	if e.order == BigEndian {
		for i, v := range vs {
			binary.BigEndian.PutUint64(out[8*i:], math.Float64bits(v))
		}
		return
	}
	for i, v := range vs {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
}

// WriteStringRun appends ss as one string run: a ulong end offset per string
// followed by a sequence<octet> holding the strings' bytes back to back (no
// terminators). Like any CDR sequence, the octet run is limited to 4 GiB.
func (e *Encoder) WriteStringRun(ss []string) {
	out := e.extend(4, 4*len(ss))
	end := 0
	if e.order == BigEndian {
		for i, s := range ss {
			end += len(s)
			binary.BigEndian.PutUint32(out[4*i:], uint32(end))
		}
	} else {
		for i, s := range ss {
			end += len(s)
			binary.LittleEndian.PutUint32(out[4*i:], uint32(end))
		}
	}
	e.WriteULong(uint32(end))
	for _, s := range ss {
		e.buf = append(e.buf, s...)
	}
}

// WriteEncapsulation appends a CDR encapsulation: a sequence<octet> whose
// first octet is the byte-order flag of the nested stream. The callback
// receives a fresh encoder for the nested stream.
func (e *Encoder) WriteEncapsulation(order ByteOrder, fn func(*Encoder)) {
	nested := NewEncoderAt(order, 1) // the order flag occupies offset 0
	fn(nested)
	e.WriteULong(uint32(1 + nested.Len()))
	e.WriteOctet(byte(order))
	e.buf = append(e.buf, nested.Bytes()...)
}

// Decoder reads a CDR stream produced by an Encoder (or a peer ORB).
type Decoder struct {
	buf   []byte
	pos   int
	order ByteOrder
	base  int
}

// NewDecoder returns a decoder over buf using the given byte order.
func NewDecoder(buf []byte, order ByteOrder) *Decoder {
	return &Decoder{buf: buf, order: order}
}

// NewDecoderAt returns a decoder whose alignment origin is offset bytes
// before the start of buf (see NewEncoderAt).
func NewDecoderAt(buf []byte, order ByteOrder, offset int) *Decoder {
	return &Decoder{buf: buf, order: order, base: offset}
}

// Order reports the decoder's byte order.
func (d *Decoder) Order() ByteOrder { return d.order }

// Remaining reports the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.pos }

// Pos reports the current read offset within the buffer.
func (d *Decoder) Pos() int { return d.pos }

func (d *Decoder) align(n int) error {
	pos := d.base + d.pos
	pad := (n - pos%n) % n
	if d.pos+pad > len(d.buf) {
		return ErrShortBuffer
	}
	d.pos += pad
	return nil
}

func (d *Decoder) take(n int) ([]byte, error) {
	if d.pos+n > len(d.buf) {
		return nil, ErrShortBuffer
	}
	b := d.buf[d.pos : d.pos+n]
	d.pos += n
	return b, nil
}

// ReadOctet reads a single byte.
func (d *Decoder) ReadOctet() (byte, error) {
	b, err := d.take(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

// ReadBool reads a boolean octet.
func (d *Decoder) ReadBool() (bool, error) {
	b, err := d.ReadOctet()
	return b != 0, err
}

// ReadUShort reads an aligned 16-bit unsigned integer.
func (d *Decoder) ReadUShort() (uint16, error) {
	if err := d.align(2); err != nil {
		return 0, err
	}
	b, err := d.take(2)
	if err != nil {
		return 0, err
	}
	return d.order.order().Uint16(b), nil
}

// ReadShort reads an aligned 16-bit signed integer.
func (d *Decoder) ReadShort() (int16, error) {
	v, err := d.ReadUShort()
	return int16(v), err
}

// ReadULong reads an aligned 32-bit unsigned integer.
func (d *Decoder) ReadULong() (uint32, error) {
	if err := d.align(4); err != nil {
		return 0, err
	}
	b, err := d.take(4)
	if err != nil {
		return 0, err
	}
	return d.order.order().Uint32(b), nil
}

// ReadLong reads an aligned 32-bit signed integer.
func (d *Decoder) ReadLong() (int32, error) {
	v, err := d.ReadULong()
	return int32(v), err
}

// ReadULongLong reads an aligned 64-bit unsigned integer.
func (d *Decoder) ReadULongLong() (uint64, error) {
	if err := d.align(8); err != nil {
		return 0, err
	}
	b, err := d.take(8)
	if err != nil {
		return 0, err
	}
	return d.order.order().Uint64(b), nil
}

// ReadLongLong reads an aligned 64-bit signed integer.
func (d *Decoder) ReadLongLong() (int64, error) {
	v, err := d.ReadULongLong()
	return int64(v), err
}

// ReadFloat reads an aligned 32-bit IEEE 754 float.
func (d *Decoder) ReadFloat() (float32, error) {
	v, err := d.ReadULong()
	return math.Float32frombits(v), err
}

// ReadDouble reads an aligned 64-bit IEEE 754 float.
func (d *Decoder) ReadDouble() (float64, error) {
	v, err := d.ReadULongLong()
	return math.Float64frombits(v), err
}

// ReadString reads a CDR string.
func (d *Decoder) ReadString() (string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return "", err
	}
	if n == 0 {
		return "", fmt.Errorf("cdr: string with zero length (missing NUL)")
	}
	b, err := d.take(int(n))
	if err != nil {
		return "", err
	}
	if b[n-1] != 0 {
		return "", fmt.Errorf("cdr: string not NUL-terminated")
	}
	return string(b[:n-1]), nil
}

// ReadOctets reads a sequence<octet>. The returned slice aliases the decoder
// buffer; copy it if it must outlive the input.
func (d *Decoder) ReadOctets() ([]byte, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	return d.take(int(n))
}

// ReadStrings reads a sequence<string>.
func (d *Decoder) ReadStrings() ([]string, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	// The count comes off the wire: size by it only as far as the bytes
	// present could hold (a string is at least its 4-byte length).
	ss := make([]string, 0, min(int(n), d.Remaining()/4))
	for i := uint32(0); i < n; i++ {
		s, err := d.ReadString()
		if err != nil {
			return nil, err
		}
		ss = append(ss, s)
	}
	return ss, nil
}

// run aligns the stream to size and takes n elements of that size. The count
// is checked against the bytes present before anything is sized by it.
func (d *Decoder) run(size, n int) ([]byte, error) {
	if err := d.align(size); err != nil {
		return nil, err
	}
	if n < 0 || n > d.Remaining()/size {
		return nil, ErrShortBuffer
	}
	return d.take(size * n)
}

// ReadLongLongs appends to dst the n 64-bit integers of a run written by
// WriteLongLongs.
func (d *Decoder) ReadLongLongs(dst []int64, n int) ([]int64, error) {
	raw, err := d.run(8, n)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	if d.order == BigEndian {
		for i := 0; i < n; i++ {
			dst = append(dst, int64(binary.BigEndian.Uint64(raw[8*i:])))
		}
		return dst, nil
	}
	for i := 0; i < n; i++ {
		dst = append(dst, int64(binary.LittleEndian.Uint64(raw[8*i:])))
	}
	return dst, nil
}

// ReadDoubles appends to dst the n doubles of a run written by WriteDoubles.
func (d *Decoder) ReadDoubles(dst []float64, n int) ([]float64, error) {
	raw, err := d.run(8, n)
	if err != nil {
		return dst, err
	}
	dst = slices.Grow(dst, n)
	if d.order == BigEndian {
		for i := 0; i < n; i++ {
			dst = append(dst, math.Float64frombits(binary.BigEndian.Uint64(raw[8*i:])))
		}
		return dst, nil
	}
	for i := 0; i < n; i++ {
		dst = append(dst, math.Float64frombits(binary.LittleEndian.Uint64(raw[8*i:])))
	}
	return dst, nil
}

// ReadStringRun appends to dst the n strings of a run written by
// WriteStringRun. The octet run is converted to a string once and the
// results are substrings of it, so a run costs one allocation however many
// strings it holds. Offsets must not decrease and must end where the octet
// run ends.
func (d *Decoder) ReadStringRun(dst []string, n int) ([]string, error) {
	offs, err := d.run(4, n)
	if err != nil {
		return dst, err
	}
	raw, err := d.ReadOctets()
	if err != nil {
		return dst, err
	}
	text := string(raw)
	dst = slices.Grow(dst, n)
	start := uint32(0)
	big := d.order == BigEndian
	for i := 0; i < n; i++ {
		end := binary.LittleEndian.Uint32(offs[4*i:])
		if big {
			end = binary.BigEndian.Uint32(offs[4*i:])
		}
		if end < start || int64(end) > int64(len(text)) {
			return dst, fmt.Errorf("cdr: string run offset %d of string %d is outside [%d, %d]", end, i, start, len(text))
		}
		dst = append(dst, text[start:end])
		start = end
	}
	if int(start) != len(text) {
		return dst, fmt.Errorf("cdr: string run has %d byte(s) past the last offset", len(text)-int(start))
	}
	return dst, nil
}

// ReadEncapsulation reads a CDR encapsulation and returns a decoder over the
// nested stream, honouring its embedded byte-order flag.
func (d *Decoder) ReadEncapsulation() (*Decoder, error) {
	body, err := d.ReadOctets()
	if err != nil {
		return nil, err
	}
	if len(body) == 0 {
		return nil, fmt.Errorf("cdr: empty encapsulation")
	}
	return NewDecoderAt(body[1:], ByteOrder(body[0]&1), 1), nil
}
