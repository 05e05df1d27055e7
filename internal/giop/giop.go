// Package giop implements the General Inter-ORB Protocol message layer in
// the GIOP 1.0 style: a fixed 12-byte header ("GIOP" magic, version,
// byte-order flag, message type, body size) followed by a CDR-encoded body.
// Carried over TCP this is the Internet Inter-ORB Protocol (IIOP), the
// interoperability substrate the paper relies on ("any CORBA 2.0 compliant
// ORB must support IIOP").
package giop

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"repro/internal/cdr"
	"repro/internal/freelist"
)

// MsgType enumerates GIOP message types.
type MsgType byte

// GIOP message types (GIOP 1.0 numbering).
const (
	MsgRequest MsgType = iota
	MsgReply
	MsgCancelRequest
	MsgLocateRequest
	MsgLocateReply
	MsgCloseConnection
	MsgMessageError
)

var msgNames = [...]string{
	"Request", "Reply", "CancelRequest", "LocateRequest",
	"LocateReply", "CloseConnection", "MessageError",
}

func (t MsgType) String() string {
	if int(t) < len(msgNames) {
		return msgNames[t]
	}
	return fmt.Sprintf("MsgType(%d)", byte(t))
}

// ReplyStatus enumerates Reply message statuses.
type ReplyStatus uint32

// Reply statuses.
const (
	ReplyNoException ReplyStatus = iota
	ReplyUserException
	ReplySystemException
	ReplyLocationForward
)

func (s ReplyStatus) String() string {
	switch s {
	case ReplyNoException:
		return "NO_EXCEPTION"
	case ReplyUserException:
		return "USER_EXCEPTION"
	case ReplySystemException:
		return "SYSTEM_EXCEPTION"
	case ReplyLocationForward:
		return "LOCATION_FORWARD"
	}
	return fmt.Sprintf("ReplyStatus(%d)", uint32(s))
}

// LocateStatus enumerates LocateReply statuses.
type LocateStatus uint32

// Locate statuses.
const (
	LocateUnknownObject LocateStatus = iota
	LocateObjectHere
	LocateObjectForward
)

func (s LocateStatus) String() string {
	switch s {
	case LocateUnknownObject:
		return "UNKNOWN_OBJECT"
	case LocateObjectHere:
		return "OBJECT_HERE"
	case LocateObjectForward:
		return "OBJECT_FORWARD"
	}
	return fmt.Sprintf("LocateStatus(%d)", uint32(s))
}

// HeaderSize is the fixed size of a GIOP message header.
const HeaderSize = 12

// MaxMessageSize bounds message bodies (16 MiB) both ways: readers refuse a
// larger length field, hostile or corrupt, and writers a larger body, which
// the ORB answers with a MARSHAL exception instead.
const MaxMessageSize = 16 << 20

// PageBudget is the largest body (256 KiB) anyone keeps a buffer of for
// reuse, and the size a cursor page ends at (gateway's pageSource): a result
// larger than that leaves a servant as several pages, one fetch each, never
// as one huge message. A single row above it still goes, as a page of its
// own.
const PageBudget = 256 << 10

var magic = [4]byte{'G', 'I', 'O', 'P'}

// Version is the GIOP protocol version written in every header. The minor
// stays 1 for the header bytes' sake, but no Fragment message is sent and no
// flag other than byte order is accepted: the messages are GIOP 1.0's.
// Readers accept any 1.x minor.
var Version = [2]byte{1, 1}

// Message is one framed GIOP message: the header fields plus the raw body,
// which is CDR-encoded with alignment origin at the message start.
type Message struct {
	Type  MsgType
	Order cdr.ByteOrder
	Body  []byte

	// from is the Reader that handed the message out, until Release gives
	// it back; nil for a hand-built message.
	from *Reader
}

// liveMessages counts messages Read handed out and nobody released yet.
var liveMessages atomic.Int64

// LiveMessages reports how many messages Read handed out are not released
// yet: on a quiet process it is where it was, unless a receive buffer leaked.
func LiveMessages() int64 { return liveMessages.Load() }

// Release gives a message obtained from Read back to the Reader that read
// it. After Release the message and its Body must not be touched: the
// connection's next Read may reuse them. Calling Release on nil, on a
// hand-built message, or a second time, is a no-op. Anything decoded out of
// the body that outlives the message must have been copied: strings and
// idl.UnmarshalAny values are, but the request and reply
// headers' keys, principals and service contexts alias the body, and so do
// the octet sequences of an idl.DecodeAny lent value, whose caller releases
// the message only once it is done with the value.
func (m *Message) Release() {
	if m == nil || m.from == nil {
		return
	}
	rd := m.from
	m.from = nil
	liveMessages.Add(-1)
	m.Body = m.Body[:0]
	if cap(m.Body) > PageBudget {
		m.Body = nil
	}
	rd.free.Put(m)
}

// BodyDecoder returns a CDR decoder positioned at the start of the body with
// the correct alignment origin and byte order.
func (m *Message) BodyDecoder() cdr.Decoder {
	return *cdr.NewDecoderAt(m.Body, m.Order, HeaderSize)
}

// Write frames and writes the message, flushing when w is buffered. It is
// not safe for concurrent use on the same writer without external locking;
// when frames from multiple goroutines share one stream (multiplexed IIOP),
// wrap the stream in a SyncWriter instead.
func Write(w io.Writer, m *Message) error {
	if err := checkSize(m); err != nil {
		return err
	}
	if err := writeFrame(w, new([HeaderSize]byte), m); err != nil {
		return err
	}
	if bw, ok := w.(*bufio.Writer); ok {
		return bw.Flush()
	}
	return nil
}

// errTooLarge is the error a write of a body above MaxMessageSize returns.
// Nothing was written: the stream stays usable.
var errTooLarge = errors.New("giop: message body exceeds limit")

// checkSize refuses a body no reader would accept.
func checkSize(m *Message) error {
	if len(m.Body) > MaxMessageSize {
		return fmt.Errorf("%w: %d bytes", errTooLarge, len(m.Body))
	}
	return nil
}

// writeFrame frames and writes the message without flushing, using hdr as
// the header's scratch.
func writeFrame(w io.Writer, hdr *[HeaderSize]byte, m *Message) error {
	putHeader(hdr, Header{Type: m.Type, Order: m.Order, Size: uint32(len(m.Body))})
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("giop: write header: %w", err)
	}
	if len(m.Body) > 0 {
		if _, err := w.Write(m.Body); err != nil {
			return fmt.Errorf("giop: write body: %w", err)
		}
	}
	return nil
}

// SyncWriter serializes framed writes to a shared stream. Multiplexed IIOP
// interleaves many requests (client side) or replies (server side) on one
// connection; SyncWriter guarantees whole frames are written atomically with
// respect to each other, which is the only ordering GIOP requires (replies
// are matched to requests by ID, not by position in the stream).
//
// When the stream is a *bufio.Writer, the last writer in line flushes: a
// writer that finds nobody queued behind it pushes the buffer to the kernel
// before it returns, and one that does leaves its frame for them. A lone
// writer costs one syscall; a burst of writers that queued up while one
// flushed leaves in the next single write. A failed flush loses frames whose
// writers have already returned, so it is reported through the onErr
// callback and sticks: subsequent Writes fail immediately.
type SyncWriter struct {
	mu     sync.Mutex
	w      io.Writer
	bw     *bufio.Writer // non-nil when w buffers; the last writer flushes it
	queued atomic.Int32  // writers waiting for mu
	err    error         // sticky first write/flush error
	onErr  func(error)
	hdr    [HeaderSize]byte // the header scratch of the frame being written, under mu
}

var errWriterClosed = fmt.Errorf("giop: writer closed")

// NewSyncWriter wraps w for concurrent framed writes. onErr, which may be
// nil, is called at most once, when a flush fails; callers use it to tear
// down the connection, since frames other writers buffered are lost.
func NewSyncWriter(w io.Writer, onErr func(error)) *SyncWriter {
	sw := &SyncWriter{w: w, onErr: onErr}
	sw.bw, _ = w.(*bufio.Writer)
	return sw
}

// Write frames one message atomically relative to other Write calls on the
// same SyncWriter; it is on the stream when Write returns unless another
// writer was queued behind it, which then carries it out: whoever takes the
// lock after a writer that skipped its flush is bound to flush or hand on in
// turn. A body above MaxMessageSize is refused before the lock is taken, so
// the refusal does not stick.
func (sw *SyncWriter) Write(m *Message) error {
	if err := checkSize(m); err != nil {
		return err
	}
	sw.queued.Add(1)
	sw.mu.Lock()
	sw.queued.Add(-1)
	if sw.err != nil {
		err := sw.err
		sw.mu.Unlock()
		return err
	}
	if err := writeFrame(sw.w, &sw.hdr, m); err != nil {
		sw.err = err
		sw.mu.Unlock()
		return err
	}
	if sw.bw == nil || sw.queued.Load() > 0 {
		sw.mu.Unlock()
		return nil
	}
	err := sw.bw.Flush()
	if err == nil {
		sw.mu.Unlock()
		return nil
	}
	sw.err = err
	sw.mu.Unlock()
	// Outside the lock: the callback typically closes this writer.
	if sw.onErr != nil {
		sw.onErr(err)
	}
	return err
}

// Close flushes what is buffered; Writes after Close fail.
func (sw *SyncWriter) Close() {
	sw.mu.Lock()
	defer sw.mu.Unlock()
	if sw.err == nil {
		if sw.bw != nil {
			sw.bw.Flush()
		}
		sw.err = errWriterClosed
	}
}

// Reader reads one connection's messages into bodies from its own free list,
// to which Release (on any goroutine) gives them back: a page connection
// recycles page-sized bodies, a request connection small ones, and a
// collection empties neither. Read is for the connection's read loop.
type Reader struct {
	r    io.Reader
	hdr  [HeaderSize]byte
	free freelist.List[*Message]
}

// readerFree bounds a Reader's free list (no body on it is above
// PageBudget): what a connection holds at once in steady state.
const readerFree = 4

func newMessage() *Message { return new(Message) }

// NewReader returns a Reader of the messages framed on r.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: r, free: freelist.New(readerFree, newMessage)}
}

// noFree is the free list of a one-off Read: it keeps nothing.
var noFree = freelist.New(0, newMessage)

// Read reads one framed GIOP message from r into a body of its own: a
// one-off read of a stream no Reader owns. Release on the message counts it
// released and keeps nothing.
func Read(r io.Reader) (*Message, error) { return (&Reader{r: r, free: noFree}).Read() }

// Read reads the connection's next message. Pass it to Release once
// everything needed from its body has been decoded (or copied), and a later
// Read reuses it.
func (rd *Reader) Read() (*Message, error) {
	if _, err := io.ReadFull(rd.r, rd.hdr[:]); err != nil {
		return nil, err // io.EOF passes through for clean close detection
	}
	h, err := ParseHeader(&rd.hdr)
	if err != nil {
		return nil, err
	}
	m := rd.free.Get()
	m.Type, m.Order, m.from = h.Type, h.Order, rd
	liveMessages.Add(1)
	m.Body = slices.Grow(m.Body[:0], int(h.Size))[:h.Size]
	if _, err := io.ReadFull(rd.r, m.Body); err != nil {
		m.Release()
		return nil, fmt.Errorf("giop: read body: %w", err)
	}
	return m, nil
}

// Header is the decoded fixed header of one GIOP message.
type Header struct {
	Type  MsgType
	Order cdr.ByteOrder
	Size  uint32 // body length, header excluded
}

// ParseHeader decodes and checks the fixed header that opens every GIOP
// message. Read frames messages with it, and so does anything else that
// follows message boundaries through a GIOP stream.
func ParseHeader(hdr *[HeaderSize]byte) (Header, error) {
	if [4]byte(hdr[0:4]) != magic {
		return Header{}, fmt.Errorf("giop: bad magic %q", hdr[0:4])
	}
	if hdr[4] != Version[0] {
		return Header{}, fmt.Errorf("giop: unsupported version %d.%d", hdr[4], hdr[5])
	}
	if hdr[6]&^1 != 0 {
		// GIOP 1.1's more-fragments flag, or anything else: no message
		// continues in another.
		return Header{}, fmt.Errorf("giop: unsupported header flags %#02x", hdr[6])
	}
	order := cdr.ByteOrder(hdr[6])
	size := getULong(hdr[8:12], order)
	if size > MaxMessageSize {
		return Header{}, fmt.Errorf("giop: message size %d exceeds limit", size)
	}
	return Header{Type: MsgType(hdr[7]), Order: order, Size: size}, nil
}

// putHeader encodes h as ParseHeader reads it.
func putHeader(hdr *[HeaderSize]byte, h Header) {
	copy(hdr[0:4], magic[:])
	hdr[4], hdr[5] = Version[0], Version[1]
	hdr[6] = byte(h.Order)
	hdr[7] = byte(h.Type)
	putULong(hdr[8:12], h.Size, h.Order)
}

func putULong(b []byte, v uint32, order cdr.ByteOrder) {
	if order == cdr.BigEndian {
		b[0], b[1], b[2], b[3] = byte(v>>24), byte(v>>16), byte(v>>8), byte(v)
	} else {
		b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
	}
}

func getULong(b []byte, order cdr.ByteOrder) uint32 {
	if order == cdr.BigEndian {
		return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
	}
	return uint32(b[3])<<24 | uint32(b[2])<<16 | uint32(b[1])<<8 | uint32(b[0])
}

// ServiceContext is one entry of a request/reply service context list; the
// reproduction uses it to carry tracing metadata between layers (the paper's
// communication layer "mediates requests" — service contexts let us observe
// that mediation in tests and experiments).
type ServiceContext struct {
	ID   uint32
	Data []byte
}

// ServiceContextTracing tags the trace-propagation entry the ORB's request
// interceptors attach to requests ("WT" vendor tag, like the OMG-registered
// vendor service context ranges). Its data is an encoded trace.SpanContext,
// which is how one trace ID follows a query across every ORB hop.
const ServiceContextTracing uint32 = 0x57540001

// GetServiceContext returns the data of the first entry with the given ID.
func GetServiceContext(list []ServiceContext, id uint32) ([]byte, bool) {
	for _, c := range list {
		if c.ID == id {
			return c.Data, true
		}
	}
	return nil, false
}

// WithServiceContext returns the list with the entry for id set to data,
// replacing an existing entry or appending a new one.
func WithServiceContext(list []ServiceContext, id uint32, data []byte) []ServiceContext {
	for i := range list {
		if list[i].ID == id {
			list[i].Data = data
			return list
		}
	}
	return append(list, ServiceContext{ID: id, Data: data})
}

// RequestHeader is the GIOP 1.0 Request header.
type RequestHeader struct {
	ServiceContext   []ServiceContext
	RequestID        uint32
	ResponseExpected bool
	ObjectKey        []byte
	Operation        string
	Principal        []byte
}

// Marshal appends the header to a body encoder.
func (h *RequestHeader) Marshal(e *cdr.Encoder) {
	marshalContexts(e, h.ServiceContext)
	e.WriteULong(h.RequestID)
	e.WriteBool(h.ResponseExpected)
	e.WriteOctets(h.ObjectKey)
	e.WriteString(h.Operation)
	e.WriteOctets(h.Principal)
}

// Unmarshal reads a Request header from a body decoder into h, reusing h's
// service context array. The object key, principal and context data alias
// the body. So does op, the operation name, which the caller names as it
// sees fit (interned, or string(op)): h.Operation is cleared.
func (h *RequestHeader) Unmarshal(d *cdr.Decoder) (op []byte, err error) {
	h.Operation = ""
	if h.ServiceContext, err = unmarshalContexts(d, h.ServiceContext); err != nil {
		return nil, fmt.Errorf("giop: request service context: %w", err)
	}
	if h.RequestID, err = d.ReadULong(); err != nil {
		return nil, err
	}
	if h.ResponseExpected, err = d.ReadBool(); err != nil {
		return nil, err
	}
	if h.ObjectKey, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	if op, err = d.ReadStringBytes(); err != nil {
		return nil, err
	}
	if h.Principal, err = d.ReadOctets(); err != nil {
		return nil, err
	}
	return op, nil
}

// ReplyHeader is the GIOP 1.0 Reply header.
type ReplyHeader struct {
	ServiceContext []ServiceContext
	RequestID      uint32
	Status         ReplyStatus
}

// Marshal appends the header to a body encoder.
func (h *ReplyHeader) Marshal(e *cdr.Encoder) {
	marshalContexts(e, h.ServiceContext)
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// Unmarshal reads a Reply header from a body decoder into h, reusing h's
// service context array; the context data alias the body.
func (h *ReplyHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.ServiceContext, err = unmarshalContexts(d, h.ServiceContext); err != nil {
		return fmt.Errorf("giop: reply service context: %w", err)
	}
	if h.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	status, err := d.ReadULong()
	h.Status = ReplyStatus(status)
	return err
}

// LocateRequestHeader is the GIOP LocateRequest body.
type LocateRequestHeader struct {
	RequestID uint32
	ObjectKey []byte
}

// Marshal appends the header to a body encoder.
func (h *LocateRequestHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
	e.WriteOctets(h.ObjectKey)
}

// Unmarshal reads a LocateRequest body into h; the object key aliases it.
func (h *LocateRequestHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	h.ObjectKey, err = d.ReadOctets()
	return err
}

// LocateReplyHeader is the GIOP LocateReply body.
type LocateReplyHeader struct {
	RequestID uint32
	Status    LocateStatus
}

// Marshal appends the header to a body encoder.
func (h *LocateReplyHeader) Marshal(e *cdr.Encoder) {
	e.WriteULong(h.RequestID)
	e.WriteULong(uint32(h.Status))
}

// Unmarshal reads a LocateReply body into h.
func (h *LocateReplyHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return err
	}
	status, err := d.ReadULong()
	h.Status = LocateStatus(status)
	return err
}

func marshalContexts(e *cdr.Encoder, ctxs []ServiceContext) {
	e.WriteULong(uint32(len(ctxs)))
	for _, c := range ctxs {
		e.WriteULong(c.ID)
		e.WriteOctets(c.Data)
	}
}

// unmarshalContexts reads a service context list into dst's array; the
// entries' data alias the decoder's buffer.
func unmarshalContexts(d *cdr.Decoder, dst []ServiceContext) ([]ServiceContext, error) {
	n, err := d.ReadULong()
	if err != nil {
		return nil, err
	}
	ctxs := dst[:0]
	for i := uint32(0); i < n; i++ {
		var c ServiceContext
		if c.ID, err = d.ReadULong(); err != nil {
			return nil, err
		}
		if c.Data, err = d.ReadOctets(); err != nil {
			return nil, err
		}
		ctxs = append(ctxs, c)
	}
	return ctxs, nil
}
