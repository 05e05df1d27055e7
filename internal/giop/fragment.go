package giop

import (
	"fmt"
	"io"

	"repro/internal/cdr"
)

// GIOP 1.1 message fragmentation. A Reply (or Request) whose body exceeds a
// size threshold is written as an initial frame carrying the message header
// and the first slice of the body with the more-fragments flag set, followed
// by Fragment frames carrying the remaining slices. Each Fragment body opens
// with the request ID of the message it continues (the GIOP 1.2 fragment
// header, which this implementation adopts for 1.1 — pure 1.1 fragments are
// anonymous and would forbid interleaving), so fragments of different replies
// interleave freely on one multiplexed connection and one huge reply no
// longer head-of-line-blocks the frames of the pipelined calls behind it.
//
// Reassembly concatenates the initial body with each fragment's payload.
// Slicing happens on the fully CDR-encoded body, so byte offsets — and with
// them CDR alignment, which is relative to the message start — are preserved
// no matter where the splits fall.

// MsgFragment is the GIOP 1.1 Fragment message type.
const MsgFragment MsgType = 7

// FlagMoreFragments is the GIOP 1.1 header flag (bit 1) marking a message
// continued by a Fragment frame. Bit 0 remains the byte-order flag.
const FlagMoreFragments = 0x2

// MaxReassembledSize bounds the body bytes a connection's Reassembler holds
// across all its partial messages (MaxMessageSize still bounds each frame). It
// protects receivers from a peer streaming fragments forever, or opening many
// reassemblies at once.
const MaxReassembledSize = 64 << 20

// DefaultFragmentThreshold is the write-side auto-fragmentation threshold
// used when a caller passes 0: bodies above 256 KiB are split into frames of
// that size. Large enough that small replies pay nothing, small enough that
// a multi-megabyte result leaves the writer in slices other replies can
// interleave with.
const DefaultFragmentThreshold = 256 << 10

// FragmentHeader opens every Fragment body: the request ID of the message
// the fragment continues.
type FragmentHeader struct {
	RequestID uint32
}

// Marshal appends the header to a body encoder.
func (h *FragmentHeader) Marshal(e *cdr.Encoder) { e.WriteULong(h.RequestID) }

// Unmarshal reads a Fragment header from a body decoder into h.
func (h *FragmentHeader) Unmarshal(d *cdr.Decoder) error {
	var err error
	if h.RequestID, err = d.ReadULong(); err != nil {
		return fmt.Errorf("giop: fragment header: %w", err)
	}
	return nil
}

// WriteFragmented writes m through sw, splitting its body into an initial
// frame plus Fragment frames when it exceeds threshold (0 selects
// DefaultFragmentThreshold; negative disables splitting). minFirst keeps at
// least that many bytes — the message's embedded request/reply header — in
// the initial frame, so the receiver can always key the reassembly by request
// ID from frame one. Each frame is written atomically through sw, and frames
// of other messages may interleave between them; reassembly is keyed by
// reqID, which must match the request ID inside m's header. It returns the
// number of frames written.
func WriteFragmented(sw *SyncWriter, m *Message, reqID uint32, threshold, minFirst int) (int, error) {
	if threshold == 0 {
		threshold = DefaultFragmentThreshold
	}
	if threshold < 0 || len(m.Body) <= threshold {
		return 1, sw.Write(m)
	}
	first := threshold
	if first < minFirst {
		first = minFirst
	}
	if first >= len(m.Body) {
		return 1, sw.Write(m)
	}
	head := Message{Type: m.Type, Order: m.Order, Body: m.Body[:first], More: true}
	if err := sw.Write(&head); err != nil {
		return 0, err
	}
	frames := 1
	for off := first; off < len(m.Body); {
		end := off + threshold
		if end > len(m.Body) {
			end = len(m.Body)
		}
		more := end < len(m.Body)
		if err := sw.writeFragment(m.Order, reqID, m.Body[off:end], more); err != nil {
			return frames, err
		}
		frames++
		off = end
	}
	return frames, nil
}

// writeFragment frames one Fragment message — header, 4-byte fragment header
// (the request ID), payload — without copying the payload into a contiguous
// body first.
func (sw *SyncWriter) writeFragment(order cdr.ByteOrder, reqID uint32, payload []byte, more bool) error {
	size := 4 + len(payload)
	if size > MaxMessageSize {
		return fmt.Errorf("giop: fragment body %d exceeds limit", size)
	}
	return sw.write(func(w io.Writer) error {
		hdr := &sw.hdr
		putHeader(hdr, Header{Type: MsgFragment, Order: order, More: more, Size: uint32(size)})
		var frag [4]byte
		putULong(frag[:], reqID, order)
		_, err := w.Write(hdr[:])
		if err == nil {
			_, err = w.Write(frag[:])
		}
		if err == nil && len(payload) > 0 {
			_, err = w.Write(payload)
		}
		if err != nil {
			return fmt.Errorf("giop: write fragment: %w", err)
		}
		return nil
	})
}

// Reassembler accumulates fragmented messages keyed by request ID. It is not
// safe for concurrent use: each connection's demux read loop owns one, which
// is also what makes the accounting (pending count, byte caps) per
// connection. Completed messages come back as ordinary Messages no Reader owns
// and flow through the same handling as unfragmented ones.
type Reassembler struct {
	maxPending int
	pending    map[uint32]*partialMsg
}

type partialMsg struct {
	typ   MsgType
	order cdr.ByteOrder
	body  []byte
}

// NewReassembler returns a reassembler admitting at most maxPending
// concurrent partial messages (<=0 selects 1). The bound mirrors the mux
// pipelining depth: a peer cannot hold more reassemblies open than it could
// have requests in flight.
func NewReassembler(maxPending int) *Reassembler {
	if maxPending <= 0 {
		maxPending = 1
	}
	return &Reassembler{maxPending: maxPending, pending: make(map[uint32]*partialMsg)}
}

// Pending reports the number of partial messages awaiting fragments.
func (ra *Reassembler) Pending() int { return len(ra.pending) }

// held is the body bytes the partial messages hold: completing, refusing or
// cancelling one releases its bytes by forgetting it.
func (ra *Reassembler) held() int {
	n := 0
	for _, p := range ra.pending {
		n += len(p.body)
	}
	return n
}

// Begin starts reassembling a message whose initial frame arrived with the
// more-fragments flag. The frame's body is copied, so the caller may Release
// m immediately. reqID must be the request ID parsed from the frame's own
// request/reply header.
func (ra *Reassembler) Begin(reqID uint32, m *Message) error {
	if _, dup := ra.pending[reqID]; dup {
		return fmt.Errorf("giop: duplicate fragmented message for request %d", reqID)
	}
	if len(ra.pending) >= ra.maxPending {
		return fmt.Errorf("giop: too many fragmented messages in flight (%d)", len(ra.pending))
	}
	if ra.held()+len(m.Body) > MaxReassembledSize {
		return fmt.Errorf("giop: fragmented messages in flight exceed %d bytes", MaxReassembledSize)
	}
	ra.pending[reqID] = &partialMsg{
		typ:   m.Type,
		order: m.Order,
		body:  append(make([]byte, 0, 2*len(m.Body)), m.Body...),
	}
	return nil
}

// Fragment consumes one Fragment frame. It returns the fully reassembled
// message when the frame was the last fragment, nil when more are expected,
// and an error on a protocol violation (a fragment for no known message, or
// one taking the partial messages past MaxReassembledSize, which drops its
// own). The frame's payload is copied, so the caller may Release m
// immediately.
func (ra *Reassembler) Fragment(m *Message) (*Message, error) {
	d := m.BodyDecoder()
	var fh FragmentHeader
	if err := fh.Unmarshal(&d); err != nil {
		return nil, err
	}
	p, ok := ra.pending[fh.RequestID]
	if !ok {
		return nil, fmt.Errorf("giop: fragment for unknown request %d", fh.RequestID)
	}
	payload := m.Body[d.Pos():]
	if ra.held()+len(payload) > MaxReassembledSize {
		delete(ra.pending, fh.RequestID)
		return nil, fmt.Errorf("giop: reassembled messages exceed %d bytes at request %d", MaxReassembledSize, fh.RequestID)
	}
	p.body = append(p.body, payload...)
	if m.More {
		return nil, nil
	}
	delete(ra.pending, fh.RequestID)
	return &Message{Type: p.typ, Order: p.order, Body: p.body}, nil
}

// Cancel drops a pending reassembly (e.g. on CancelRequest); unknown IDs are
// a no-op.
func (ra *Reassembler) Cancel(reqID uint32) { delete(ra.pending, reqID) }
