package giop

import (
	"bytes"
	"io"
	"testing"

	"repro/internal/cdr"
)

// FuzzGIOPRoundTrip drives the pooled encode/decode path end to end: a
// Request and a Reply are marshalled with pooled body encoders, framed,
// read back through the pooled Read, unmarshalled, compared field by field,
// and released. Running several iterations per input makes the pools
// actually recycle messages and encoder buffers, so cross-talk between a
// released message and a subsequent read (the classic pooling bug) surfaces
// as a mismatch rather than going unnoticed.
func FuzzGIOPRoundTrip(f *testing.F) {
	f.Add(uint32(1), true, []byte("codb/key"), "find_coalitions", []byte("p"), []byte("payload"), false)
	f.Add(uint32(0), false, []byte{}, "", []byte{}, []byte{}, true)
	f.Add(uint32(0xffffffff), true, bytes.Repeat([]byte{0xab}, 300), "version", []byte{}, bytes.Repeat([]byte{0x01}, 1024), false)

	f.Fuzz(func(t *testing.T, reqID uint32, respExpected bool, objectKey []byte, op string, principal []byte, payload []byte, little bool) {
		if bytes.ContainsRune([]byte(op), 0) {
			t.Skip("CDR strings cannot carry NUL")
		}
		order := cdr.BigEndian
		if little {
			order = cdr.LittleEndian
		}

		// Several rounds over one stream, one Reader and one encoder, so
		// bodies and encoder buffers get reused within a single execution.
		var wire bytes.Buffer
		rd := NewReader(&wire)
		e := cdr.NewEncoder(order)
		for i := 0; i < 4; i++ {
			// Request leg.
			e.ResetFor(order, HeaderSize)
			reqHdr := &RequestHeader{
				ServiceContext:   []ServiceContext{{ID: ServiceContextTracing, Data: payload}},
				RequestID:        reqID + uint32(i),
				ResponseExpected: respExpected,
				ObjectKey:        objectKey,
				Operation:        op,
				Principal:        principal,
			}
			reqHdr.Marshal(e)
			e.WriteOctets(payload)
			if err := Write(&wire, &Message{Type: MsgRequest, Order: order, Body: e.Bytes()}); err != nil {
				t.Fatalf("write request: %v", err)
			}

			// Reply leg, framed onto the same stream.
			e.ResetFor(order, HeaderSize)
			repHdr := &ReplyHeader{RequestID: reqID + uint32(i), Status: ReplyNoException}
			repHdr.Marshal(e)
			e.WriteOctets(payload)
			if err := Write(&wire, &Message{Type: MsgReply, Order: order, Body: e.Bytes()}); err != nil {
				t.Fatalf("write reply: %v", err)
			}

			// Read the request back; its header aliases the body, so it is
			// checked before Release.
			m, err := rd.Read()
			if err != nil {
				t.Fatalf("read request: %v", err)
			}
			if m.Type != MsgRequest || m.Order != order {
				t.Fatalf("request frame: got type=%v order=%v", m.Type, m.Order)
			}
			d := m.BodyDecoder()
			var gotReq RequestHeader
			gotOp, err := gotReq.Unmarshal(&d)
			if err != nil {
				t.Fatalf("unmarshal request header: %v", err)
			}
			gotPayload, err := d.ReadOctets()
			if err != nil {
				t.Fatalf("read request payload: %v", err)
			}
			if gotReq.RequestID != reqID+uint32(i) ||
				gotReq.ResponseExpected != respExpected ||
				!bytes.Equal(gotReq.ObjectKey, objectKey) ||
				string(gotOp) != op ||
				!bytes.Equal(gotReq.Principal, principal) {
				t.Fatalf("request header mismatch: got %+v op %q want %+v", gotReq, gotOp, reqHdr)
			}
			if len(gotReq.ServiceContext) != 1 ||
				gotReq.ServiceContext[0].ID != ServiceContextTracing ||
				!bytes.Equal(gotReq.ServiceContext[0].Data, payload) {
				t.Fatalf("service context mismatch: %+v", gotReq.ServiceContext)
			}
			if !bytes.Equal(gotPayload, payload) {
				t.Fatalf("request payload mismatch: got %d bytes want %d", len(gotPayload), len(payload))
			}
			m.Release()

			// Read the reply, into the body the request gave back.
			m, err = rd.Read()
			if err != nil {
				t.Fatalf("read reply: %v", err)
			}
			if m.Type != MsgReply {
				t.Fatalf("reply frame: got type=%v", m.Type)
			}
			d = m.BodyDecoder()
			var gotRep ReplyHeader
			if err := gotRep.Unmarshal(&d); err != nil {
				t.Fatalf("unmarshal reply header: %v", err)
			}
			repPayload, err := d.ReadOctets()
			if err != nil {
				t.Fatalf("read reply payload: %v", err)
			}
			if gotRep.RequestID != reqID+uint32(i) || gotRep.Status != ReplyNoException {
				t.Fatalf("reply header mismatch: %+v", gotRep)
			}
			if !bytes.Equal(repPayload, payload) {
				t.Fatalf("reply payload mismatch")
			}
			m.Release()
		}
	})
}

// FuzzGIOPRead feeds arbitrary bytes to the pooled reader: hostile framing
// must produce an error or a well-formed message, never a panic, and the
// messages a connection's Reader hands out for valid frames must release
// cleanly back to it.
func FuzzGIOPRead(f *testing.F) {
	// A valid empty CloseConnection frame as a seed.
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgCloseConnection, Order: cdr.BigEndian}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("GIOP"))
	f.Add([]byte{})
	// GIOP 1.1's fragmentation: the more-fragments flag on a Reply, and a
	// type-7 frame carrying a request ID. The first is refused by the header,
	// the second is read as a message of an unknown type.
	f.Add([]byte("GIOP\x01\x01\x02\x01\x00\x00\x00\x08\x00\x00\x00\x00\x00\x00\x00\x01"))
	f.Add([]byte("GIOP\x01\x01\x00\x07\x00\x00\x00\x04\x00\x00\x00\x01"))

	f.Fuzz(func(t *testing.T, raw []byte) {
		rd := NewReader(bytes.NewReader(raw))
		for {
			m, err := rd.Read()
			if err != nil {
				if m != nil {
					t.Fatalf("Read returned both message and error %v", err)
				}
				return
			}
			if len(m.Body) > MaxMessageSize {
				t.Fatalf("oversized body %d accepted", len(m.Body))
			}
			m.Release()
		}
	})
}

// FuzzGIOPRead rejects bodies larger than the remaining input via
// io.ReadFull, so a short read must not hand back a partially filled pooled
// buffer — covered above; this sanity check pins the EOF contract.
func TestReadEOFContract(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: got %v, want io.EOF", err)
	}
}
