package giop

import (
	"bytes"
	"fmt"
	"io"
	"strings"
	"testing"

	"repro/internal/cdr"
)

func TestMessageRoundTrip(t *testing.T) {
	for _, order := range []cdr.ByteOrder{cdr.BigEndian, cdr.LittleEndian} {
		var buf bytes.Buffer
		e := cdr.NewEncoderAt(order, HeaderSize)
		hdr := RequestHeader{
			ServiceContext:   []ServiceContext{{ID: 7, Data: []byte("trace")}},
			RequestID:        42,
			ResponseExpected: true,
			ObjectKey:        []byte("CoDatabase/RBH"),
			Operation:        "find_coalitions",
			Principal:        []byte("Orbix"),
		}
		hdr.Marshal(e)
		msg := &Message{Type: MsgRequest, Order: order, Body: e.Bytes()}
		if err := Write(&buf, msg); err != nil {
			t.Fatal(err)
		}
		got, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if got.Type != MsgRequest || got.Order != order {
			t.Fatalf("type/order = %v/%v", got.Type, got.Order)
		}
		var rh RequestHeader
		d := got.BodyDecoder()
		op, err := rh.Unmarshal(&d)
		if err != nil {
			t.Fatal(err)
		}
		if rh.RequestID != 42 || string(op) != "find_coalitions" ||
			string(rh.ObjectKey) != "CoDatabase/RBH" || !rh.ResponseExpected {
			t.Errorf("header = %+v", rh)
		}
		if len(rh.ServiceContext) != 1 || rh.ServiceContext[0].ID != 7 ||
			string(rh.ServiceContext[0].Data) != "trace" {
			t.Errorf("service context = %+v", rh.ServiceContext)
		}
		if string(rh.Principal) != "Orbix" {
			t.Errorf("principal = %q", rh.Principal)
		}
	}
}

func TestReplyRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	(&ReplyHeader{RequestID: 9, Status: ReplyUserException}).Marshal(e)
	if err := Write(&buf, &Message{Type: MsgReply, Order: cdr.BigEndian, Body: e.Bytes()}); err != nil {
		t.Fatal(err)
	}
	msg, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var rh ReplyHeader
	d := msg.BodyDecoder()
	if err := rh.Unmarshal(&d); err != nil {
		t.Fatal(err)
	}
	if rh.RequestID != 9 || rh.Status != ReplyUserException {
		t.Errorf("reply header = %+v", rh)
	}
}

func TestLocateRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	(&LocateRequestHeader{RequestID: 3, ObjectKey: []byte("k")}).Marshal(e)
	if err := Write(&buf, &Message{Type: MsgLocateRequest, Order: cdr.BigEndian, Body: e.Bytes()}); err != nil {
		t.Fatal(err)
	}
	msg, _ := Read(&buf)
	var lr LocateRequestHeader
	d := msg.BodyDecoder()
	err := lr.Unmarshal(&d)
	if err != nil || lr.RequestID != 3 || string(lr.ObjectKey) != "k" {
		t.Fatalf("locate request = %+v, %v", lr, err)
	}

	buf.Reset()
	e = cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	(&LocateReplyHeader{RequestID: 3, Status: LocateObjectHere}).Marshal(e)
	Write(&buf, &Message{Type: MsgLocateReply, Order: cdr.BigEndian, Body: e.Bytes()})
	msg, _ = Read(&buf)
	var lrep LocateReplyHeader
	d = msg.BodyDecoder()
	err = lrep.Unmarshal(&d)
	if err != nil || lrep.Status != LocateObjectHere {
		t.Fatalf("locate reply = %+v, %v", lrep, err)
	}
}

func TestBadMagic(t *testing.T) {
	data := []byte("NOPE\x01\x00\x00\x00\x00\x00\x00\x00")
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Errorf("bad magic not detected: %v", err)
	}
}

func TestBadVersion(t *testing.T) {
	data := []byte("GIOP\x02\x00\x00\x00\x00\x00\x00\x00")
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "version") {
		t.Errorf("bad version not detected: %v", err)
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	hdr := []byte("GIOP\x01\x00\x00\x00\xFF\xFF\xFF\xFF")
	if _, err := Read(bytes.NewReader(hdr)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("oversize not rejected: %v", err)
	}
	big := &Message{Type: MsgRequest, Order: cdr.BigEndian, Body: make([]byte, MaxMessageSize+1)}
	var buf bytes.Buffer
	if err := Write(&buf, big); err == nil {
		t.Error("oversize write accepted")
	}
}

// TestHeaderFlagsRefused: a flags byte with any bit set but byte order's —
// GIOP 1.1's more-fragments bit among them — is refused, in either order.
func TestHeaderFlagsRefused(t *testing.T) {
	for _, flags := range []byte{0x02, 0x03, 0x80, 0xff} {
		hdr := [HeaderSize]byte{'G', 'I', 'O', 'P', 1, 1, flags, byte(MsgReply)}
		if _, err := ParseHeader(&hdr); err == nil || !strings.Contains(err.Error(), "flags") {
			t.Errorf("flags %#02x: err = %v, want a flags refusal", flags, err)
		}
	}
	for _, flags := range []byte{0, 1} {
		hdr := [HeaderSize]byte{'G', 'I', 'O', 'P', 1, 0, flags, byte(MsgReply)}
		if h, err := ParseHeader(&hdr); err != nil || h.Order != cdr.ByteOrder(flags) {
			t.Errorf("flags %#02x: %+v, %v", flags, h, err)
		}
	}
}

// TestMsgTypeStringer: type 7 was GIOP 1.1's Fragment; it is not a message
// type here and prints as an unknown one.
func TestMsgTypeStringer(t *testing.T) {
	if got := MsgMessageError.String(); got != "MessageError" {
		t.Fatalf("MsgMessageError.String() = %q", got)
	}
	for _, k := range []MsgType{7, 12} {
		if got, want := k.String(), fmt.Sprintf("MsgType(%d)", byte(k)); got != want {
			t.Fatalf("unknown MsgType prints %q, want %q", got, want)
		}
	}
}

func TestTruncatedBody(t *testing.T) {
	var buf bytes.Buffer
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	e.WriteString("payload")
	Write(&buf, &Message{Type: MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()})
	data := buf.Bytes()[:buf.Len()-3]
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Error("truncated body accepted")
	}
}

func TestCleanEOF(t *testing.T) {
	if _, err := Read(bytes.NewReader(nil)); err != io.EOF {
		t.Errorf("empty stream: err = %v, want io.EOF", err)
	}
}

func TestEmptyBodyMessage(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &Message{Type: MsgCloseConnection, Order: cdr.BigEndian}); err != nil {
		t.Fatal(err)
	}
	msg, err := Read(&buf)
	if err != nil || msg.Type != MsgCloseConnection || len(msg.Body) != 0 {
		t.Errorf("close connection round trip: %+v %v", msg, err)
	}
}

func TestMultipleMessagesOnStream(t *testing.T) {
	var buf bytes.Buffer
	for i := 0; i < 5; i++ {
		e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
		e.WriteULong(uint32(i))
		Write(&buf, &Message{Type: MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()})
	}
	for i := 0; i < 5; i++ {
		msg, err := Read(&buf)
		if err != nil {
			t.Fatal(err)
		}
		d := msg.BodyDecoder()
		v, _ := d.ReadULong()
		if v != uint32(i) {
			t.Errorf("message %d carries %d", i, v)
		}
	}
}
