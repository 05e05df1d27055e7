package giop

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/cdr"
)

// encodeReply builds a Reply message body: header for reqID plus payload
// bytes, returning the message and the encoded header length (the minFirst a
// fragmenting writer must keep in the initial frame).
func encodeReply(t testing.TB, reqID uint32, payload []byte) (*Message, int) {
	t.Helper()
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	rh := &ReplyHeader{RequestID: reqID, Status: ReplyNoException}
	rh.Marshal(e)
	hdrLen := e.Len()
	body := append(append([]byte(nil), e.Bytes()...), payload...)
	return &Message{Type: MsgReply, Order: cdr.BigEndian, Body: body}, hdrLen
}

// replyHeader decodes the Reply header that opens m's body.
func replyHeader(m *Message) (ReplyHeader, error) {
	var rh ReplyHeader
	d := m.BodyDecoder()
	return rh, rh.Unmarshal(&d)
}

// readAll drains every frame from buf.
func readAll(t testing.TB, buf *bytes.Buffer) []*Message {
	t.Helper()
	var msgs []*Message
	for buf.Len() > 0 {
		m, err := Read(buf)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		// Copy out of the pool so the slice survives subsequent Reads.
		cp := &Message{Type: m.Type, Order: m.Order, More: m.More, Body: append([]byte(nil), m.Body...)}
		m.Release()
		msgs = append(msgs, cp)
	}
	return msgs
}

// reassemble feeds a frame sequence for one message through a Reassembler.
func reassemble(t testing.TB, ra *Reassembler, reqID uint32, frames []*Message) *Message {
	t.Helper()
	if !frames[0].More {
		t.Fatalf("initial frame lacks more-fragments flag")
	}
	if err := ra.Begin(reqID, frames[0]); err != nil {
		t.Fatalf("begin: %v", err)
	}
	var out *Message
	for i, f := range frames[1:] {
		if f.Type != MsgFragment {
			t.Fatalf("frame %d: type %v, want Fragment", i+1, f.Type)
		}
		m, err := ra.Fragment(f)
		if err != nil {
			t.Fatalf("fragment %d: %v", i+1, err)
		}
		if m != nil && i != len(frames)-2 {
			t.Fatalf("reassembly completed early at fragment %d of %d", i+1, len(frames)-1)
		}
		out = m
	}
	if out == nil {
		t.Fatalf("reassembly did not complete after %d frames", len(frames))
	}
	return out
}

func TestWriteFragmentedRoundTrip(t *testing.T) {
	payload := make([]byte, 10_000)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	msg, hdrLen := encodeReply(t, 42, payload)
	want := append([]byte(nil), msg.Body...)

	var buf bytes.Buffer
	sw := NewSyncWriter(&buf, nil)
	frames, err := WriteFragmented(sw, msg, 42, 1024, hdrLen)
	if err != nil {
		t.Fatalf("write fragmented: %v", err)
	}
	if frames < 2 {
		t.Fatalf("frames = %d, want a fragmented write", frames)
	}

	msgs := readAll(t, &buf)
	if len(msgs) != frames {
		t.Fatalf("read %d frames, wrote %d", len(msgs), frames)
	}
	for i, m := range msgs[:len(msgs)-1] {
		if !m.More {
			t.Errorf("frame %d: more-fragments flag clear before the last frame", i)
		}
	}
	if last := msgs[len(msgs)-1]; last.More {
		t.Errorf("last frame still has more-fragments set")
	}

	ra := NewReassembler(4)
	out := reassemble(t, ra, 42, msgs)
	if out.Type != MsgReply || out.Order != cdr.BigEndian {
		t.Errorf("reassembled type/order = %v/%v", out.Type, out.Order)
	}
	if !bytes.Equal(out.Body, want) {
		t.Fatalf("reassembled body differs: %d vs %d bytes", len(out.Body), len(want))
	}
	rh, err := replyHeader(out)
	if err != nil || rh.RequestID != 42 {
		t.Fatalf("reassembled reply header = %+v, %v", rh, err)
	}
	if ra.Pending() != 0 {
		t.Errorf("pending = %d after completion", ra.Pending())
	}
}

func TestWriteFragmentedSmallBodyPassthrough(t *testing.T) {
	msg, hdrLen := encodeReply(t, 7, []byte("tiny"))
	var buf bytes.Buffer
	sw := NewSyncWriter(&buf, nil)
	frames, err := WriteFragmented(sw, msg, 7, 1024, hdrLen)
	if err != nil || frames != 1 {
		t.Fatalf("frames, err = %d, %v; want 1 unfragmented frame", frames, err)
	}
	msgs := readAll(t, &buf)
	if len(msgs) != 1 || msgs[0].More {
		t.Fatalf("small body produced %d frames (more=%v)", len(msgs), msgs[0].More)
	}

	// Negative threshold disables fragmentation outright.
	big, hdrLen := encodeReply(t, 8, make([]byte, 4096))
	buf.Reset()
	frames, err = WriteFragmented(sw, big, 8, -1, hdrLen)
	if err != nil || frames != 1 {
		t.Fatalf("disabled fragmentation wrote %d frames, err %v", frames, err)
	}
}

func TestWriteFragmentedMinFirstKeepsHeaderIntact(t *testing.T) {
	msg, hdrLen := encodeReply(t, 9, make([]byte, 512))
	if hdrLen <= 4 {
		t.Fatalf("unexpectedly small reply header: %d", hdrLen)
	}
	var buf bytes.Buffer
	sw := NewSyncWriter(&buf, nil)
	// Threshold smaller than the reply header: minFirst must win.
	if _, err := WriteFragmented(sw, msg, 9, 4, hdrLen); err != nil {
		t.Fatalf("write fragmented: %v", err)
	}
	msgs := readAll(t, &buf)
	if len(msgs[0].Body) < hdrLen {
		t.Fatalf("initial frame carries %d bytes, reply header needs %d", len(msgs[0].Body), hdrLen)
	}
	if _, err := replyHeader(msgs[0]); err != nil {
		t.Fatalf("initial frame's reply header unparsable: %v", err)
	}
}

// TestFragmentInterleave reassembles two fragmented replies whose frames
// arrive interleaved on one connection — the scenario fragmentation exists
// for.
func TestFragmentInterleave(t *testing.T) {
	mkFrames := func(reqID uint32, fill byte) ([]*Message, []byte) {
		payload := bytes.Repeat([]byte{fill}, 3000)
		msg, hdrLen := encodeReply(t, reqID, payload)
		var buf bytes.Buffer
		sw := NewSyncWriter(&buf, nil)
		if _, err := WriteFragmented(sw, msg, reqID, 700, hdrLen); err != nil {
			t.Fatalf("write fragmented: %v", err)
		}
		return readAll(t, &buf), append([]byte(nil), msg.Body...)
	}
	fa, wantA := mkFrames(100, 'a')
	fb, wantB := mkFrames(200, 'b')

	ra := NewReassembler(4)
	if err := ra.Begin(100, fa[0]); err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(200, fb[0]); err != nil {
		t.Fatal(err)
	}
	if ra.Pending() != 2 {
		t.Fatalf("pending = %d, want 2", ra.Pending())
	}
	done := map[uint32][]byte{}
	fa, fb = fa[1:], fb[1:]
	for len(fa) > 0 || len(fb) > 0 {
		for _, q := range []*[]*Message{&fa, &fb} {
			if len(*q) == 0 {
				continue
			}
			m, err := ra.Fragment((*q)[0])
			if err != nil {
				t.Fatalf("fragment: %v", err)
			}
			*q = (*q)[1:]
			if m != nil {
				rh, err := replyHeader(m)
				if err != nil {
					t.Fatalf("reassembled header: %v", err)
				}
				done[rh.RequestID] = m.Body
			}
		}
	}
	if !bytes.Equal(done[100], wantA) || !bytes.Equal(done[200], wantB) {
		t.Fatalf("interleaved reassembly corrupted a body (%d, %d bytes)", len(done[100]), len(done[200]))
	}
}

func TestReassemblerProtocolErrors(t *testing.T) {
	ra := NewReassembler(2)
	head := &Message{Type: MsgReply, Order: cdr.BigEndian, Body: make([]byte, 16), More: true}

	// Fragment for a request nobody began.
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	e.WriteULong(999)
	orphan := &Message{Type: MsgFragment, Order: cdr.BigEndian, Body: append([]byte(nil), e.Bytes()...)}
	if _, err := ra.Fragment(orphan); err == nil {
		t.Error("fragment for unknown request accepted")
	}

	// Truncated fragment header.
	runt := &Message{Type: MsgFragment, Order: cdr.BigEndian, Body: []byte{1, 2}}
	if _, err := ra.Fragment(runt); err == nil {
		t.Error("truncated fragment header accepted")
	}

	// Duplicate begin for the same request ID.
	if err := ra.Begin(1, head); err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(1, head); err == nil {
		t.Error("duplicate begin accepted")
	}

	// Pending cap.
	if err := ra.Begin(2, head); err != nil {
		t.Fatal(err)
	}
	if err := ra.Begin(3, head); err == nil {
		t.Error("begin past maxPending accepted")
	}

	// Cancel frees a slot.
	ra.Cancel(1)
	if err := ra.Begin(3, head); err != nil {
		t.Errorf("begin after cancel: %v", err)
	}

	// Reassembled-size cap.
	ra.pending[50] = &partialMsg{typ: MsgReply, order: cdr.BigEndian, body: make([]byte, MaxReassembledSize)}
	if _, err := ra.Fragment(fragFrame(50, []byte{1}, false)); err == nil {
		t.Error("reassembly past MaxReassembledSize accepted")
	}
	if _, dangling := ra.pending[50]; dangling {
		t.Error("oversized reassembly not dropped")
	}
}

// TestFragmentBytesCappedPerConnection: MaxReassembledSize bounds the bytes
// held across a connection's partial messages, not each one's. Two
// interleaved reassemblies that each stay under the cap but together pass it
// are refused, and a Begin that would pass it too; refusal and Cancel leave
// nothing pending.
func TestFragmentBytesCappedPerConnection(t *testing.T) {
	ra := NewReassembler(4)
	head := &Message{Type: MsgReply, Order: cdr.BigEndian, Body: make([]byte, 16), More: true}
	for _, id := range []uint32{1, 2} {
		if err := ra.Begin(id, head); err != nil {
			t.Fatal(err)
		}
	}
	// The bodies as if their earlier fragments had arrived: 33 and 31 MiB,
	// slices of one buffer whose pages stay untouched.
	big := make([]byte, MaxReassembledSize)
	ra.pending[1].body = big[: 33<<20 : 33<<20]
	ra.pending[2].body = big[33<<20:]
	if _, err := ra.Fragment(fragFrame(1, []byte{1}, true)); err == nil {
		t.Fatal("fragments past MaxReassembledSize across two messages accepted")
	}
	if ra.Pending() != 1 {
		t.Fatalf("pending = %d after the refusal, want 1", ra.Pending())
	}
	ra.pending[2].body = big[:MaxReassembledSize-8]
	if err := ra.Begin(3, head); err == nil {
		t.Fatal("begin past MaxReassembledSize accepted")
	}
	ra.Cancel(2)
	if err := ra.Begin(3, head); err != nil {
		t.Fatalf("begin after the bytes were released: %v", err)
	}
	ra.Cancel(3)
	if ra.Pending() != 0 {
		t.Fatalf("pending = %d, want 0", ra.Pending())
	}
}

// fragFrame hand-builds one Fragment message: request ID then raw payload.
func fragFrame(reqID uint32, payload []byte, more bool) *Message {
	e := cdr.NewEncoderAt(cdr.BigEndian, HeaderSize)
	e.WriteULong(reqID)
	body := append(append([]byte(nil), e.Bytes()...), payload...)
	return &Message{Type: MsgFragment, Order: cdr.BigEndian, More: more, Body: body}
}

// FuzzGIOPFragment feeds adversarial fragment schedules — interleaved
// request IDs, orphan and duplicate fragments, cancels, truncated headers —
// through the wire (every frame is framed by a SyncWriter and re-read) into
// one Reassembler, checking it never panics, never exceeds its pending cap,
// and that every completed message matches a shadow model of the bytes fed
// for its request ID.
func FuzzGIOPFragment(f *testing.F) {
	f.Add([]byte{0, 1, 1, 0, 2, 1, 1, 1})
	f.Add([]byte{0, 0, 0, 0, 3, 3})
	f.Add([]byte{1, 2, 0, 1, 2, 0, 1})
	f.Add([]byte("interleave me"))
	f.Fuzz(func(t *testing.T, data []byte) {
		const maxPending = 3
		ra := NewReassembler(maxPending)
		shadow := map[uint32][]byte{} // expected reassembled body per open ID
		var buf bytes.Buffer
		sw := NewSyncWriter(&buf, nil)

		roundTrip := func(m *Message) *Message {
			if err := sw.Write(m); err != nil {
				t.Fatalf("frame write: %v", err)
			}
			got, err := Read(&buf)
			if err != nil {
				t.Fatalf("frame read: %v", err)
			}
			cp := &Message{Type: got.Type, Order: got.Order, More: got.More,
				Body: append([]byte(nil), got.Body...)}
			got.Release()
			return cp
		}

		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], data[i+1]
			id := uint32(arg % 5) // few IDs → lots of collisions/interleaving
			switch op % 4 {
			case 0: // begin a fragmented reply
				payload := bytes.Repeat([]byte{arg}, int(arg%97))
				m, _ := encodeReply(t, id, payload)
				m.More = true
				m = roundTrip(m)
				if !m.More {
					t.Fatal("more-fragments flag lost on the wire")
				}
				if err := ra.Begin(id, m); err == nil {
					shadow[id] = append([]byte(nil), m.Body...)
				}
			case 1: // continuation fragment
				payload := bytes.Repeat([]byte{^arg}, int(arg%61))
				more := arg%2 == 0
				m := roundTrip(fragFrame(id, payload, more))
				out, err := ra.Fragment(m)
				_, open := shadow[id]
				if err != nil {
					if open {
						t.Fatalf("fragment for open request %d rejected: %v", id, err)
					}
					continue
				}
				if !open {
					t.Fatalf("fragment for unopened request %d accepted", id)
				}
				shadow[id] = append(shadow[id], payload...)
				if more && out != nil {
					t.Fatal("reassembly completed with more-fragments set")
				}
				if !more {
					if out == nil {
						t.Fatalf("final fragment for request %d returned nil", id)
					}
					if !bytes.Equal(out.Body, shadow[id]) {
						t.Fatalf("request %d: reassembled %d bytes, shadow %d",
							id, len(out.Body), len(shadow[id]))
					}
					delete(shadow, id)
				}
			case 2: // cancel
				ra.Cancel(id)
				delete(shadow, id)
			case 3: // raw adversarial fragment body straight from the fuzzer
				end := i + 2 + int(arg%16)
				if end > len(data) {
					end = len(data)
				}
				raw := &Message{Type: MsgFragment, Order: cdr.ByteOrder(arg % 2),
					Body: append([]byte(nil), data[i+2:end]...)}
				out, err := ra.Fragment(raw)
				if err == nil {
					// Completing an open reassembly with garbage is fine as
					// long as the request was open; an err-free orphan is not.
					if out == nil {
						t.Fatal("final raw fragment returned nil without error")
					}
					rh := cdr.NewDecoderAt(raw.Body, raw.Order, HeaderSize)
					rid, _ := rh.ReadULong()
					if _, open := shadow[rid]; !open {
						t.Fatal("orphan raw fragment accepted")
					}
					delete(shadow, rid)
				}
			}
			if ra.Pending() > maxPending {
				t.Fatalf("pending %d exceeds cap %d", ra.Pending(), maxPending)
			}
		}
	})
}

// TestFragmentStringer covers the new message-type name.
func TestFragmentStringer(t *testing.T) {
	if got := MsgFragment.String(); got != "Fragment" {
		t.Fatalf("MsgFragment.String() = %q", got)
	}
	if got := fmt.Sprint(MsgType(12)); got != "MsgType(12)" {
		t.Fatalf("unknown MsgType prints %q", got)
	}
}
