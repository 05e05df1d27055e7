package orb

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/idl"
)

// overBudget is a body length past giop.PageBudget by n bytes: the size at
// which a body used to be cut into GIOP 1.1 fragments.
func overBudget(n int) int { return giop.PageBudget + n }

// TestLargeBodyRoundTrip pushes a payload above the page budget both ways
// (big request argument, big echoed reply): each crosses as one message, and
// no side counts a fragment.
func TestLargeBodyRoundTrip(t *testing.T) {
	client, ref := startPair(t)
	payload := strings.Repeat("webfindit/", overBudget(300<<10)/10) // ~556 KiB
	got, err := ref.Invoke("echo", idl.String(payload))
	if err != nil {
		t.Fatal(err)
	}
	if got.Str != payload {
		t.Fatalf("echo corrupted: %d bytes back, want %d", len(got.Str), len(payload))
	}
	if n := client.Stats.FragmentsSent.Load(); n != 0 {
		t.Errorf("client counted %d fragment(s)", n)
	}
	if sent, min := client.Stats.BytesSent.Load(), int64(len(payload)); sent < min || sent > min+512 {
		t.Errorf("client sent %d bytes for a %d-byte argument: not one message", sent, min)
	}
}

// TestLargeBodiesInterleavedCalls runs many concurrent calls, large and small,
// over the shared mux: the demux must route every reply, large ones whole in
// one message, to its own caller.
func TestLargeBodiesInterleavedCalls(t *testing.T) {
	_, ref := startPair(t)
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			payload := "small"
			if i%4 == 0 {
				payload = strings.Repeat(string(rune('a'+i%26)), overBudget(1000+i*37))
			}
			got, err := ref.InvokeCtx(context.Background(), "echo", idl.String(payload))
			if err != nil {
				errs <- err
				return
			}
			if got.Str != payload {
				errs <- &SystemException{Name: ExcMarshal, Detail: "interleaved reply corrupted"}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestLargeExceptionReply: a user exception whose message is above the page
// budget reaches the caller whole.
func TestLargeExceptionReply(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	h := NewHandler(echoIDL)
	h.On("fail", func(args []idl.Any) (idl.Any, error) {
		return idl.Null(), &UserException{Name: "Big", Message: strings.Repeat("why ", overBudget(0)/4+1)}
	})
	ior, err := server.Activate("Echo", h)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Product: VisiBroker, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	_, err = client.Resolve(ior).Invoke("fail", idl.String("user"))
	ue, ok := err.(*UserException)
	if !ok {
		t.Fatalf("err = %T %v, want *UserException", err, err)
	}
	if want := 4 * (overBudget(0)/4 + 1); ue.Name != "Big" || len(ue.Message) != want {
		t.Errorf("exception = %q / %d bytes, want Big / %d", ue.Name, len(ue.Message), want)
	}
}

// wantMarshal fails the test unless err is a MARSHAL system exception.
func wantMarshal(t *testing.T, what string, err error) {
	t.Helper()
	var se *SystemException
	if !errors.As(err, &se) || se.Name != ExcMarshal {
		t.Fatalf("%s: err = %T %v, want MARSHAL", what, err, err)
	}
}

// TestOversizeBodies: a reply and a request above giop.MaxMessageSize are
// refused before they reach the wire. Each caller gets MARSHAL, and the next
// call goes out on the same connection.
func TestOversizeBodies(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	h := newEchoServant().(*Handler)
	h.On("rows", func(args []idl.Any) (idl.Any, error) {
		return idl.Octets(make([]byte, giop.MaxMessageSize+1)), nil
	})
	ior, err := server.Activate("Echo", h)
	if err != nil {
		t.Fatal(err)
	}
	client := New(Options{Product: VisiBroker, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	ref := client.Resolve(ior)
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatal(err)
	}
	conn := func() *muxConn {
		client.pool.mu.Lock()
		defer client.pool.mu.Unlock()
		if conns := client.pool.conns[ref.Addr()]; len(conns) == 1 {
			return conns[0]
		}
		return nil
	}
	first := conn()
	if first == nil {
		t.Fatal("no pooled connection after the first call")
	}

	_, err = ref.Invoke("rows", idl.String("all"))
	wantMarshal(t, "oversize reply", err)
	if got, err := ref.Invoke("echo", idl.String("after the reply")); err != nil || got.Str != "after the reply" {
		t.Fatalf("call after the oversize reply: %v, %v", got, err)
	}

	_, err = ref.Invoke("echo", idl.Octets(make([]byte, giop.MaxMessageSize+1)))
	wantMarshal(t, "oversize request", err)
	if got, err := ref.Invoke("echo", idl.String("after the request")); err != nil || got.Str != "after the request" {
		t.Fatalf("call after the oversize request: %v, %v", got, err)
	}

	if conn() != first {
		t.Error("the connection was replaced: an oversize body poisoned it")
	}
	if n := server.Stats.ActiveConns.Load(); n != 1 {
		t.Errorf("server sees %d connections, want 1", n)
	}
}

// rawFrame frames a message by hand: the GIOP header with the given flags
// byte and type, then body.
func rawFrame(flags byte, typ giop.MsgType, body []byte) []byte {
	n := len(body)
	hdr := []byte{'G', 'I', 'O', 'P', 1, 1, flags, byte(typ), byte(n >> 24), byte(n >> 16), byte(n >> 8), byte(n)}
	return append(hdr, body...)
}

// echoRequest encodes a Request body for Echo.echo(s).
func echoRequest(id uint32, s string) []byte {
	e := cdr.NewEncoderAt(cdr.BigEndian, giop.HeaderSize)
	(&giop.RequestHeader{RequestID: id, ResponseExpected: true, ObjectKey: []byte("Echo"), Operation: "echo"}).Marshal(e)
	idl.MarshalAnys(e, []idl.Any{idl.String(s)})
	return e.Bytes()
}

// TestForeignFramesServer sends the server GIOP 1.1 fragmentation by hand. A
// type-7 (Fragment) frame is a message of an unknown type: the server answers
// MessageError and goes on reading. A Request with the more-fragments flag is
// refused by its header, and the server closes the connection.
func TestForeignFramesServer(t *testing.T) {
	server := New(Options{Product: Orbix})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	if _, err := server.Activate("Echo", newEchoServant()); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", server.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))

	if _, err := conn.Write(rawFrame(0, 7, []byte{0, 0, 0, 1})); err != nil {
		t.Fatal(err)
	}
	if m, err := giop.Read(conn); err != nil || m.Type != giop.MsgMessageError {
		t.Fatalf("answer to a type-7 frame = %v, %v; want MessageError", m, err)
	}
	if _, err := conn.Write(rawFrame(0, giop.MsgRequest, echoRequest(1, "still here"))); err != nil {
		t.Fatal(err)
	}
	if m, err := giop.Read(conn); err != nil || m.Type != giop.MsgReply {
		t.Fatalf("answer to the echo after it = %v, %v; want its Reply", m, err)
	}

	errs := server.Stats.ProtocolErrors.Load()
	if _, err := conn.Write(rawFrame(2, giop.MsgRequest, echoRequest(2, "more to come"))); err != nil {
		t.Fatal(err)
	}
	if m, err := giop.Read(conn); err == nil {
		t.Fatalf("answer to a request flagged more-fragments = %v; want the connection closed", m.Type)
	}
	if server.Stats.ProtocolErrors.Load() == errs {
		t.Error("the flagged request was not counted as a protocol error")
	}
}

// TestForeignFramesClient answers a client's requests by hand: with a type-7
// (Fragment) frame, which fails the connection with MARSHAL like any message
// type a client does not read, and with a Reply flagged more-fragments, whose
// header the client refuses at once instead of waiting for a continuation.
func TestForeignFramesClient(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	answers := make(chan []byte, 2)
	answers <- rawFrame(0, 7, []byte{0, 0, 0, 1})
	answers <- nil // filled in per request: a flagged Reply
	go func() {
		for {
			nc, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer nc.Close()
				m, err := giop.Read(nc)
				if err != nil {
					return
				}
				var hdr giop.RequestHeader
				d := m.BodyDecoder()
				if _, err := hdr.Unmarshal(&d); err != nil {
					return
				}
				frame := <-answers
				if frame == nil {
					e := cdr.NewEncoderAt(cdr.BigEndian, giop.HeaderSize)
					(&giop.ReplyHeader{RequestID: hdr.RequestID}).Marshal(e)
					frame = rawFrame(2, giop.MsgReply, e.Bytes())
				}
				nc.Write(frame)
				var buf [1]byte
				nc.Read(buf[:]) // hold the connection until the client drops it
			}()
		}
	}()
	addr := ln.Addr().(*net.TCPAddr)
	client := New(Options{Product: VisiBroker, DisableColocation: true, CallTimeout: 5 * time.Second})
	t.Cleanup(client.Shutdown)
	ref := client.Resolve(&IOR{RepoID: "IDL:Echo:1.0", Host: "127.0.0.1", Port: uint16(addr.Port), ObjectKey: []byte("Echo")})

	_, err = ref.Invoke("echo", idl.String("x"))
	wantMarshal(t, "type-7 answer", err)

	start := time.Now()
	_, err = ref.Invoke("echo", idl.String("y"))
	var se *SystemException
	if !errors.As(err, &se) || se.Name != ExcCommFailure || !strings.Contains(se.Detail, "flags") {
		t.Fatalf("flagged reply: err = %v, want COMM_FAILURE naming the flags", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Errorf("flagged reply refused after %v: the client waited for a continuation", d)
	}
}
