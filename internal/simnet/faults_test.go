package simnet

import (
	"bytes"
	"io"
	"math/rand"
	"net"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
)

// faultPair dials a server on one simulated host from a client endpoint
// wrapped in a FaultTransport running plan, and returns both ends.
func faultPair(t *testing.T, plan *FaultPlan) (n *Net, ft *FaultTransport, cli, srv net.Conn) {
	t.Helper()
	n = New(1)
	t.Cleanup(n.Close)
	ln, err := n.Endpoint("srv").Listen(":0")
	if err != nil {
		t.Fatal(err)
	}
	ft = NewFaultTransport(n.Endpoint("cli"), plan)
	if cli, err = ft.DialTimeout(ln.Addr().String(), time.Second); err != nil {
		t.Fatal(err)
	}
	if srv, err = ln.Accept(); err != nil {
		t.Fatal(err)
	}
	return n, ft, cli, srv
}

// frame encodes one GIOP message whose body is size bytes of tag.
func frame(t *testing.T, tag byte, size int) []byte {
	t.Helper()
	var b bytes.Buffer
	m := &giop.Message{Type: giop.MsgRequest, Order: cdr.BigEndian, Body: bytes.Repeat([]byte{tag}, size)}
	if err := giop.Write(&b, m); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// writeCut writes stream in pieces of random length, the way a buffered
// writer cuts messages: across their headers, bodies and boundaries.
func writeCut(t *testing.T, c net.Conn, stream []byte, rng *rand.Rand) {
	t.Helper()
	for len(stream) > 0 {
		k := min(1+rng.Intn(3000), len(stream))
		if _, err := c.Write(stream[:k]); err != nil {
			t.Fatal(err)
		}
		stream = stream[k:]
	}
}

// TestChaosFaultTransportDropsWholeMessages: however the writes cut the
// stream, a dropped message is dropped whole, so the receiver reads exactly
// the messages that were kept, each intact, and never a broken frame.
func TestChaosFaultTransportDropsWholeMessages(t *testing.T) {
	_, ft, cli, srv := faultPair(t, &FaultPlan{Seed: 7, Rules: []FaultRule{{Drop: 0.5}}})
	rng := rand.New(rand.NewSource(3))
	var stream []byte
	const msgs = 40
	for i := 0; i < msgs; i++ {
		stream = append(stream, frame(t, byte('a'+i%26), rng.Intn(6000))...)
	}
	writeCut(t, cli, stream, rng)
	cli.Close()
	got := 0
	for {
		m, err := giop.Read(srv)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("message %d: %v", got, err)
		}
		if !bytes.Equal(m.Body, bytes.Repeat(m.Body[:min(1, len(m.Body))], len(m.Body))) {
			t.Fatalf("message %d arrived mixed with another", got)
		}
		m.Release()
		got++
	}
	if dropped := ft.Injected(); dropped == 0 || dropped == msgs || int64(got)+dropped != msgs {
		t.Errorf("read %d and dropped %d of %d messages", got, dropped, msgs)
	}
}

// TestChaosFaultTransportResetAfterDeliversTheMessage: ResetAfter closes
// the connection after the last byte of the message, however many writes it
// took, and the client reads nothing from then on.
func TestChaosFaultTransportResetAfterDeliversTheMessage(t *testing.T) {
	_, ft, cli, srv := faultPair(t, &FaultPlan{Rules: []FaultRule{{ResetAfter: 1}}})
	msg := frame(t, 'r', 20000)
	writeCut(t, cli, msg[:9000], rand.New(rand.NewSource(1)))
	if _, err := cli.Write(msg[9000:]); err != nil {
		t.Fatalf("the write that ends the message failed: %v", err)
	}
	m, err := giop.Read(srv)
	if err != nil || len(m.Body) != 20000 {
		t.Fatalf("server read %v, %v; want the whole message", m, err)
	}
	m.Release()
	if _, err := giop.Read(srv); err != io.EOF {
		t.Errorf("after the message the server read %v, want EOF", err)
	}
	if _, err := cli.Read(make([]byte, 1)); err == nil {
		t.Error("client read after the reset succeeded")
	}
	if ft.Injected() != 1 {
		t.Errorf("injected = %d, want 1", ft.Injected())
	}
}

// TestChaosFaultTransportLatencyOncePerMessage: a message that reaches the
// client in several reads is held once, on the virtual clock, and a plan
// swapped to none stops holding.
func TestChaosFaultTransportLatencyOncePerMessage(t *testing.T) {
	n, ft, cli, srv := faultPair(t, &FaultPlan{Rules: []FaultRule{{LatencyMS: 300}}})
	msg := frame(t, 'l', 5000)
	go func() {
		srv.Write(msg[:100])
		time.Sleep(5 * time.Millisecond)
		srv.Write(msg[100:])
	}()
	before := n.Clock().Elapsed()
	buf := make([]byte, len(msg))
	if _, err := io.ReadFull(cli, buf); err != nil {
		t.Fatal(err)
	}
	if d := n.Clock().Elapsed() - before; d != 300*time.Millisecond {
		t.Errorf("a message read in pieces was held %v, want 300ms once", d)
	}
	ft.SetPlan(nil)
	go srv.Write(msg)
	before = n.Clock().Elapsed()
	if _, err := io.ReadFull(cli, buf); err != nil {
		t.Fatal(err)
	}
	if d := n.Clock().Elapsed() - before; d != 0 {
		t.Errorf("with no plan a message was held %v", d)
	}
}

// TestChaosFaultTransportDialRules: FailFirst refuses that many dials to
// its address, other addresses are left alone, and SetPlan starts counting
// afresh.
func TestChaosFaultTransportDialRules(t *testing.T) {
	n := New(1)
	defer n.Close()
	a, _ := n.Endpoint("a").Listen(":0")
	b, _ := n.Endpoint("b").Listen(":0")
	plan := &FaultPlan{Rules: []FaultRule{{Addr: a.Addr().String(), FailFirst: 2}}}
	ft := NewFaultTransport(n.Endpoint("cli"), plan)
	dial := func(ln net.Listener) error {
		c, err := ft.DialTimeout(ln.Addr().String(), time.Second)
		if err == nil {
			c.Close()
		}
		return err
	}
	for i, want := range []bool{false, false, true} {
		if err := dial(a); (err == nil) != want {
			t.Fatalf("dial %d to a: %v", i, err)
		}
	}
	if err := dial(b); err != nil {
		t.Fatalf("dial to b, which no rule names: %v", err)
	}
	ft.SetPlan(plan)
	if err := dial(a); err == nil {
		t.Fatal("a fresh plan let its first dial through")
	}
	if ft.Injected() != 3 {
		t.Errorf("injected = %d, want 3", ft.Injected())
	}
}
