package orb

import (
	"context"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/idl"
)

var echoIDL = idl.MustParse(`
interface Echo {
    string echo(in string s);
    long long add(in long long a, in long long b);
    string fail(in string kind);
    oneway void ping();
    sequence<any> rows(in string q);
};
`)[0]

func newEchoServant() Servant {
	h := NewHandler(echoIDL)
	h.On("echo", func(args []idl.Any) (idl.Any, error) {
		return idl.String(args[0].Str), nil
	})
	h.On("add", func(args []idl.Any) (idl.Any, error) {
		return idl.Long(args[0].Int + args[1].Int), nil
	})
	h.On("fail", func(args []idl.Any) (idl.Any, error) {
		switch args[0].Str {
		case "user":
			return idl.Null(), Userf("NotFound", "nothing called %q", "x")
		case "plain":
			return idl.Null(), &testError{}
		default:
			return idl.Null(), &SystemException{Name: ExcBadParam, Detail: "boom"}
		}
	})
	h.On("ping", func(args []idl.Any) (idl.Any, error) {
		return idl.Any{Kind: idl.KindVoid}, nil
	})
	h.On("rows", func(args []idl.Any) (idl.Any, error) {
		return idl.Seq(idl.Struct(idl.F("q", idl.String(args[0].Str)))), nil
	})
	return h
}

type testError struct{}

func (*testError) Error() string { return "unclassified failure" }

// startPair boots two ORBs (different products) and activates an Echo
// servant on the server ORB. Colocation is disabled so calls really cross
// the socket.
func startPair(t testing.TB) (client *ORB, ref *ObjectRef) {
	t.Helper()
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(server.Shutdown)
	ior, err := server.Activate("Echo", newEchoServant())
	if err != nil {
		t.Fatal(err)
	}
	client = New(Options{Product: VisiBroker, DisableColocation: true})
	t.Cleanup(client.Shutdown)
	return client, client.Resolve(ior)
}

func TestIIOPInvocation(t *testing.T) {
	client, ref := startPair(t)
	got, err := ref.Invoke("echo", idl.String("hello over IIOP"))
	if err != nil {
		t.Fatal(err)
	}
	if got.Str != "hello over IIOP" {
		t.Errorf("echo = %s", got)
	}
	sum, err := ref.Invoke("add", idl.Long(40), idl.Long(2))
	if err != nil || sum.Int != 42 {
		t.Errorf("add = %v, %v", sum, err)
	}
	if client.Stats.IIOPCalls.Load() != 2 {
		t.Errorf("IIOP calls = %d", client.Stats.IIOPCalls.Load())
	}
	if client.Stats.ColocatedCalls.Load() != 0 {
		t.Errorf("colocated calls = %d", client.Stats.ColocatedCalls.Load())
	}
}

// A call under WithHousekeeping is sent like any other and counted apart, on
// the socket path and on the colocated one.
func TestHousekeepingCallsAreCountedApart(t *testing.T) {
	client, ref := startPair(t)
	for _, ctx := range []context.Context{context.Background(), WithHousekeeping(context.Background())} {
		if got, err := ref.InvokeCtx(ctx, "echo", idl.String("x")); err != nil || got.Str != "x" {
			t.Fatalf("echo = %v, %v", got, err)
		}
	}
	if st := client.Stats.Snapshot(); st.IIOPCalls != 1 || st.ColocatedCalls != 0 || st.HousekeepingCalls != 1 {
		t.Errorf("iiop=%d colocated=%d housekeeping=%d, want 1 0 1", st.IIOPCalls, st.ColocatedCalls, st.HousekeepingCalls)
	}

	o := New(Options{Product: Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(o.Shutdown)
	ior, err := o.Activate("Echo", newEchoServant())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := o.Resolve(ior).InvokeCtx(WithHousekeeping(context.Background()), "echo", idl.String("y")); err != nil {
		t.Fatal(err)
	}
	if st := o.Stats.Snapshot(); st.ColocatedCalls != 0 || st.IIOPCalls != 0 || st.HousekeepingCalls != 1 {
		t.Errorf("colocated ORB: iiop=%d colocated=%d housekeeping=%d, want 0 0 1", st.IIOPCalls, st.ColocatedCalls, st.HousekeepingCalls)
	}
}

func TestUserExceptionCrossesWire(t *testing.T) {
	_, ref := startPair(t)
	_, err := ref.Invoke("fail", idl.String("user"))
	ue, ok := err.(*UserException)
	if !ok {
		t.Fatalf("err = %T %v, want *UserException", err, err)
	}
	if ue.Name != "NotFound" || !strings.Contains(ue.Message, "nothing called") {
		t.Errorf("exception = %+v", ue)
	}
}

func TestSystemExceptionCrossesWire(t *testing.T) {
	_, ref := startPair(t)
	_, err := ref.Invoke("fail", idl.String("system"))
	se, ok := err.(*SystemException)
	if !ok {
		t.Fatalf("err = %T %v, want *SystemException", err, err)
	}
	if se.Name != ExcBadParam || se.Detail != "boom" {
		t.Errorf("exception = %+v", se)
	}
	// Unclassified errors surface as UNKNOWN.
	_, err = ref.Invoke("fail", idl.String("plain"))
	se, ok = err.(*SystemException)
	if !ok || se.Name != ExcUnknown || !strings.Contains(se.Detail, "unclassified") {
		t.Errorf("plain error = %v", err)
	}
}

func TestUnknownObjectAndOperation(t *testing.T) {
	client, ref := startPair(t)
	bad := *ref.IOR()
	bad.ObjectKey = []byte("NoSuchObject")
	_, err := client.Resolve(&bad).Invoke("echo", idl.String("x"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcObjectNotExist {
		t.Errorf("unknown object: %v", err)
	}
	_, err = ref.Invoke("nosuchop")
	se, ok = err.(*SystemException)
	if !ok || se.Name != ExcBadOperation {
		t.Errorf("unknown op: %v", err)
	}
}

func TestWrongArity(t *testing.T) {
	_, ref := startPair(t)
	_, err := ref.Invoke("add", idl.Long(1))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcBadParam {
		t.Errorf("wrong arity: %v", err)
	}
}

func TestLocate(t *testing.T) {
	client, ref := startPair(t)
	found, err := ref.Locate()
	if err != nil || !found {
		t.Errorf("Locate existing = %t, %v", found, err)
	}
	bad := *ref.IOR()
	bad.ObjectKey = []byte("ghost")
	found, err = client.Resolve(&bad).Locate()
	if err != nil || found {
		t.Errorf("Locate missing = %t, %v", found, err)
	}
}

// TestOneway sends a request with response_expected = false over a raw
// connection, as a foreign ORB's oneway call arrives: the server dispatches
// it, counts it and writes no reply, so once it has run, the next frame on
// the wire is the reply to the request that follows it.
func TestOneway(t *testing.T) {
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
	request := func(id uint32, responseExpected bool, op string, args ...idl.Any) {
		t.Helper()
		e := cdr.NewEncoderAt(cdr.BigEndian, giop.HeaderSize)
		(&giop.RequestHeader{RequestID: id, ResponseExpected: responseExpected,
			ObjectKey: []byte("Echo"), Operation: op}).Marshal(e)
		idl.MarshalAnys(e, args)
		if err := giop.Write(conn, &giop.Message{Type: giop.MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()}); err != nil {
			t.Fatal(err)
		}
	}

	request(1, false, "ping")
	deadline := time.Now().Add(5 * time.Second)
	for server.Stats.OnewayRequests.Load() != 1 {
		if time.Now().After(deadline) {
			t.Fatalf("OnewayRequests = %d, want 1", server.Stats.OnewayRequests.Load())
		}
		time.Sleep(time.Millisecond)
	}
	request(2, true, "echo", idl.String("after oneway"))

	msg, err := giop.Read(conn)
	if err != nil || msg.Type != giop.MsgReply {
		t.Fatalf("first frame after the oneway = %v, %v; want the echo reply", msg, err)
	}
	d := msg.BodyDecoder()
	var rh giop.ReplyHeader
	if err := rh.Unmarshal(&d); err != nil || rh.RequestID != 2 || rh.Status != giop.ReplyNoException {
		t.Fatalf("reply header = %+v, %v; want request 2, no exception", rh, err)
	}
	if got, err := idl.UnmarshalAny(&d); err != nil || got.Str != "after oneway" {
		t.Errorf("after oneway: %v, %v", got, err)
	}
}

func TestColocationFastPath(t *testing.T) {
	o := New(Options{Product: OrbixWeb})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	ior, err := o.Activate("Echo", newEchoServant())
	if err != nil {
		t.Fatal(err)
	}
	ref := o.Resolve(ior)
	got, err := ref.Invoke("echo", idl.String("in process"))
	if err != nil || got.Str != "in process" {
		t.Fatalf("colocated call: %v %v", got, err)
	}
	if o.Stats.ColocatedCalls.Load() != 1 || o.Stats.IIOPCalls.Load() != 0 {
		t.Errorf("colocated=%d iiop=%d", o.Stats.ColocatedCalls.Load(), o.Stats.IIOPCalls.Load())
	}
	// Exceptions behave identically on the fast path.
	_, err = ref.Invoke("fail", idl.String("user"))
	if _, ok := err.(*UserException); !ok {
		t.Errorf("colocated user exception: %v", err)
	}
}

func TestThreeORBProductsInterop(t *testing.T) {
	// One server per product; every product's client can call every server —
	// the paper's central interoperability claim.
	products := []Product{Orbix, OrbixWeb, VisiBroker}
	servers := make([]*ORB, len(products))
	iors := make([]*IOR, len(products))
	for i, p := range products {
		servers[i] = New(Options{Product: p, DisableColocation: true})
		if err := servers[i].Listen("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		defer servers[i].Shutdown()
		ior, err := servers[i].Activate("Echo", newEchoServant())
		if err != nil {
			t.Fatal(err)
		}
		iors[i] = ior
	}
	for _, cp := range products {
		client := New(Options{Product: cp, DisableColocation: true})
		for i := range servers {
			got, err := client.Resolve(iors[i]).Invoke("echo",
				idl.String(string(cp)+"->"+string(products[i])))
			if err != nil {
				t.Fatalf("%s -> %s: %v", cp, products[i], err)
			}
			if got.Str != string(cp)+"->"+string(products[i]) {
				t.Errorf("%s -> %s: got %s", cp, products[i], got)
			}
		}
		client.Shutdown()
	}
}

func TestConcurrentClients(t *testing.T) {
	client, ref := startPair(t)
	_ = client
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				got, err := ref.Invoke("add", idl.Long(int64(g)), idl.Long(int64(i)))
				if err != nil {
					errs <- err
					return
				}
				if got.Int != int64(g+i) {
					errs <- Userf("Mismatch", "got %d want %d", got.Int, g+i)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestIORStringify(t *testing.T) {
	ior := &IOR{
		RepoID:    "IDL:Echo:1.0",
		Host:      "dba.icis.qut.edu.au",
		Port:      9001,
		ObjectKey: []byte("CoDatabase/RBH"),
	}
	s := Stringify(ior)
	if !strings.HasPrefix(s, "IOR:") {
		t.Fatalf("stringified = %q", s)
	}
	got, err := Destringify(s)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(ior) {
		t.Errorf("round trip: %+v != %+v", got, ior)
	}
}

func TestDestringifyErrors(t *testing.T) {
	for _, s := range []string{"", "IOR:", "IOR:zz", "notanior", "IOR:00"} {
		if _, err := Destringify(s); err == nil {
			t.Errorf("no error for %q", s)
		}
	}
}

func TestActivateErrors(t *testing.T) {
	o := New(Options{Product: Orbix})
	if _, err := o.Activate("x", newEchoServant()); err == nil {
		t.Error("Activate before Listen accepted")
	}
	if err := o.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer o.Shutdown()
	if _, err := o.Activate("x", newEchoServant()); err != nil {
		t.Fatal(err)
	}
	if _, err := o.Activate("x", newEchoServant()); err == nil {
		t.Error("duplicate key accepted")
	}
	keys := o.ActiveKeys()
	if len(keys) != 1 || keys[0] != "x" {
		t.Errorf("ActiveKeys = %v", keys)
	}
	if err := o.Deactivate("x"); err != nil {
		t.Error(err)
	}
	if err := o.Deactivate("x"); err == nil {
		t.Error("double deactivate accepted")
	}
}

func TestDeactivatedObjectNotExist(t *testing.T) {
	client, ref := startPair(t)
	_ = client
	// Deactivate on the server side.
	v, _ := processORBs.Load(ref.IOR().Addr())
	server := v.(*ORB)
	if err := server.Deactivate("Echo"); err != nil {
		t.Fatal(err)
	}
	_, err := ref.Invoke("echo", idl.String("x"))
	se, ok := err.(*SystemException)
	if !ok || se.Name != ExcObjectNotExist {
		t.Errorf("after deactivate: %v", err)
	}
}

func TestHandlerOnUnknownOpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("On with unknown op did not panic")
		}
	}()
	NewHandler(echoIDL).On("nope", func([]idl.Any) (idl.Any, error) {
		return idl.Null(), nil
	})
}

func TestShutdownUnblocksClients(t *testing.T) {
	server := New(Options{Product: Orbix, DisableColocation: true})
	if err := server.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	ior, _ := server.Activate("Echo", newEchoServant())
	client := New(Options{Product: OrbixWeb, DisableColocation: true})
	defer client.Shutdown()
	ref := client.Resolve(ior)
	if _, err := ref.Invoke("echo", idl.String("warm")); err != nil {
		t.Fatal(err)
	}
	server.Shutdown()
	if _, err := ref.Invoke("echo", idl.String("cold")); err == nil {
		t.Error("invocation after server shutdown succeeded")
	}
}
