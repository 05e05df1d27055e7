package orb

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/idl"
)

// acceptLoop accepts IIOP connections until the listener closes.
func (o *ORB) acceptLoop(ln net.Listener) {
	defer o.wg.Done()
	for {
		nc, err := ln.Accept()
		if err != nil {
			select {
			case <-o.closed:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return
			}
			o.Stats.ProtocolErrors.Add(1)
			continue
		}
		o.Stats.ActiveConns.Add(1)
		o.wg.Add(1)
		go o.serveConn(nc)
	}
}

// serveConn handles one inbound IIOP connection. The loop reads and
// demultiplexes GIOP messages and hands every Request to a dispatch worker of
// the connection, so slow servants do not block the requests pipelined
// behind them. Replies are serialized through a shared giop.SyncWriter and
// matched to requests by GIOP request ID, not by stream position, so
// out-of-order completion is fine. In-flight dispatches per connection are
// capped at maxPipelinePerConn — the same depth at which a well-behaved
// client opens another connection — so a client flooding one connection
// stalls its own read loop instead of piling up servant work.
func (o *ORB) serveConn(nc net.Conn) {
	defer o.wg.Done()
	defer o.Stats.ActiveConns.Add(-1)
	defer nc.Close()

	// Close the socket when the ORB shuts down so the read loop unblocks.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-o.closed:
			nc.Close()
		case <-done:
		}
	}()

	rd := giop.NewReader(bufio.NewReader(nc))
	// A failed reply flush breaks the stream for every pipelined request, so
	// tear the socket down; in-flight dispatches then fail their own writes
	// and the client sees COMM_FAILURE.
	w := giop.NewSyncWriter(bufio.NewWriter(nc), func(error) { nc.Close() })
	defer w.Close()
	// Bounds concurrent dispatches for this connection; acquiring in the read
	// loop applies backpressure to a flooding client. Workers never need the
	// read loop to make progress (replies flush through w independently), so
	// blocking here cannot deadlock.
	sem := make(chan struct{}, maxPipelinePerConn)
	// Dispatch workers live as long as the connection, so a request runs on a
	// goroutine whose stack has already grown to servant depth instead of a
	// fresh one per call, with the scratch an earlier request left. A worker
	// gives its sem slot back once its reply is encoded, before it is
	// written, and is then on its way back to receive. So while the workers
	// outnumber the slots taken (this request's included), one of them is
	// idle or about to be, and the read loop waits for it instead of starting
	// another: a caller that waits for each reply before its next request is
	// served by one worker, and there are never more than maxPipelinePerConn.
	work := make(chan *giop.Message)
	defer close(work)
	workers := 0
	worker := func(m *giop.Message) {
		defer o.wg.Done()
		var ds dispatcher
		for ; m != nil; m = <-work {
			reply := o.handleRequest(&ds, m)
			m.Release()
			<-sem
			if reply && !o.send(w, &ds.out) {
				// The stream is broken for every other request too, so tear
				// the socket down to unblock the read loop.
				nc.Close()
			}
			if cap(ds.enc.Bytes()) > giop.PageBudget {
				ds.enc, ds.out = cdr.Encoder{}, giop.Message{} // a huge reply's buffer is not kept
			}
		}
	}
	dispatchReq := func(m *giop.Message) {
		sem <- struct{}{}
		select {
		case work <- m:
		default:
			if workers >= len(sem) {
				work <- m
				return
			}
			workers++
			o.wg.Add(1)
			go worker(m)
		}
	}
	// protocolErr reports a malformed frame to the peer; it returns false
	// when even that failed and the connection must go down.
	protocolErr := func() bool {
		o.Stats.ProtocolErrors.Add(1)
		return w.Write(&giop.Message{Type: giop.MsgMessageError, Order: cdr.BigEndian}) == nil
	}
	for {
		msg, err := rd.Read()
		if err != nil {
			if err != io.EOF && !errors.Is(err, net.ErrClosed) {
				o.Stats.ProtocolErrors.Add(1)
			}
			return
		}
		o.Stats.BytesReceived.Add(int64(len(msg.Body) + giop.HeaderSize))
		switch msg.Type {
		case giop.MsgRequest:
			dispatchReq(msg)
		case giop.MsgLocateRequest:
			ok := o.handleLocate(w, msg)
			msg.Release()
			if !ok {
				return
			}
		case giop.MsgCancelRequest:
			// GIOP lets a server ignore a cancel: the request runs to its
			// end, and a client that still waits takes the reply.
			msg.Release()
		case giop.MsgCloseConnection:
			msg.Release()
			return
		default:
			msg.Release()
			if !protocolErr() {
				return
			}
		}
	}
}

// dispatcher is a dispatch worker's scratch, kept for its life: the request
// header decoded in place (its key and contexts alias the body), the
// arguments (no servant keeps them), the reply encoder and the reply.
type dispatcher struct {
	hdr  giop.RequestHeader
	args []idl.Any
	enc  cdr.Encoder
	out  giop.Message
}

// handleRequest dispatches one GIOP Request and encodes its answer into
// ds.out, reporting whether there is one to write (a oneway has none). It
// runs on one of the connection's dispatch workers, whose scratch ds is.
func (o *ORB) handleRequest(ds *dispatcher, msg *giop.Message) bool {
	d := msg.BodyDecoder()
	hdr := &ds.hdr
	op, err := hdr.Unmarshal(&d)
	if err != nil {
		o.Stats.ProtocolErrors.Add(1)
		ds.out = giop.Message{Type: giop.MsgMessageError, Order: msg.Order}
		return true
	}
	s, _ := o.lookupServant(hdr.ObjectKey)
	hdr.Operation = opName(s, op)
	if ds.args, err = idl.UnmarshalAnys(&d, ds.args); err != nil {
		o.encodeReply(ds, msg.Order, hdr.RequestID, idl.Null(),
			&SystemException{Name: ExcMarshal, Detail: err.Error()})
		return true
	}

	result, invErr := o.dispatchIncoming(context.Background(), s,
		hdr.ObjectKey, hdr.Operation, ds.args, hdr.ServiceContext, "iiop")
	defer releaseResult(s, hdr.Operation, result, invErr) // once the reply holds a copy
	if !hdr.ResponseExpected {
		o.Stats.OnewayRequests.Add(1)
		return false
	}
	o.encodeReply(ds, msg.Order, hdr.RequestID, result, invErr)
	return true
}

// opName names a request's operation: as the servant's interface does, or,
// for one it does not declare, with a copy.
func opName(s Servant, op []byte) string {
	if s != nil {
		if def, ok := s.InterfaceDef().Ops[string(op)]; ok {
			return def.Name
		}
	}
	return string(op)
}

// dispatchIncoming runs the server request interceptors around the dispatch
// to s, the servant found under key (nil if none); it is used both by the
// socket path (service contexts come from the GIOP request header) and the
// colocation fast path (they are handed across in-process), so interceptor
// behaviour — trace propagation included — is identical on both.
func (o *ORB) dispatchIncoming(ctx context.Context, s Servant, key []byte, op string, args []idl.Any, svcCtxs []giop.ServiceContext, transport string) (idl.Any, error) {
	sis := o.serverInterceptors()
	if len(sis) == 0 {
		return o.dispatch(ctx, s, key, op, args)
	}
	ri := &ServerRequestInfo{
		Ctx:             ctx,
		Operation:       op,
		ObjectKey:       key,
		Transport:       transport,
		ServiceContexts: svcCtxs,
	}
	for _, si := range sis {
		si.ReceiveRequest(ri)
	}
	result, err := o.dispatch(ri.Ctx, s, key, op, args)
	for i := len(sis) - 1; i >= 0; i-- {
		sis[i].SendReply(ri, err)
	}
	return result, err
}

// dispatch runs the servant invocation. Context-aware servants receive ctx
// (carrying the interceptors' trace parentage); plain servants are invoked
// as before.
func (o *ORB) dispatch(ctx context.Context, s Servant, key []byte, op string, args []idl.Any) (idl.Any, error) {
	if s == nil {
		return idl.Null(), &SystemException{Name: ExcObjectNotExist, Detail: "object key " + string(key)}
	}
	o.Stats.RequestsServed.Add(1)
	if cs, ok := s.(ContextServant); ok {
		return cs.InvokeCtx(ctx, op, args)
	}
	return s.Invoke(op, args)
}

// encodeReply encodes the reply for a completed invocation into ds.out, in
// the worker's encoder. A body above giop.MaxMessageSize, which no peer would
// read, is answered with a MARSHAL exception instead: the caller learns why,
// and the connection carries on.
func (o *ORB) encodeReply(ds *dispatcher, order cdr.ByteOrder, reqID uint32, result idl.Any, invErr error) {
	e := &ds.enc
	e.ResetFor(order, giop.HeaderSize)
	rh := giop.ReplyHeader{RequestID: reqID}
	var body func(*cdr.Encoder)
	switch err := invErr.(type) {
	case nil:
		rh.Status = giop.ReplyNoException
		body = func(e *cdr.Encoder) { result.Marshal(e) }
	case *UserException:
		o.Stats.UserExceptions.Add(1)
		rh.Status = giop.ReplyUserException
		body = func(e *cdr.Encoder) {
			e.WriteString(err.Name)
			e.WriteString(err.Message)
		}
	case *SystemException:
		o.Stats.SysExceptions.Add(1)
		rh.Status = giop.ReplySystemException
		body = func(e *cdr.Encoder) {
			e.WriteString(err.Name)
			e.WriteULong(err.Minor)
			e.WriteString(err.Detail)
		}
	default:
		// Unclassified servant error: surfaces as UNKNOWN, like real ORBs.
		o.Stats.SysExceptions.Add(1)
		rh.Status = giop.ReplySystemException
		body = func(e *cdr.Encoder) {
			e.WriteString(ExcUnknown)
			e.WriteULong(0)
			e.WriteString(invErr.Error())
		}
	}
	rh.Marshal(e)
	body(e)
	if n := e.Len(); n > giop.MaxMessageSize {
		o.encodeReply(ds, order, reqID, idl.Null(), &SystemException{Name: ExcMarshal,
			Detail: fmt.Sprintf("reply body of %d bytes exceeds the %d-byte message limit", n, giop.MaxMessageSize)})
		return
	}
	ds.out = giop.Message{Type: giop.MsgReply, Order: order, Body: e.Bytes()}
}

// send writes one framed message, accounting wire stats. It reports whether
// the connection is still usable.
func (o *ORB) send(w *giop.SyncWriter, m *giop.Message) bool {
	o.Stats.BytesSent.Add(int64(len(m.Body) + giop.HeaderSize))
	return w.Write(m) == nil
}

// handleLocate answers a GIOP LocateRequest. Locates never run servant code,
// so they are answered synchronously from the read loop.
func (o *ORB) handleLocate(w *giop.SyncWriter, msg *giop.Message) bool {
	o.Stats.LocateRequests.Add(1)
	d := msg.BodyDecoder()
	var hdr giop.LocateRequestHeader
	if err := hdr.Unmarshal(&d); err != nil {
		o.Stats.ProtocolErrors.Add(1)
		return w.Write(&giop.Message{Type: giop.MsgMessageError, Order: msg.Order}) == nil
	}
	status := giop.LocateUnknownObject
	if _, ok := o.lookupServant(hdr.ObjectKey); ok {
		status = giop.LocateObjectHere
	}
	e := cdr.NewEncoderAt(msg.Order, giop.HeaderSize)
	(&giop.LocateReplyHeader{RequestID: hdr.RequestID, Status: status}).Marshal(e)
	return o.send(w, &giop.Message{Type: giop.MsgLocateReply, Order: msg.Order, Body: e.Bytes()})
}
