package orb

import (
	"bufio"
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cdr"
	"repro/internal/giop"
	"repro/internal/idl"
)

// ObjectRef is a client-side reference to a remote (or colocated) object. It
// is the reproduction's equivalent of a CORBA stub: calls are marshalled to
// GIOP requests unless the target adapter lives in the same process, in
// which case dispatch is direct (the paper's in-process C++/JNI bridge
// analogue). References are safe for concurrent use: concurrent Invokes to
// the same endpoint are pipelined over a shared multiplexed connection.
type ObjectRef struct {
	orb *ORB
	ior *IOR
}

// IOR returns the reference's IOR.
func (r *ObjectRef) IOR() *IOR { return r.ior }

// Invoke performs a synchronous request and returns the result value.
func (r *ObjectRef) Invoke(op string, args ...idl.Any) (idl.Any, error) {
	return r.invoke(context.Background(), op, args, true, false)
}

// InvokeCtx is Invoke with a caller context. The context reaches the client
// request interceptors (which propagate its trace parentage across the hop
// in a service context entry) and, on the colocated fast path, the servant.
// A context deadline bounds each transport exchange: the effective per-call
// timeout is the smaller of the remaining deadline and Options.CallTimeout.
func (r *ObjectRef) InvokeCtx(ctx context.Context, op string, args ...idl.Any) (idl.Any, error) {
	return r.invoke(ctx, op, args, true, false)
}

// InvokeIdempotent is InvokeCtx for operations that are safe to issue more
// than once (reads, probes). When Options.Retry allows, transport-class
// failures are retried transparently with exponential backoff and jitter;
// the per-invocation context still bounds the whole sequence.
func (r *ObjectRef) InvokeIdempotent(ctx context.Context, op string, args ...idl.Any) (idl.Any, error) {
	return r.invoke(ctx, op, args, true, true)
}

// InvokeOneway performs a fire-and-forget request (no reply is read).
func (r *ObjectRef) InvokeOneway(op string, args ...idl.Any) error {
	_, err := r.invoke(context.Background(), op, args, false, false)
	return err
}

// InvokeOnewayCtx is InvokeOneway with a caller context (see InvokeCtx).
func (r *ObjectRef) InvokeOnewayCtx(ctx context.Context, op string, args ...idl.Any) error {
	_, err := r.invoke(ctx, op, args, false, false)
	return err
}

// invoke is the shared invocation path. Client interceptors run around the
// whole logical invocation — SendRequest once (not per transparent retry),
// ReceiveReply once with the final outcome — and their service context
// entries travel in the GIOP request header (or are handed to the target
// adapter directly on the colocated fast path, so a colocated hop is
// observationally identical to a socket hop).
func (r *ObjectRef) invoke(ctx context.Context, op string, args []idl.Any, expectReply, idempotent bool) (idl.Any, error) {
	o := r.orb
	target, colocated := o.colocatedTarget(r.ior.Addr())
	cis := o.clientInterceptors()
	var ri *ClientRequestInfo
	var svcCtxs []giop.ServiceContext
	if len(cis) > 0 {
		ri = &ClientRequestInfo{
			Ctx:       ctx,
			Operation: op,
			ObjectKey: r.ior.ObjectKey,
			Addr:      r.ior.Addr(),
			Colocated: colocated,
			Oneway:    !expectReply,
		}
		for _, ci := range cis {
			ci.SendRequest(ri)
		}
		ctx = ri.Ctx
		svcCtxs = ri.ServiceContexts
	}

	var result idl.Any
	var err error
	calls := &o.Stats.IIOPCalls
	if colocated {
		calls = &o.Stats.ColocatedCalls
	}
	if ctx.Value(housekeepingKey{}) != nil {
		calls = &o.Stats.HousekeepingCalls
	}
	calls.Add(1)
	if colocated {
		if cs := callStatsFrom(ctx); cs != nil {
			cs.Attempts.Add(1)
		}
		result, err = target.dispatchIncoming(ctx, r.ior.Key(), op, args, svcCtxs, "colocated")
	} else {
		result, err = o.callRemote(ctx, r.ior, op, args, expectReply, svcCtxs, idempotent)
	}
	for i := len(cis) - 1; i >= 0; i-- {
		cis[i].ReceiveReply(ri, err)
	}
	return result, err
}

// CallStats accumulates per-call transport telemetry for every invocation
// issued under one context (see WithCallStats). The query layer uses it to
// report how many attempts a coalition member's sub-query cost.
type CallStats struct {
	// Attempts counts transport attempts (dials/exchanges, colocated
	// dispatches included); retries and breaker rejections each add one.
	Attempts atomic.Int32
}

type callStatsKey struct{}

// WithCallStats derives a context whose ORB invocations record into the
// returned CallStats.
func WithCallStats(ctx context.Context) (context.Context, *CallStats) {
	cs := &CallStats{}
	return context.WithValue(ctx, callStatsKey{}, cs), cs
}

func callStatsFrom(ctx context.Context) *CallStats {
	cs, _ := ctx.Value(callStatsKey{}).(*CallStats)
	return cs
}

type housekeepingKey struct{}

// WithHousekeeping derives a context whose ORB invocations are counted as
// Stats.HousekeepingCalls rather than as colocated or IIOP calls. It is for
// the calls a node makes on its own clock — gossip rounds — and changes
// nothing about how they are sent.
func WithHousekeeping(ctx context.Context) context.Context {
	return context.WithValue(ctx, housekeepingKey{}, true)
}

// retryable reports whether an error is transport-class (the endpoint may
// simply be flaky or restarting) as opposed to an application or protocol
// outcome that would recur identically.
func retryable(err error) bool {
	se, ok := err.(*SystemException)
	return ok && se.Name == ExcCommFailure
}

// isTransportFailure classifies an outcome for the circuit breaker: only
// COMM_FAILURE counts against an endpoint's health.
func isTransportFailure(err error) bool {
	if err == nil {
		return false
	}
	se, ok := err.(*SystemException)
	return ok && se.Name == ExcCommFailure
}

// callRemote drives one logical socket invocation through the breaker and
// retry machinery. Non-idempotent calls make exactly one transport attempt;
// idempotent ones retry transport-class failures up to Options.Retry's
// budget with exponential backoff and full jitter. The breaker is consulted
// before every attempt and fed the outcome of every attempt that reached
// the wire.
func (o *ORB) callRemote(ctx context.Context, ior *IOR, op string, args []idl.Any, expectReply bool, svcCtxs []giop.ServiceContext, idempotent bool) (idl.Any, error) {
	addr := ior.Addr()
	cs := callStatsFrom(ctx)
	policy := o.opts.Retry.withDefaults()
	maxAttempts := 1
	if idempotent && expectReply && o.opts.Retry.MaxAttempts > 1 {
		maxAttempts = o.opts.Retry.MaxAttempts
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			o.Stats.Retries.Add(1)
			if err := sleepBackoff(ctx, policy, attempt); err != nil {
				break // context ended while backing off
			}
		}
		if err := ctx.Err(); err != nil {
			lastErr = &SystemException{Name: ExcCommFailure, Detail: "context: " + err.Error()}
			break
		}
		if cs != nil {
			cs.Attempts.Add(1)
		}
		if o.breakers != nil {
			if err := o.breakers.allow(addr); err != nil {
				// Failed fast without touching the endpoint; a later attempt
				// may land on the half-open probe, so keep retrying.
				lastErr = err
				continue
			}
		}
		result, err := o.pool.roundTrip(ctx, ior, op, args, expectReply, svcCtxs)
		if o.breakers != nil {
			o.breakers.record(addr, isTransportFailure(err))
		}
		if err == nil {
			return result, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	return idl.Null(), lastErr
}

// sleepBackoff waits out the exponential-backoff window before retry attempt
// n (full jitter: uniform in (0, window]), or returns early when ctx ends.
func sleepBackoff(ctx context.Context, policy RetryPolicy, attempt int) error {
	window := policy.BaseBackoff << (attempt - 1)
	if window > policy.MaxBackoff || window <= 0 {
		window = policy.MaxBackoff
	}
	d := time.Duration(rand.Int63n(int64(window))) + 1
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Locate asks the target adapter whether the object exists, using a GIOP
// LocateRequest.
func (r *ObjectRef) Locate() (bool, error) {
	if target, ok := r.orb.colocatedTarget(r.ior.Addr()); ok {
		_, found := target.lookupServant(r.ior.Key())
		return found, nil
	}
	return r.orb.pool.locate(context.Background(), r.ior)
}

// maxPipelinePerConn is the in-flight depth at which the pool prefers
// opening another connection (up to Options.MaxIdlePerHost) over deepening
// the pipeline on an existing one.
const maxPipelinePerConn = 64

// demuxedReply is what the demux read loop hands to a waiting caller: a
// parsed Reply (rh + d) or LocateReply (lr), or the connection-level error
// that killed the call.
type demuxedReply struct {
	rh  *giop.ReplyHeader
	lr  *giop.LocateReplyHeader
	d   *cdr.Decoder  // positioned just past the reply header
	msg *giop.Message // pooled message backing d; released after decode
	err error
}

// release returns the pooled message (which backs r.d) for reuse. Call it
// only after everything needed from the reply body has been decoded.
func (r *demuxedReply) release() {
	if r != nil && r.msg != nil {
		r.msg.Release()
		r.msg = nil
	}
}

// muxConn is one multiplexed outbound IIOP connection. Many concurrent
// requests share it: each caller registers a reply channel under its GIOP
// request ID, writes its frame through the serialized writer, and a single
// demux goroutine routes every incoming Reply/LocateReply to the waiting
// caller by ID. A connection-level failure (read/write error, timeout,
// protocol violation, server close) poisons the connection: every request
// still in flight fails with a typed COMM_FAILURE and the connection leaves
// the pool.
type muxConn struct {
	pool *connPool
	addr string
	nc   net.Conn
	w    *giop.SyncWriter

	nextID atomic.Uint32

	mu      sync.Mutex
	pending map[uint32]chan *demuxedReply
	dead    error // set once, before the pending map is flushed
}

// errConnPoisoned marks a register attempt on a connection that died before
// the request was written; roundTrip retries once on a fresh connection.
type errConnPoisoned struct{ cause error }

func (e *errConnPoisoned) Error() string { return e.cause.Error() }

// register installs a reply channel for a request ID. It fails if the
// connection is already dead (nothing was sent, so the call is retryable).
func (c *muxConn) register(id uint32) (chan *demuxedReply, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return nil, &errConnPoisoned{cause: c.dead}
	}
	ch := make(chan *demuxedReply, 1)
	c.pending[id] = ch
	return ch, nil
}

// deliver routes one demuxed reply to its waiting caller; replies without a
// waiter (e.g. for a request the server invented) are dropped, which is safe
// because every abandoned wait poisons the whole connection first.
func (c *muxConn) deliver(id uint32, r *demuxedReply) {
	c.mu.Lock()
	ch := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	if ch != nil {
		ch <- r
	} else {
		r.release() // no waiter: the reply is dropped, recycle its buffer
	}
}

// fail poisons the connection: it leaves the pool, the socket closes, and
// every in-flight request receives err. Idempotent.
func (c *muxConn) fail(err error) {
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		return
	}
	c.dead = err
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.pool.remove(c)
	c.w.Close()
	c.nc.Close()
	for _, ch := range pend {
		ch <- &demuxedReply{err: err}
	}
}

// load reports the number of requests in flight, used for least-loaded
// connection selection.
func (c *muxConn) load() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.pending)
}

// send writes one framed message, accounting wire stats.
func (c *muxConn) send(msg *giop.Message) error {
	c.pool.orb.Stats.BytesSent.Add(int64(len(msg.Body) + giop.HeaderSize))
	if err := c.w.Write(msg); err != nil {
		return &SystemException{Name: ExcCommFailure, Detail: err.Error()}
	}
	return nil
}

// sendRequest writes one GIOP Request, fragmenting bodies above
// Options.FragmentThreshold; hdrLen is the encoded request-header length,
// which must stay whole in the initial frame.
func (c *muxConn) sendRequest(reqID uint32, msg *giop.Message, hdrLen int) error {
	stats := &c.pool.orb.Stats
	frames, err := giop.WriteFragmented(c.w, msg, reqID, c.pool.orb.opts.FragmentThreshold, hdrLen)
	if frames > 1 {
		stats.FragmentsSent.Add(int64(frames - 1))
	}
	stats.BytesSent.Add(int64(len(msg.Body) + frames*giop.HeaderSize + (frames-1)*4))
	if err != nil {
		return &SystemException{Name: ExcCommFailure, Detail: err.Error()}
	}
	return nil
}

// handleReply routes one complete (possibly reassembled) Reply message to
// its waiting caller. It reports whether the connection is still usable; on
// false it has already been poisoned.
func (c *muxConn) handleReply(msg *giop.Message) bool {
	d := msg.BodyDecoder()
	rh, err := giop.UnmarshalReplyHeader(d)
	if err != nil {
		// An unroutable reply leaves callers unmatchable: poison.
		msg.Release()
		c.fail(&SystemException{Name: ExcMarshal, Detail: "reply header: " + err.Error()})
		return false
	}
	// The message travels with the reply: the waiting caller still
	// has to decode the result out of its body, and releases it then.
	c.deliver(rh.RequestID, &demuxedReply{rh: rh, d: d, msg: msg})
	return true
}

// readLoop is the demux goroutine: it reads framed messages until the
// connection dies and routes replies to waiting callers by request ID.
// Fragmented replies reassemble here before delivery; the pending cap
// mirrors the pipelining depth, so a confused peer cannot hold more partial
// replies open than the caller could have requests in flight.
func (c *muxConn) readLoop(br *bufio.Reader) {
	stats := &c.pool.orb.Stats
	ra := giop.NewReassembler(maxPipelinePerConn)
	for {
		msg, err := giop.Read(br)
		if err != nil {
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "read reply: " + err.Error()})
			return
		}
		stats.BytesReceived.Add(int64(len(msg.Body) + giop.HeaderSize))
		switch msg.Type {
		case giop.MsgReply:
			if msg.More {
				// Initial frame of a fragmented reply: key the reassembly by
				// the request ID in its (whole, by contract) reply header.
				rh, err := giop.UnmarshalReplyHeader(msg.BodyDecoder())
				if err == nil {
					err = ra.Begin(rh.RequestID, msg)
				}
				msg.Release()
				if err != nil {
					c.fail(&SystemException{Name: ExcMarshal, Detail: "fragmented reply: " + err.Error()})
					return
				}
				continue
			}
			if !c.handleReply(msg) {
				return
			}
		case giop.MsgFragment:
			out, err := ra.Fragment(msg)
			msg.Release()
			if err != nil {
				c.fail(&SystemException{Name: ExcMarshal, Detail: "fragment: " + err.Error()})
				return
			}
			stats.FragmentsReassembled.Add(1)
			if out == nil {
				continue // more fragments expected
			}
			if out.Type != giop.MsgReply {
				c.fail(&SystemException{Name: ExcCommFailure, Detail: "fragmented " + out.Type.String()})
				return
			}
			if !c.handleReply(out) {
				return
			}
		case giop.MsgLocateReply:
			lr, err := giop.UnmarshalLocateReply(msg.BodyDecoder())
			msg.Release() // the locate header is fully copied out
			if err != nil {
				c.fail(&SystemException{Name: ExcMarshal, Detail: "locate reply: " + err.Error()})
				return
			}
			c.deliver(lr.RequestID, &demuxedReply{lr: lr})
		case giop.MsgCloseConnection:
			msg.Release()
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "server closed connection"})
			return
		case giop.MsgMessageError:
			msg.Release()
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "peer reported message error"})
			return
		default:
			t := msg.Type
			msg.Release()
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "unexpected " + t.String()})
			return
		}
	}
}

// call sends one request frame and, when expectReply, waits for its demuxed
// reply, bounding the wait by timeout (0 = unbounded). A timeout or write
// failure poisons the connection, preserving GIOP 1.0 semantics where a
// broken exchange leaves the stream unusable.
func (c *muxConn) call(reqID uint32, msg *giop.Message, hdrLen int, expectReply bool, timeout time.Duration) (*demuxedReply, error) {
	send := func() error {
		if msg.Type == giop.MsgRequest {
			return c.sendRequest(reqID, msg, hdrLen)
		}
		return c.send(msg)
	}
	if !expectReply {
		if err := send(); err != nil {
			c.fail(err)
			return nil, err
		}
		return nil, nil
	}
	ch, err := c.register(reqID)
	if err != nil {
		return nil, err
	}
	stats := &c.pool.orb.Stats
	stats.noteInFlight()
	defer stats.InFlight.Add(-1)
	if err := send(); err != nil {
		c.fail(err)
		<-ch // fail delivered the error; drain our channel
		return nil, err
	}
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case r := <-ch:
			return r, r.err
		case <-t.C:
			c.fail(&SystemException{Name: ExcCommFailure,
				Detail: fmt.Sprintf("call timed out after %v", timeout)})
			return drainTimedOut(ch)
		}
	}
	r := <-ch
	return r, r.err
}

// drainTimedOut resolves a timed-out call from its reply channel. Usually
// fail has flushed the channel with the timeout error, but the real reply
// may have raced the timer into deliver first — deliver removes the pending
// entry before fail can flush it, so the drained reply has err == nil. That
// reply is returned as a (late) success; returning (nil, nil) would panic
// the decode path.
func drainTimedOut(ch chan *demuxedReply) (*demuxedReply, error) {
	r := <-ch
	if r.err == nil {
		return r, nil
	}
	return nil, r.err
}

// connPool manages outbound multiplexed connections keyed by endpoint. One
// connection serves many concurrent request/reply exchanges (replies are
// matched by GIOP request ID); additional connections — at most
// Options.MaxIdlePerHost — are only opened when every existing connection
// already has maxPipelinePerConn requests in flight.
type connPool struct {
	orb   *ORB
	mu    sync.Mutex
	conns map[string][]*muxConn
}

func newConnPool(o *ORB) *connPool {
	return &connPool{orb: o, conns: make(map[string][]*muxConn)}
}

// get returns the least-loaded live connection to addr, dialing a new one
// when none exists or all are pipeline-saturated below the per-host cap.
func (p *connPool) get(addr string) (*muxConn, error) {
	p.mu.Lock()
	if c := p.pick(addr); c != nil {
		p.mu.Unlock()
		return c, nil
	}
	p.mu.Unlock()

	inj := p.orb.injector()
	if inj != nil {
		if err := inj.dialFault(addr); err != nil {
			return nil, err
		}
	}
	nc, err := p.orb.transport.DialTimeout(addr, p.orb.opts.DialTimeout)
	if err != nil {
		return nil, &SystemException{Name: ExcCommFailure, Detail: fmt.Sprintf("dial %s: %v", addr, err)}
	}
	// Every connection is wrapped so a FaultPlan installed later (SetFaultPlan
	// at runtime) applies to connections already in the pool; with no active
	// plan the wrapper is one atomic load per read/write.
	nc = &faultConn{Conn: nc, orb: p.orb, addr: addr}
	c := &muxConn{
		pool:    p,
		addr:    addr,
		nc:      nc,
		pending: make(map[uint32]chan *demuxedReply),
	}
	// An asynchronous flush failure loses frames whose callers already
	// returned from Write, so it must poison the whole connection.
	c.w = giop.NewSyncWriter(bufio.NewWriter(nc), func(err error) {
		c.fail(&SystemException{Name: ExcCommFailure, Detail: "write: " + err.Error()})
	})
	p.mu.Lock()
	// Another caller may have dialed concurrently (a cold pool makes every
	// simultaneous first call dial). Prefer an existing unsaturated
	// connection and discard ours: concentrating callers on few connections
	// is what makes the pipelining pay, and it keeps the pool within the
	// per-host cap.
	if existing := p.pick(addr); existing != nil {
		p.mu.Unlock()
		c.w.Close() // stop the flusher goroutine, not just the socket
		nc.Close()
		return existing, nil
	}
	p.conns[addr] = append(p.conns[addr], c)
	p.mu.Unlock()
	go c.readLoop(bufio.NewReader(nc))
	return c, nil
}

// pick returns the least-loaded connection to addr unless a new one should
// be dialed (all saturated and below cap). Caller holds p.mu.
func (p *connPool) pick(addr string) *muxConn {
	conns := p.conns[addr]
	if len(conns) == 0 {
		return nil
	}
	best := conns[0]
	bestLoad := best.load()
	for _, c := range conns[1:] {
		if l := c.load(); l < bestLoad {
			best, bestLoad = c, l
		}
	}
	if bestLoad >= maxPipelinePerConn && len(conns) < p.orb.opts.MaxIdlePerHost {
		return nil // saturated: ask the caller to dial another
	}
	return best
}

// remove drops a poisoned connection from the pool.
func (p *connPool) remove(c *muxConn) {
	p.mu.Lock()
	defer p.mu.Unlock()
	conns := p.conns[c.addr]
	for i, x := range conns {
		if x == c {
			p.conns[c.addr] = append(conns[:i], conns[i+1:]...)
			return
		}
	}
}

// closeAll poisons every connection (client-side shutdown); in-flight
// requests fail with COMM_FAILURE.
func (p *connPool) closeAll() {
	p.mu.Lock()
	var all []*muxConn
	for addr, conns := range p.conns {
		all = append(all, conns...)
		delete(p.conns, addr)
	}
	p.mu.Unlock()
	for _, c := range all {
		c.fail(&SystemException{Name: ExcCommFailure, Detail: "orb client shutdown"})
	}
}

// callDeadline computes the per-exchange timeout: the smaller of the
// configured CallTimeout and the context deadline's remaining budget. An
// already-expired deadline yields a tiny positive timeout so the exchange
// fails fast through the normal timeout path instead of hanging.
func (p *connPool) callDeadline(ctx context.Context) time.Duration {
	timeout := p.orb.opts.CallTimeout
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl)
		if remaining <= 0 {
			remaining = time.Nanosecond
		}
		if timeout <= 0 || remaining < timeout {
			timeout = remaining
		}
	}
	return timeout
}

// roundTrip sends one GIOP Request and (when expectReply) awaits the Reply.
// If the chosen connection was poisoned before the request could be written,
// it retries once on a fresh connection. svcCtxs are the service context
// entries (interceptor-added) carried in the request header. The context
// deadline, when tighter than Options.CallTimeout, bounds the exchange.
func (p *connPool) roundTrip(ctx context.Context, ior *IOR, op string, args []idl.Any, expectReply bool, svcCtxs []giop.ServiceContext) (idl.Any, error) {
	addr := ior.Addr()
	order := p.orb.wireOrder()
	for attempt := 0; ; attempt++ {
		c, err := p.get(addr)
		if err != nil {
			return idl.Null(), err
		}
		reqID := c.nextID.Add(1)
		e := giop.AcquireBodyEncoder(order)
		(&giop.RequestHeader{
			ServiceContext:   svcCtxs,
			RequestID:        reqID,
			ResponseExpected: expectReply,
			ObjectKey:        ior.ObjectKey,
			Operation:        op,
			Principal:        []byte(p.orb.opts.Product),
		}).Marshal(e)
		hdrLen := e.Len()
		idl.MarshalAnys(e, args)
		msg := &giop.Message{Type: giop.MsgRequest, Order: order, Body: e.Bytes()}
		r, err := c.call(reqID, msg, hdrLen, expectReply, p.callDeadline(ctx))
		// call has either copied the frame into the connection's buffered
		// writer or failed; the encoder's scratch buffer is free either way.
		giop.ReleaseBodyEncoder(e)
		if err != nil {
			if pe, poisoned := err.(*errConnPoisoned); poisoned {
				if attempt == 0 {
					continue // nothing was sent; retry on a fresh connection
				}
				err = pe.cause // keep the typed *SystemException contract
			}
			return idl.Null(), err
		}
		if !expectReply {
			return idl.Null(), nil
		}
		result, err := decodeReply(r)
		r.release()
		return result, err
	}
}

// decodeReply turns a demuxed Reply into a result value or a typed error.
func decodeReply(r *demuxedReply) (idl.Any, error) {
	if r.rh == nil {
		return idl.Null(), &SystemException{Name: ExcCommFailure, Detail: "request answered by a non-request reply"}
	}
	d := r.d
	switch r.rh.Status {
	case giop.ReplyNoException:
		result, err := idl.UnmarshalAny(d)
		if err != nil {
			return idl.Null(), &SystemException{Name: ExcMarshal, Detail: err.Error()}
		}
		return result, nil
	case giop.ReplyUserException:
		name, err1 := d.ReadString()
		message, err2 := d.ReadString()
		if err1 != nil || err2 != nil {
			return idl.Null(), &SystemException{Name: ExcMarshal, Detail: "bad user exception body"}
		}
		return idl.Null(), &UserException{Name: name, Message: message}
	case giop.ReplySystemException:
		name, err1 := d.ReadString()
		minor, err2 := d.ReadULong()
		detail, err3 := d.ReadString()
		if err1 != nil || err2 != nil || err3 != nil {
			return idl.Null(), &SystemException{Name: ExcMarshal, Detail: "bad system exception body"}
		}
		return idl.Null(), &SystemException{Name: name, Minor: minor, Detail: detail}
	default:
		return idl.Null(), &SystemException{Name: ExcCommFailure,
			Detail: "unsupported reply status " + r.rh.Status.String()}
	}
}

// locate performs a GIOP LocateRequest round trip over the same multiplexed
// connection invocations use; wire stats are accounted like any other call.
func (p *connPool) locate(ctx context.Context, ior *IOR) (bool, error) {
	addr := ior.Addr()
	order := p.orb.wireOrder()
	for attempt := 0; ; attempt++ {
		c, err := p.get(addr)
		if err != nil {
			return false, err
		}
		reqID := c.nextID.Add(1)
		e := giop.AcquireBodyEncoder(order)
		(&giop.LocateRequestHeader{RequestID: reqID, ObjectKey: ior.ObjectKey}).Marshal(e)
		msg := &giop.Message{Type: giop.MsgLocateRequest, Order: order, Body: e.Bytes()}
		r, err := c.call(reqID, msg, 0, true, p.callDeadline(ctx))
		giop.ReleaseBodyEncoder(e)
		if err != nil {
			if pe, poisoned := err.(*errConnPoisoned); poisoned {
				if attempt == 0 {
					continue
				}
				err = pe.cause // keep the typed *SystemException contract
			}
			return false, err
		}
		if r.lr == nil {
			return false, &SystemException{Name: ExcCommFailure, Detail: "request answered by a non-locate reply"}
		}
		return r.lr.Status == giop.LocateObjectHere, nil
	}
}
