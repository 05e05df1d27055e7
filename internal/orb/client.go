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
	"repro/internal/freelist"
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
	orb  *ORB
	ior  *IOR
	addr string // ior.Addr(), rendered once at Resolve
}

// IOR returns the reference's IOR.
func (r *ObjectRef) IOR() *IOR { return r.ior }

// Addr returns the target endpoint ("host:port").
func (r *ObjectRef) Addr() string { return r.addr }

// Invoke performs a synchronous request and returns the result value.
func (r *ObjectRef) Invoke(op string, args ...idl.Any) (idl.Any, error) {
	return r.invoke(context.Background(), op, args, false, nil)
}

// InvokeCtx is Invoke with a caller context. The context reaches the client
// request interceptors (which propagate its trace parentage across the hop
// in a service context entry) and, on the colocated fast path, the servant.
// A context deadline bounds each transport exchange: the effective per-call
// timeout is the smaller of the remaining deadline and Options.CallTimeout.
func (r *ObjectRef) InvokeCtx(ctx context.Context, op string, args ...idl.Any) (idl.Any, error) {
	return r.invoke(ctx, op, args, false, nil)
}

// InvokeIdempotent is InvokeCtx for operations that are safe to issue more
// than once (reads, probes). When Options.RetryAttempts allows,
// transport-class failures are retried transparently with exponential
// backoff and jitter; the per-invocation context still bounds the whole
// sequence.
func (r *ObjectRef) InvokeIdempotent(ctx context.Context, op string, args ...idl.Any) (idl.Any, error) {
	return r.invoke(ctx, op, args, true, nil)
}

// InvokeScoped is InvokeCtx (InvokeIdempotent if idempotent) whose result is
// lent to use: over IIOP its octet sequences alias the receive buffer, and a
// colocated servant's own result goes back to it (ResultReleaser), once use
// returns. Nothing use is given may outlive it. use runs once, after the
// attempt that succeeded; its error is returned as it is, never retried.
func (r *ObjectRef) InvokeScoped(ctx context.Context, op string, idempotent bool, use func(idl.Any) error, args ...idl.Any) error {
	_, err := r.invoke(ctx, op, args, idempotent, use)
	return err
}

// invoke is the shared invocation path. Client interceptors run around the
// whole logical invocation — SendRequest once (not per transparent retry),
// ReceiveReply once with the final outcome — and their service context
// entries travel in the GIOP request header (or are handed to the target
// adapter directly on the colocated fast path, so a colocated hop is
// observationally identical to a socket hop). A non-nil use scopes the call
// (InvokeScoped); it runs after the interceptors, which time the call alone.
func (r *ObjectRef) invoke(ctx context.Context, op string, args []idl.Any, idempotent bool, use func(idl.Any) error) (idl.Any, error) {
	o := r.orb
	target, colocated := o.colocatedTarget(r.addr)
	cis := o.clientInterceptors()
	var ri *ClientRequestInfo
	var svcCtxs []giop.ServiceContext
	if len(cis) > 0 {
		ri = &ClientRequestInfo{
			Ctx:       ctx,
			Operation: op,
			ObjectKey: r.ior.ObjectKey,
			Addr:      r.addr,
			Colocated: colocated,
		}
		for _, ci := range cis {
			ci.SendRequest(ri)
		}
		ctx = ri.Ctx
		svcCtxs = ri.ServiceContexts
	}

	var result idl.Any
	var err error
	var held *call     // the call whose reply a scoped result aliases
	var lender Servant // the colocated servant a scoped result came from
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
		lender, _ = target.lookupServant(r.ior.ObjectKey)
		result, err = target.dispatchIncoming(ctx, lender, r.ior.ObjectKey, op, args, svcCtxs, "colocated")
	} else {
		result, held, err = o.callRemote(ctx, r, op, args, svcCtxs, idempotent, use != nil)
	}
	for i := len(cis) - 1; i >= 0; i-- {
		cis[i].ReceiveReply(ri, err)
	}
	if use == nil {
		return result, err // an unscoped colocated caller keeps the servant's result
	}
	if err == nil {
		err = use(result)
		releaseResult(lender, op, result, nil)
	}
	held.release()
	return idl.Null(), err
}

// CallStats accumulates per-call transport telemetry for every invocation
// issued under one context (see WithCallStats). The query layer uses it to
// report how many attempts a coalition member's sub-query cost.
type CallStats struct {
	// Attempts counts transport attempts (dials/exchanges, colocated
	// dispatches included); each retry adds one.
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

// The retry backoff window: the first sleep is at most retryBaseBackoff, the
// window doubles each attempt up to retryMaxBackoff, and the actual sleep is
// uniform in (0, window] — full jitter.
const (
	retryBaseBackoff = 10 * time.Millisecond
	retryMaxBackoff  = 500 * time.Millisecond
)

// callRemote drives one logical socket invocation through the retry loop.
// Non-idempotent calls make exactly one transport attempt; idempotent ones
// retry transport-class failures up to Options.RetryAttempts with
// exponential backoff and full jitter. A shared result comes with its reply.
func (o *ORB) callRemote(ctx context.Context, r *ObjectRef, op string, args []idl.Any, svcCtxs []giop.ServiceContext, idempotent, share bool) (idl.Any, *call, error) {
	cs := callStatsFrom(ctx)
	maxAttempts := 1
	if idempotent && o.opts.RetryAttempts > 1 {
		maxAttempts = o.opts.RetryAttempts
	}
	var lastErr error
	for attempt := 0; attempt < maxAttempts; attempt++ {
		if attempt > 0 {
			o.Stats.Retries.Add(1)
			if err := sleepBackoff(ctx, attempt); err != nil {
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
		result, held, err := o.pool.roundTrip(ctx, r.addr, r.ior.ObjectKey, op, args, svcCtxs, share)
		if err == nil {
			return result, held, nil
		}
		lastErr = err
		if !retryable(err) {
			break
		}
	}
	return idl.Null(), nil, lastErr
}

// sleepBackoff waits out the exponential-backoff window before retry attempt
// n (full jitter: uniform in (0, window]), or returns early when ctx ends.
func sleepBackoff(ctx context.Context, attempt int) error {
	window := retryBaseBackoff << (attempt - 1)
	if window > retryMaxBackoff || window <= 0 {
		window = retryMaxBackoff
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
	if target, ok := r.orb.colocatedTarget(r.addr); ok {
		_, found := target.lookupServant(r.ior.ObjectKey)
		return found, nil
	}
	return r.orb.pool.locate(context.Background(), r.addr, r.ior.ObjectKey)
}

// maxPipelinePerConn is the in-flight depth at which the pool prefers
// opening another connection (up to Options.MaxIdlePerHost) over deepening
// the pipeline on an existing one.
const maxPipelinePerConn = 64

// call is the record of one exchange, from the pool's free list: the caller
// encodes its request into enc, the read loop (or fail) fills in the answer
// and signals done, the caller decodes the result out of d and releases the
// record. done carries one signal per registration, taken before release on
// the timeout path too: no reply can land in a reused record.
type call struct {
	done   chan struct{}
	kind   giop.MsgType // MsgReply or MsgLocateReply, once answered
	rh     giop.ReplyHeader
	lr     giop.LocateReplyHeader
	d      cdr.Decoder   // the reply body, just past its header
	msg    *giop.Message // the reply d reads, released with the record
	err    error         // the connection-level failure that ended the call
	enc    cdr.Encoder   // the request body
	fields []idl.Field   // a lent reply's struct fields (idl.DecodeAny)
	pool   *connPool
}

// release gives the reply back to its connection's reader and the record to
// the free list, once everything needed from the reply has been decoded.
func (k *call) release() {
	if k == nil {
		return
	}
	k.msg.Release()
	k.msg, k.kind, k.err, k.d = nil, 0, nil, cdr.Decoder{}
	if cap(k.enc.Bytes()) > giop.PageBudget {
		return // a huge request's buffer is not kept
	}
	k.pool.free.Put(k)
}

// muxConn is one multiplexed outbound IIOP connection. Many concurrent
// requests share it: each caller registers its call record under its GIOP
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
	pending map[uint32]*call
	dead    error // set once, before the pending map is flushed
}

// errConnPoisoned marks a register attempt on a connection that died before
// the request was written; roundTrip retries once on a fresh connection.
type errConnPoisoned struct{ cause error }

func (e *errConnPoisoned) Error() string { return e.cause.Error() }

// register makes k the call waiting on a request ID. It fails if the
// connection is already dead (nothing was sent, so the call is retryable).
func (c *muxConn) register(id uint32, k *call) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.dead != nil {
		return &errConnPoisoned{cause: c.dead}
	}
	c.pending[id] = k
	return nil
}

// claim removes and returns the call waiting on a request ID, for its
// claimer to fill in and signal; nil if none: a reply without a waiter (e.g.
// for a request the server invented) is dropped, which is safe because every
// abandoned wait poisons the whole connection first.
func (c *muxConn) claim(id uint32) *call {
	c.mu.Lock()
	k := c.pending[id]
	delete(c.pending, id)
	c.mu.Unlock()
	return k
}

// fail poisons the connection: it leaves the pool, the socket closes, and
// every in-flight request receives err. Idempotent.
func (c *muxConn) fail(err error) {
	// Leave the pool before turning dead: a dead connection the pool still
	// hands out fails both of roundTrip's attempts with the old error, even
	// for a call made after the network came back.
	c.pool.remove(c)
	c.mu.Lock()
	if c.dead != nil {
		c.mu.Unlock()
		return
	}
	c.dead = err
	pend := c.pending
	c.pending = nil
	c.mu.Unlock()
	c.w.Close()
	c.nc.Close()
	for _, k := range pend {
		k.err = err
		k.done <- struct{}{}
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

// handleReply routes one Reply message to its waiting caller. It reports whether the connection is still usable; on
// false it has already been poisoned.
func (c *muxConn) handleReply(msg *giop.Message) bool {
	d := msg.BodyDecoder()
	var rh giop.ReplyHeader
	if err := rh.Unmarshal(&d); err != nil {
		// An unroutable reply leaves callers unmatchable: poison.
		msg.Release()
		c.fail(&SystemException{Name: ExcMarshal, Detail: "reply header: " + err.Error()})
		return false
	}
	k := c.claim(rh.RequestID)
	if k == nil {
		msg.Release()
		return true
	}
	// The message travels with the call: the waiting caller still has to
	// decode the result out of its body, and releases it then.
	k.kind, k.rh, k.d, k.msg = giop.MsgReply, rh, d, msg
	k.done <- struct{}{}
	return true
}

// readLoop is the demux goroutine: it reads framed messages until the
// connection dies and routes replies to waiting callers by request ID.
func (c *muxConn) readLoop(rd *giop.Reader) {
	stats := &c.pool.orb.Stats
	for {
		msg, err := rd.Read()
		if err != nil {
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "read reply: " + err.Error()})
			return
		}
		stats.BytesReceived.Add(int64(len(msg.Body) + giop.HeaderSize))
		switch msg.Type {
		case giop.MsgReply:
			if !c.handleReply(msg) {
				return
			}
		case giop.MsgLocateReply:
			var lr giop.LocateReplyHeader
			d := msg.BodyDecoder()
			err := lr.Unmarshal(&d)
			msg.Release() // the locate header holds nothing of the body
			if err != nil {
				c.fail(&SystemException{Name: ExcMarshal, Detail: "locate reply: " + err.Error()})
				return
			}
			if k := c.claim(lr.RequestID); k != nil {
				k.kind, k.lr = giop.MsgLocateReply, lr
				k.done <- struct{}{}
			}
		case giop.MsgCloseConnection:
			msg.Release()
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "server closed connection"})
			return
		case giop.MsgMessageError:
			msg.Release()
			c.fail(&SystemException{Name: ExcCommFailure, Detail: "peer reported message error"})
			return
		default:
			// A message no client reads (a request, or a type GIOP 1.0 does
			// not have) is a peer that does not speak the protocol.
			t := msg.Type
			msg.Release()
			c.fail(&SystemException{Name: ExcMarshal, Detail: "unexpected " + t.String()})
			return
		}
	}
}

// call sends k's request and waits for its reply, bounding the wait by
// timeout (0 = unbounded). A timeout or write failure poisons the
// connection, preserving GIOP 1.0 semantics where a broken exchange leaves
// the stream unusable. A request above giop.MaxMessageSize, which no peer
// would read, is refused with MARSHAL before it is registered or written, so
// the connection carries on. However it ends, k has had its one signal when
// call returns (or was never registered), so the caller may release it.
func (c *muxConn) call(k *call, reqID uint32, msg *giop.Message, timeout time.Duration) error {
	if n := len(msg.Body); n > giop.MaxMessageSize {
		return &SystemException{Name: ExcMarshal,
			Detail: fmt.Sprintf("request body of %d bytes exceeds the %d-byte message limit", n, giop.MaxMessageSize)}
	}
	if err := c.register(reqID, k); err != nil {
		return err
	}
	stats := &c.pool.orb.Stats
	stats.noteInFlight()
	defer stats.InFlight.Add(-1)
	if err := c.send(msg); err != nil {
		c.fail(err)
		k.wait() // fail signalled the call with its error
		return err
	}
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		select {
		case <-k.done:
			return k.err
		case <-t.C:
			c.fail(&SystemException{Name: ExcCommFailure,
				Detail: fmt.Sprintf("call timed out after %v", timeout)})
			// Usually fail has signalled the call with the timeout, but the
			// real reply may have raced the timer: claim removes the pending
			// entry before fail can flush it, and the wait then ends in a
			// late success.
			return k.wait()
		}
	}
	return k.wait()
}

// wait takes the call's one signal and returns its connection-level error.
func (k *call) wait() error {
	<-k.done
	return k.err
}

// dialTimeout bounds establishing a new outbound IIOP connection.
const dialTimeout = 10 * time.Second

// connPool manages outbound multiplexed connections keyed by endpoint. One
// connection serves many concurrent request/reply exchanges (replies are
// matched by GIOP request ID); additional connections — at most
// Options.MaxIdlePerHost — are only opened when every existing connection
// already has maxPipelinePerConn requests in flight.
type connPool struct {
	orb   *ORB
	mu    sync.Mutex
	conns map[string][]*muxConn
	free  freelist.List[*call] // released call records, at most maxPipelinePerConn
}

func newConnPool(o *ORB) *connPool {
	p := &connPool{orb: o, conns: make(map[string][]*muxConn)}
	p.free = freelist.New(maxPipelinePerConn, func() *call { return &call{done: make(chan struct{}, 1), pool: p} })
	return p
}

// newCall takes a call record, its request encoder reset for order.
func (p *connPool) newCall(order cdr.ByteOrder) *call {
	k := p.free.Get()
	k.enc.ResetFor(order, giop.HeaderSize)
	return k
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

	nc, err := p.orb.transport.DialTimeout(addr, dialTimeout)
	if err != nil {
		return nil, &SystemException{Name: ExcCommFailure, Detail: fmt.Sprintf("dial %s: %v", addr, err)}
	}
	c := &muxConn{
		pool:    p,
		addr:    addr,
		nc:      nc,
		pending: make(map[uint32]*call),
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
		nc.Close()
		return existing, nil
	}
	p.conns[addr] = append(p.conns[addr], c)
	p.mu.Unlock()
	go c.readLoop(giop.NewReader(bufio.NewReader(nc)))
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

// roundTrip sends one GIOP Request and awaits the Reply.
// If the chosen connection was poisoned before the request could be written,
// it retries once on a fresh connection. svcCtxs are the service context
// entries (interceptor-added) carried in the request header. The context
// deadline, when tighter than Options.CallTimeout, bounds the exchange. A
// shared result aliases the reply, which is returned unreleased.
func (p *connPool) roundTrip(ctx context.Context, addr string, key []byte, op string, args []idl.Any, svcCtxs []giop.ServiceContext, share bool) (idl.Any, *call, error) {
	order := p.orb.wireOrder()
	for attempt := 0; ; attempt++ {
		c, err := p.get(addr)
		if err != nil {
			return idl.Null(), nil, err
		}
		reqID := c.nextID.Add(1)
		k := p.newCall(order)
		(&giop.RequestHeader{
			ServiceContext:   svcCtxs,
			RequestID:        reqID,
			ResponseExpected: true,
			ObjectKey:        key,
			Operation:        op,
			Principal:        []byte(p.orb.opts.Product),
		}).Marshal(&k.enc)
		idl.MarshalAnys(&k.enc, args)
		err = c.call(k, reqID, &giop.Message{Type: giop.MsgRequest, Order: order, Body: k.enc.Bytes()}, p.callDeadline(ctx))
		if err != nil {
			k.release()
			if pe, poisoned := err.(*errConnPoisoned); poisoned {
				if attempt == 0 {
					continue // nothing was sent; retry on a fresh connection
				}
				err = pe.cause // keep the typed *SystemException contract
			}
			return idl.Null(), nil, err
		}
		result, err := decodeReply(k, share)
		if share && err == nil {
			return result, k, nil
		}
		k.release()
		return result, nil, err
	}
}

// decodeReply turns a call's Reply into a result value or a typed error. A
// shared result is lent: it aliases the reply body and the call's fields.
func decodeReply(k *call, share bool) (idl.Any, error) {
	if k.kind != giop.MsgReply {
		return idl.Null(), &SystemException{Name: ExcCommFailure, Detail: "request answered by a non-request reply"}
	}
	d := &k.d
	switch k.rh.Status {
	case giop.ReplyNoException:
		var result idl.Any
		var err error
		if share {
			result, err = idl.DecodeAny(d, &k.fields)
		} else {
			result, err = idl.UnmarshalAny(d)
		}
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
			Detail: "unsupported reply status " + k.rh.Status.String()}
	}
}

// locate performs a GIOP LocateRequest round trip over the same multiplexed
// connection invocations use; wire stats are accounted like any other call.
func (p *connPool) locate(ctx context.Context, addr string, key []byte) (bool, error) {
	order := p.orb.wireOrder()
	for attempt := 0; ; attempt++ {
		c, err := p.get(addr)
		if err != nil {
			return false, err
		}
		reqID := c.nextID.Add(1)
		k := p.newCall(order)
		(&giop.LocateRequestHeader{RequestID: reqID, ObjectKey: key}).Marshal(&k.enc)
		err = c.call(k, reqID, &giop.Message{Type: giop.MsgLocateRequest, Order: order, Body: k.enc.Bytes()}, p.callDeadline(ctx))
		found, answered := k.lr.Status == giop.LocateObjectHere, k.kind == giop.MsgLocateReply
		k.release()
		if err != nil {
			if pe, poisoned := err.(*errConnPoisoned); poisoned {
				if attempt == 0 {
					continue
				}
				err = pe.cause // keep the typed *SystemException contract
			}
			return false, err
		}
		if !answered {
			return false, &SystemException{Name: ExcCommFailure, Detail: "request answered by a non-locate reply"}
		}
		return found, nil
	}
}
