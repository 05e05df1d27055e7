package orb

import (
	"context"
	"sync"
	"sync/atomic"

	"repro/internal/giop"
)

// This file is the reproduction's take on CORBA Portable Interceptors:
// request-level hooks registered on an ORB and invoked around every client
// invocation (roundTrip and the colocation fast path alike) and every servant
// dispatch. Interceptors observe and annotate requests — most importantly
// they attach and consume GIOP service context entries, the CORBA mechanism
// for propagating out-of-band state such as a trace context across ORB hops.

// ClientRequestInfo describes one outgoing invocation to client
// interceptors. SendRequest may replace Ctx (e.g. to attach a span) and add
// service context entries; the same info value is passed to ReceiveReply, so
// per-request interceptor state can ride in its slots (the analogue of the
// PortableInterceptor::Current slot table).
type ClientRequestInfo struct {
	// Ctx is the caller's context. Interceptors may replace it; the final
	// value is the context the reply handlers observe, and — for colocated
	// calls — the context the servant dispatch receives.
	Ctx context.Context
	// Operation is the invoked operation name.
	Operation string
	// ObjectKey is the target object's adapter key.
	ObjectKey []byte
	// Addr is the target endpoint ("host:port").
	Addr string
	// Colocated reports that the call takes the in-process fast path.
	Colocated bool
	// ServiceContexts are sent in the GIOP request header. Interceptors add
	// entries with AddServiceContext.
	ServiceContexts []giop.ServiceContext

	slots map[any]any
}

// AddServiceContext sets a service context entry on the outgoing request.
func (ri *ClientRequestInfo) AddServiceContext(id uint32, data []byte) {
	ri.ServiceContexts = giop.WithServiceContext(ri.ServiceContexts, id, data)
}

// SetSlot stores per-request interceptor state.
func (ri *ClientRequestInfo) SetSlot(key, val any) {
	if ri.slots == nil {
		ri.slots = make(map[any]any)
	}
	ri.slots[key] = val
}

// Slot returns per-request interceptor state (nil when unset).
func (ri *ClientRequestInfo) Slot(key any) any { return ri.slots[key] }

// ServerRequestInfo describes one incoming invocation to server
// interceptors. ReceiveRequest may replace Ctx; the final value is the
// context the servant dispatch receives (context-aware servants see it).
type ServerRequestInfo struct {
	// Ctx is the dispatch context handed to the servant.
	Ctx context.Context
	// Operation is the invoked operation name.
	Operation string
	// ObjectKey is the target object's adapter key.
	ObjectKey []byte
	// Transport is "iiop" for socket dispatches, "colocated" for the
	// in-process fast path.
	Transport string
	// ServiceContexts are the entries received in the GIOP request header
	// (or handed across directly on the colocated path).
	ServiceContexts []giop.ServiceContext

	slots map[any]any
}

// SetSlot stores per-request interceptor state.
func (ri *ServerRequestInfo) SetSlot(key, val any) {
	if ri.slots == nil {
		ri.slots = make(map[any]any)
	}
	ri.slots[key] = val
}

// Slot returns per-request interceptor state (nil when unset).
func (ri *ServerRequestInfo) Slot(key any) any { return ri.slots[key] }

// ClientInterceptor hooks the client side of an invocation. SendRequest runs
// before the request is marshalled (once per logical invocation, not per
// transparent retry); ReceiveReply runs after the reply — or the failure —
// is known, with interceptors unwound in reverse registration order.
type ClientInterceptor interface {
	SendRequest(ri *ClientRequestInfo)
	ReceiveReply(ri *ClientRequestInfo, err error)
}

// ServerInterceptor hooks servant dispatch. ReceiveRequest runs before the
// servant is invoked; SendReply runs after it returns, in reverse
// registration order, before the reply is marshalled.
type ServerInterceptor interface {
	ReceiveRequest(ri *ServerRequestInfo)
	SendReply(ri *ServerRequestInfo, err error)
}

// interceptorRegistry holds an ORB's registered interceptors. Registration
// is copy-on-write so the per-request read path is a single atomic load.
type interceptorRegistry struct {
	mu     sync.Mutex
	client atomicSlice[ClientInterceptor]
	server atomicSlice[ServerInterceptor]
}

// atomicSlice publishes an immutable slice snapshot.
type atomicSlice[T any] struct {
	p atomic.Pointer[[]T]
}

func (a *atomicSlice[T]) load() []T {
	if s := a.p.Load(); s != nil {
		return *s
	}
	return nil
}

func (a *atomicSlice[T]) store(s []T) { a.p.Store(&s) }

// RegisterClientInterceptor installs a client-side request interceptor.
// Registration order is invocation order for SendRequest; ReceiveReply
// unwinds in reverse. Register interceptors before issuing requests.
func (o *ORB) RegisterClientInterceptor(ci ClientInterceptor) {
	o.interceptors.mu.Lock()
	defer o.interceptors.mu.Unlock()
	cur := o.interceptors.client.load()
	next := make([]ClientInterceptor, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = ci
	o.interceptors.client.store(next)
}

// RegisterServerInterceptor installs a server-side request interceptor.
func (o *ORB) RegisterServerInterceptor(si ServerInterceptor) {
	o.interceptors.mu.Lock()
	defer o.interceptors.mu.Unlock()
	cur := o.interceptors.server.load()
	next := make([]ServerInterceptor, len(cur)+1)
	copy(next, cur)
	next[len(cur)] = si
	o.interceptors.server.store(next)
}

func (o *ORB) clientInterceptors() []ClientInterceptor { return o.interceptors.client.load() }
func (o *ORB) serverInterceptors() []ServerInterceptor { return o.interceptors.server.load() }
