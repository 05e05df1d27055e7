package orb

import (
	"repro/internal/giop"
	"repro/internal/trace"
)

// tracingInterceptor bridges the ORB's request interceptors to the trace
// package. On the client side it opens a span per invocation and stuffs the
// span context into the tracing service context entry; on the server side it
// decodes that entry, remote-parents a dispatch span onto the caller's trace,
// and hands the servant a context that continues the same trace. The span in
// flight rides the request info's slot table, the reproduction's analogue of
// the PortableInterceptor::Current slot mechanism.
type tracingInterceptor struct {
	t *trace.Tracer
}

// slot keys for the in-flight spans.
type clientSpanSlot struct{}
type serverSpanSlot struct{}

func (ti tracingInterceptor) SendRequest(ri *ClientRequestInfo) {
	ctx, sp := ti.t.StartSpan(ri.Ctx, "client:"+ri.Operation)
	transport := "iiop"
	if ri.Colocated {
		transport = "colocated"
	}
	sp.SetAttr("transport", transport)
	sp.SetAttr("addr", ri.Addr)
	sp.SetAttr("key", string(ri.ObjectKey))
	ri.Ctx = ctx
	ri.AddServiceContext(giop.ServiceContextTracing, sp.Context().Encode())
	ri.SetSlot(clientSpanSlot{}, sp)
}

func (ti tracingInterceptor) ReceiveReply(ri *ClientRequestInfo, err error) {
	if sp, _ := ri.Slot(clientSpanSlot{}).(*trace.Span); sp != nil {
		sp.End(err)
	}
}

func (ti tracingInterceptor) ReceiveRequest(ri *ServerRequestInfo) {
	ctx := ri.Ctx
	if data, ok := giop.GetServiceContext(ri.ServiceContexts, giop.ServiceContextTracing); ok {
		if sc, ok := trace.DecodeSpanContext(data); ok {
			ctx = trace.ContextWithRemote(ctx, sc)
		}
	}
	ctx, sp := ti.t.StartSpan(ctx, "server:"+ri.Operation)
	sp.SetAttr("transport", ri.Transport)
	sp.SetAttr("key", string(ri.ObjectKey))
	ri.Ctx = ctx
	ri.SetSlot(serverSpanSlot{}, sp)
}

func (ti tracingInterceptor) SendReply(ri *ServerRequestInfo, err error) {
	if sp, _ := ri.Slot(serverSpanSlot{}).(*trace.Span); sp != nil {
		sp.End(err)
	}
}

// EnableTracing registers the tracing client and server interceptors on the
// ORB, recording into t (trace.Default() when t is nil). Call before issuing
// or serving requests; every invocation then carries its trace ID across
// IIOP hops and colocated calls in a dedicated GIOP service context entry.
func (o *ORB) EnableTracing(t *trace.Tracer) {
	if t == nil {
		t = trace.Default()
	}
	ti := tracingInterceptor{t: t}
	o.RegisterClientInterceptor(ti)
	o.RegisterServerInterceptor(ti)
}
