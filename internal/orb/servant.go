package orb

import (
	"context"
	"fmt"
	"sync"

	"repro/internal/idl"
)

// Servant is an object implementation hosted by an object adapter. Invoke
// receives the operation name and the CDR-decoded in-parameters and returns
// the result value. Returning a *UserException produces a USER_EXCEPTION
// reply; any other error produces a SYSTEM_EXCEPTION.
type Servant interface {
	InterfaceDef() *idl.Interface
	Invoke(op string, args []idl.Any) (idl.Any, error)
}

// ContextServant is optionally implemented by servants that want the dispatch
// context — which carries the request's trace parentage as placed by the
// server-side interceptors. The object adapter prefers InvokeCtx when the
// servant provides it and falls back to Invoke otherwise, so existing
// servants keep working unchanged.
type ContextServant interface {
	Servant
	InvokeCtx(ctx context.Context, op string, args []idl.Any) (idl.Any, error)
}

// ResultReleaser is optionally implemented by servants that lend the ORB
// buffers in their results. The ORB hands a successful result back once the
// reply is written (or a oneway dispatched), or once a scoped colocated
// caller's use returns; an unscoped colocated caller keeps it.
type ResultReleaser interface {
	ReleaseResult(op string, result idl.Any)
}

// releaseResult hands a successful result back to the servant that made it.
func releaseResult(s Servant, op string, result idl.Any, err error) {
	if r, ok := s.(ResultReleaser); ok && err == nil {
		r.ReleaseResult(op, result)
	}
}

// UserException is an application-level exception that crosses the wire as a
// GIOP USER_EXCEPTION reply and is reconstructed on the client side.
type UserException struct {
	Name    string // exception identifier, e.g. "NotFound"
	Message string
}

// Error implements the error interface.
func (e *UserException) Error() string {
	return fmt.Sprintf("%s: %s", e.Name, e.Message)
}

// Userf builds a UserException with a formatted message.
func Userf(name, format string, args ...any) *UserException {
	return &UserException{Name: name, Message: fmt.Sprintf(format, args...)}
}

// SystemException is an ORB-level failure: unknown object, unknown
// operation, transport failure, or an unclassified servant error.
type SystemException struct {
	Name   string // e.g. "OBJECT_NOT_EXIST", "BAD_OPERATION", "COMM_FAILURE"
	Minor  uint32
	Detail string
}

// Error implements the error interface.
func (e *SystemException) Error() string {
	if e.Detail != "" {
		return fmt.Sprintf("%s (minor %d): %s", e.Name, e.Minor, e.Detail)
	}
	return fmt.Sprintf("%s (minor %d)", e.Name, e.Minor)
}

// Well-known system exception names.
const (
	ExcObjectNotExist = "OBJECT_NOT_EXIST"
	ExcBadOperation   = "BAD_OPERATION"
	ExcCommFailure    = "COMM_FAILURE"
	ExcMarshal        = "MARSHAL"
	ExcUnknown        = "UNKNOWN"
	ExcBadParam       = "BAD_PARAM"
)

// OpFunc is the handler signature used by Handler servants.
type OpFunc func(args []idl.Any) (idl.Any, error)

// CtxOpFunc is the context-aware handler signature: the context is the
// dispatch context (trace parentage included) for this request.
type CtxOpFunc func(ctx context.Context, args []idl.Any) (idl.Any, error)

// Handler is a map-based Servant: operations are registered as closures
// against an interface definition. It is the reproduction's equivalent of an
// IDL-generated skeleton. Handlers registered with On ignore the dispatch
// context; OnCtx handlers receive it.
type Handler struct {
	iface *idl.Interface
	mu    sync.RWMutex
	ops   map[string]CtxOpFunc
}

// NewHandler creates a Handler servant for the given interface.
func NewHandler(iface *idl.Interface) *Handler {
	return &Handler{iface: iface, ops: make(map[string]CtxOpFunc)}
}

// On registers the implementation of an operation. It panics if the
// operation is not part of the interface, catching skeleton/interface drift
// at construction time rather than at invocation time.
func (h *Handler) On(op string, fn OpFunc) *Handler {
	return h.OnCtx(op, func(_ context.Context, args []idl.Any) (idl.Any, error) {
		return fn(args)
	})
}

// OnCtx registers a context-aware operation implementation. Like On, it
// panics if the operation is not part of the interface.
func (h *Handler) OnCtx(op string, fn CtxOpFunc) *Handler {
	if _, err := h.iface.Op(op); err != nil {
		panic(fmt.Sprintf("orb: Handler.OnCtx: %v", err))
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.ops[op] = fn
	return h
}

// InterfaceDef implements Servant.
func (h *Handler) InterfaceDef() *idl.Interface { return h.iface }

// Invoke implements Servant.
func (h *Handler) Invoke(op string, args []idl.Any) (idl.Any, error) {
	return h.InvokeCtx(context.Background(), op, args)
}

// InvokeCtx implements ContextServant.
func (h *Handler) InvokeCtx(ctx context.Context, op string, args []idl.Any) (idl.Any, error) {
	def, err := h.iface.Op(op)
	if err != nil {
		return idl.Null(), &SystemException{Name: ExcBadOperation, Detail: err.Error()}
	}
	if want := def.InCount(); len(args) != want {
		return idl.Null(), &SystemException{
			Name:   ExcBadParam,
			Detail: fmt.Sprintf("operation %s expects %d in-params, got %d", op, want, len(args)),
		}
	}
	h.mu.RLock()
	fn, ok := h.ops[op]
	h.mu.RUnlock()
	if !ok {
		return idl.Null(), &SystemException{
			Name:   ExcBadOperation,
			Detail: fmt.Sprintf("operation %s declared but not implemented", op),
		}
	}
	return fn(ctx, args)
}
