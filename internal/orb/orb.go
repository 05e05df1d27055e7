package orb

import (
	"fmt"
	"net"
	"time"

	"repro/internal/cdr"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/idl"
)

// Product identifies an ORB product. The reproduction instantiates three,
// mirroring the paper's deployment: Orbix (C++ servers), OrbixWeb and
// VisiBroker for Java (Java servers). All speak the same IIOP and therefore
// interoperate, which is the point the paper demonstrates.
type Product string

// The three ORB products of the paper's prototype.
const (
	Orbix      Product = "Orbix"
	OrbixWeb   Product = "OrbixWeb"
	VisiBroker Product = "VisiBroker"
)

// Stats holds ORB invocation counters, used by experiments, benchmarks and
// the /debug/metrics endpoint to verify which path (colocated vs socket
// IIOP) served each call.
//
// Concurrency contract: every field is an atomic counter written by ORB
// goroutines at any time. Readers must use the fields' Load methods (or
// Snapshot, which does); plain struct reads are never safe. The struct
// embeds sync state, so it must not be copied after first use — `go vet`'s
// copylocks check enforces this. Counters are independent: a set of loads
// (or a Snapshot) is consistent per counter, not transactionally across
// counters.
type Stats struct {
	RequestsServed atomic.Int64 // requests dispatched by this ORB's adapter
	ColocatedCalls atomic.Int64 // client calls short-circuited in-process
	IIOPCalls      atomic.Int64 // client calls that went over TCP
	BytesSent      atomic.Int64
	BytesReceived  atomic.Int64
	LocateRequests atomic.Int64
	ActiveConns    atomic.Int64
	ProtocolErrors atomic.Int64
	UserExceptions atomic.Int64
	SysExceptions  atomic.Int64
	OnewayRequests atomic.Int64
	InFlight       atomic.Int64 // client requests currently awaiting a reply
	MaxInFlight    atomic.Int64 // high-water mark of InFlight
	Retries        atomic.Int64 // transparent client retries of idempotent calls
	BreakerTrips   atomic.Int64 // circuit transitions into the open state
	BreakerRejects atomic.Int64 // calls failed fast by an open breaker
	FaultsInjected atomic.Int64 // faults injected by the ORB's FaultPlan

	FragmentsSent        atomic.Int64 // GIOP Fragment frames written (requests and replies)
	FragmentsReassembled atomic.Int64 // GIOP Fragment frames consumed by reassembly

	// HousekeepingCalls counts the client calls issued under WithHousekeeping,
	// by either path, instead of ColocatedCalls or IIOPCalls: traffic a node
	// sends on a timer (membership gossip), whether or not anyone is using
	// it. What is left in those two is what callers asked for, so the calls
	// one statement costs can be read off them exactly. Bytes, fragments and
	// the in-flight gauge count everything.
	HousekeepingCalls atomic.Int64
}

// StatsSnapshot is a plain-value copy of Stats, safe to serialize (it is the
// shape the node binary publishes under /debug/metrics).
type StatsSnapshot struct {
	RequestsServed       int64 `json:"requests_served"`
	ColocatedCalls       int64 `json:"colocated_calls"`
	IIOPCalls            int64 `json:"iiop_calls"`
	HousekeepingCalls    int64 `json:"housekeeping_calls"`
	BytesSent            int64 `json:"bytes_sent"`
	BytesReceived        int64 `json:"bytes_received"`
	LocateRequests       int64 `json:"locate_requests"`
	ActiveConns          int64 `json:"active_conns"`
	ProtocolErrors       int64 `json:"protocol_errors"`
	UserExceptions       int64 `json:"user_exceptions"`
	SysExceptions        int64 `json:"sys_exceptions"`
	OnewayRequests       int64 `json:"oneway_requests"`
	InFlight             int64 `json:"in_flight"`
	MaxInFlight          int64 `json:"max_in_flight"`
	Retries              int64 `json:"retries"`
	BreakerTrips         int64 `json:"breaker_trips"`
	BreakerRejects       int64 `json:"breaker_rejects"`
	FaultsInjected       int64 `json:"faults_injected"`
	FragmentsSent        int64 `json:"fragments_sent"`
	FragmentsReassembled int64 `json:"fragments_reassembled"`
}

// Snapshot loads every counter atomically (field by field; see the Stats
// concurrency contract) and returns the copy.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		RequestsServed:       s.RequestsServed.Load(),
		ColocatedCalls:       s.ColocatedCalls.Load(),
		IIOPCalls:            s.IIOPCalls.Load(),
		HousekeepingCalls:    s.HousekeepingCalls.Load(),
		BytesSent:            s.BytesSent.Load(),
		BytesReceived:        s.BytesReceived.Load(),
		LocateRequests:       s.LocateRequests.Load(),
		ActiveConns:          s.ActiveConns.Load(),
		ProtocolErrors:       s.ProtocolErrors.Load(),
		UserExceptions:       s.UserExceptions.Load(),
		SysExceptions:        s.SysExceptions.Load(),
		OnewayRequests:       s.OnewayRequests.Load(),
		InFlight:             s.InFlight.Load(),
		MaxInFlight:          s.MaxInFlight.Load(),
		Retries:              s.Retries.Load(),
		BreakerTrips:         s.BreakerTrips.Load(),
		BreakerRejects:       s.BreakerRejects.Load(),
		FaultsInjected:       s.FaultsInjected.Load(),
		FragmentsSent:        s.FragmentsSent.Load(),
		FragmentsReassembled: s.FragmentsReassembled.Load(),
	}
}

// noteInFlight bumps the InFlight gauge and keeps MaxInFlight at its
// high-water mark; the caller must decrement InFlight when the call ends.
func (s *Stats) noteInFlight() {
	n := s.InFlight.Add(1)
	for {
		max := s.MaxInFlight.Load()
		if n <= max || s.MaxInFlight.CompareAndSwap(max, n) {
			return
		}
	}
}

// Options configure an ORB instance.
type Options struct {
	Product Product
	// DisableColocation forces every invocation over the socket even when
	// the target object lives in the same process. Used by benchmarks to
	// compare the two paths (the paper's JNI/C++-invocation vs IIOP split).
	DisableColocation bool
	// LittleEndian makes this ORB's client requests use the little-endian
	// CDR transfer syntax. Servers always honour the byte-order flag of the
	// request they receive (CORBA receiver-makes-right), so ORBs with
	// different native orders interoperate.
	LittleEndian bool
	// CallTimeout bounds each client request/reply exchange (0 = no bound).
	// Expired calls surface as COMM_FAILURE and poison their connection,
	// which fails every other request in flight on it with COMM_FAILURE too.
	CallTimeout time.Duration
	// DialTimeout bounds establishing a new outbound IIOP connection.
	// 0 means the default of 10 seconds.
	DialTimeout time.Duration
	// MaxIdlePerHost caps the multiplexed connections kept per endpoint
	// (0 means the default of 8). Every connection is shared by many
	// concurrent requests; the pool only opens another when all existing
	// connections to the endpoint are pipeline-saturated.
	MaxIdlePerHost int
	// Retry bounds transparent retries of idempotent invocations (see
	// ObjectRef.InvokeIdempotent). The zero value disables retries.
	Retry RetryPolicy
	// Breaker enables per-endpoint circuit breakers (closed/open/half-open).
	// The zero value disables them.
	Breaker BreakerPolicy
	// Faults installs a fault-injection plan on the client IIOP path (chaos
	// testing). nil injects nothing; SetFaultPlan swaps plans at runtime.
	Faults *FaultPlan
	// FragmentThreshold sets the body size above which requests and replies
	// are written as GIOP 1.1 fragmented messages (an initial frame plus
	// Fragment frames of at most this size), so one huge reply no longer
	// head-of-line-blocks the other calls pipelined on the connection.
	// 0 selects giop.DefaultFragmentThreshold; negative disables
	// fragmentation (every message is one frame, as in GIOP 1.0).
	FragmentThreshold int
	// Transport supplies the network stack used by Listen and client dials.
	// nil selects the operating system's TCP stack. Deterministic tests
	// inject an in-memory transport (internal/simnet) to run federations
	// without sockets and with virtual time.
	Transport Transport
}

// RetryPolicy bounds the transparent retry of idempotent client invocations.
// Only transport-class failures (COMM_FAILURE) are retried, with exponential
// backoff and full jitter between attempts; breaker rejections consume an
// attempt without touching the endpoint, so the backoff can outlast the
// breaker's cooldown and land on its half-open probe.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts (first try included).
	// Values <= 1 disable retries.
	MaxAttempts int
	// BaseBackoff is the cap of the first backoff window (default 10ms);
	// the window doubles each attempt. The actual sleep is uniform in
	// (0, window] — full jitter.
	BaseBackoff time.Duration
	// MaxBackoff caps the backoff window (default 500ms).
	MaxBackoff time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 10 * time.Millisecond
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 500 * time.Millisecond
	}
	return p
}

// wireOrder returns the CDR byte order this ORB's clients emit.
func (o *ORB) wireOrder() cdr.ByteOrder {
	if o.opts.LittleEndian {
		return cdr.LittleEndian
	}
	return cdr.BigEndian
}

// ORB is one Object Request Broker instance: a server-side object adapter
// plus a client-side connection manager.
type ORB struct {
	opts Options
	repo *idl.Repository

	mu       sync.RWMutex
	servants map[string]Servant
	listener net.Listener
	host     string
	port     uint16

	pool *connPool

	// transport is never nil (Options.Transport or the TCP default); sleep
	// delegates to the transport's virtual clock when it has one.
	transport Transport
	sleep     func(time.Duration)

	interceptors interceptorRegistry

	// breakers is nil unless Options.Breaker enables circuit breaking.
	breakers *breakerSet
	// faults holds the active fault injector (nil = no injection); swapped
	// atomically by SetFaultPlan so chaos can start and stop at runtime.
	faults atomic.Pointer[faultInjector]

	Stats Stats

	closeOnce sync.Once
	closed    chan struct{}
	wg        sync.WaitGroup
}

// processORBs maps listen addresses to in-process ORBs for the colocation
// fast path (the reproduction's analogue of the paper's in-process C++/JNI
// bridges, which bypass the socket).
var processORBs sync.Map // string addr -> *ORB

// New creates an ORB.
func New(opts Options) *ORB {
	if opts.Product == "" {
		opts.Product = Orbix
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = 10 * time.Second
	}
	if opts.MaxIdlePerHost <= 0 {
		opts.MaxIdlePerHost = 8
	}
	o := &ORB{
		opts:      opts,
		repo:      idl.NewRepository(),
		servants:  make(map[string]Servant),
		closed:    make(chan struct{}),
		transport: opts.Transport,
		sleep:     time.Sleep,
	}
	if o.transport == nil {
		o.transport = tcpTransport{}
	}
	if s, ok := o.transport.(Sleeper); ok {
		o.sleep = s.Sleep
	}
	o.pool = newConnPool(o)
	if opts.Breaker.Threshold > 0 {
		o.breakers = newBreakerSet(opts.Breaker, &o.Stats)
	}
	if opts.Faults != nil {
		o.faults.Store(newFaultInjector(*opts.Faults, &o.Stats))
	}
	return o
}

// SetFaultPlan installs (or, with nil, removes) the client-side fault
// injection plan at runtime. The swap is visible to connections already
// sitting in the pool, not just future dials: every pooled connection
// consults the active plan on each read and write, so latency, drop and
// reset rules take effect immediately on live connections. Dial-path rules
// (FailFirst, FailConnect) inherently apply only to future dials.
func (o *ORB) SetFaultPlan(plan *FaultPlan) {
	if plan == nil {
		o.faults.Store(nil)
		return
	}
	o.faults.Store(newFaultInjector(*plan, &o.Stats))
}

// injector returns the active fault injector, or nil.
func (o *ORB) injector() *faultInjector { return o.faults.Load() }

// BreakerSnapshot reports the state of every endpoint breaker (empty when
// breakers are disabled); the node binary publishes it under /debug/metrics.
func (o *ORB) BreakerSnapshot() map[string]BreakerState {
	if o.breakers == nil {
		return map[string]BreakerState{}
	}
	return o.breakers.snapshot()
}

// Product reports the ORB product name.
func (o *ORB) Product() Product { return o.opts.Product }

// Repository returns the ORB's interface repository.
func (o *ORB) Repository() *idl.Repository { return o.repo }

// Listen starts the IIOP endpoint on addr (e.g. "127.0.0.1:0") and begins
// accepting connections. It must be called before Activate.
func (o *ORB) Listen(addr string) error {
	ln, err := o.transport.Listen(addr)
	if err != nil {
		return fmt.Errorf("orb(%s): listen %s: %w", o.opts.Product, addr, err)
	}
	host, portStr, err := net.SplitHostPort(ln.Addr().String())
	if err != nil {
		ln.Close()
		return fmt.Errorf("orb(%s): split addr: %w", o.opts.Product, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil {
		ln.Close()
		return fmt.Errorf("orb(%s): bad port: %w", o.opts.Product, err)
	}
	o.mu.Lock()
	if o.listener != nil {
		o.mu.Unlock()
		ln.Close()
		return fmt.Errorf("orb(%s): already listening on %s", o.opts.Product, o.Addr())
	}
	o.listener = ln
	o.host = host
	o.port = uint16(port)
	o.mu.Unlock()

	processORBs.Store(o.Addr(), o)

	o.wg.Add(1)
	go o.acceptLoop(ln)
	return nil
}

// Addr returns the host:port the ORB is listening on ("" before Listen).
func (o *ORB) Addr() string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	if o.listener == nil {
		return ""
	}
	return fmt.Sprintf("%s:%d", o.host, o.port)
}

// Activate registers a servant under an object key and returns its IOR. The
// servant's interface is also registered in the interface repository.
func (o *ORB) Activate(key string, s Servant) (*IOR, error) {
	o.mu.Lock()
	defer o.mu.Unlock()
	if o.listener == nil {
		return nil, fmt.Errorf("orb(%s): Activate %q before Listen", o.opts.Product, key)
	}
	if _, exists := o.servants[key]; exists {
		return nil, fmt.Errorf("orb(%s): object key %q already active", o.opts.Product, key)
	}
	o.servants[key] = s
	o.repo.Register(s.InterfaceDef())
	return &IOR{
		RepoID:    s.InterfaceDef().RepoID,
		Host:      o.host,
		Port:      o.port,
		ObjectKey: []byte(key),
	}, nil
}

// Deactivate removes the servant under key. Pending invocations already
// dispatched complete; new requests get OBJECT_NOT_EXIST.
func (o *ORB) Deactivate(key string) error {
	o.mu.Lock()
	defer o.mu.Unlock()
	if _, ok := o.servants[key]; !ok {
		return fmt.Errorf("orb(%s): no active object %q", o.opts.Product, key)
	}
	delete(o.servants, key)
	return nil
}

// ActiveKeys returns the sorted object keys of active servants.
func (o *ORB) ActiveKeys() []string {
	o.mu.RLock()
	defer o.mu.RUnlock()
	keys := make([]string, 0, len(o.servants))
	for k := range o.servants {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (o *ORB) lookupServant(key string) (Servant, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	s, ok := o.servants[key]
	return s, ok
}

// Resolve wraps an IOR in a client object reference bound to this ORB.
func (o *ORB) Resolve(ior *IOR) *ObjectRef {
	return &ObjectRef{orb: o, ior: ior}
}

// ResolveString parses a stringified IOR and wraps it.
func (o *ORB) ResolveString(s string) (*ObjectRef, error) {
	ior, err := Destringify(s)
	if err != nil {
		return nil, err
	}
	return o.Resolve(ior), nil
}

// Shutdown stops the listener, closes client connections and waits for
// connection goroutines to exit.
func (o *ORB) Shutdown() {
	o.closeOnce.Do(func() {
		close(o.closed)
		o.mu.Lock()
		ln := o.listener
		o.mu.Unlock()
		if ln != nil {
			processORBs.Delete(o.Addr())
			ln.Close()
		}
		o.pool.closeAll()
	})
	o.wg.Wait()
}

// colocatedTarget returns the in-process ORB listening on addr, if
// colocation is permitted for this client ORB.
func (o *ORB) colocatedTarget(addr string) (*ORB, bool) {
	if o.opts.DisableColocation {
		return nil, false
	}
	v, ok := processORBs.Load(addr)
	if !ok {
		return nil, false
	}
	t := v.(*ORB)
	if t.opts.DisableColocation {
		return nil, false
	}
	return t, true
}
