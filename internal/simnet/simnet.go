package simnet

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// netCounter gives every Net instance a process-unique host namespace
// ("sim1-", "sim2-", …) so two simulations in one test binary can never
// collide in shared per-process registries (the ORB's colocation map is
// keyed by listen address).
var netCounter atomic.Int64

// linkMode is the state of one host pair.
type linkMode int

const (
	linkUp linkMode = iota
	// linkPartitioned refuses dials and has already reset existing
	// connections: the classic hard partition.
	linkPartitioned
	// linkBlackhole accepts dials and silently swallows every byte in both
	// directions: the lost-datagram failure, only recoverable by deadline.
	linkBlackhole
)

// Stats are simnet's transport counters. Tests use Dials > 0 together with
// the unresolvable "simN-…" host namespace as the structural guard that a
// scenario ran entirely in memory: a real TCP dial to such a host cannot
// succeed, so traffic either went through simnet or failed loudly.
type Stats struct {
	Dials     int64 `json:"dials"`
	Refused   int64 `json:"refused"`
	Accepts   int64 `json:"accepts"`
	Resets    int64 `json:"resets"`
	Messages  int64 `json:"messages"`
	Bytes     int64 `json:"bytes"`
	Swallowed int64 `json:"swallowed"` // writes dropped by a blackhole
}

// Net is one simulated network: a namespace of hosts, their listeners and
// live connections, the link-state table, and the virtual clock.
type Net struct {
	prefix string
	seed   int64
	clock  *Clock

	mu        sync.Mutex
	listeners map[string]*listener // "host:port" -> listener
	conns     map[*conn]struct{}   // dial-side endpoint of every live pair
	hosts     map[string]bool      // every host handed out by Endpoint
	links     map[[2]string]linkMode
	latency   map[[2]string]time.Duration
	nextPort  int
	nextEphem int
	closed    bool

	dials     atomic.Int64
	refused   atomic.Int64
	accepts   atomic.Int64
	resets    atomic.Int64
	messages  atomic.Int64
	bytes     atomic.Int64
	swallowed atomic.Int64

	done chan struct{}
}

// New creates a simulated network. The seed is recorded for replay banners;
// simnet itself is deterministic by construction (ordered timers, FIFO
// links), while seeded randomness lives in fault plans (FaultPlan.Seed) and
// the layers above (topology and workload generators).
func New(seed int64) *Net {
	n := &Net{
		prefix:    fmt.Sprintf("sim%d", netCounter.Add(1)),
		seed:      seed,
		clock:     NewClock(),
		listeners: make(map[string]*listener),
		conns:     make(map[*conn]struct{}),
		hosts:     make(map[string]bool),
		links:     make(map[[2]string]linkMode),
		latency:   make(map[[2]string]time.Duration),
		nextPort:  1,
		nextEphem: 40000,
		done:      make(chan struct{}),
	}
	go n.autoAdvance()
	return n
}

// Seed returns the seed the network was created with.
func (n *Net) Seed() int64 { return n.seed }

// Clock returns the network's virtual clock.
func (n *Net) Clock() *Clock { return n.clock }

// Stats returns a snapshot of the transport counters.
func (n *Net) Stats() Stats {
	return Stats{
		Dials:     n.dials.Load(),
		Refused:   n.refused.Load(),
		Accepts:   n.accepts.Load(),
		Resets:    n.resets.Load(),
		Messages:  n.messages.Load(),
		Bytes:     n.bytes.Load(),
		Swallowed: n.swallowed.Load(),
	}
}

// Close shuts the network down: listeners stop accepting, every live
// connection is reset, and the idle auto-advancer stops.
func (n *Net) Close() {
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return
	}
	n.closed = true
	lns := make([]*listener, 0, len(n.listeners))
	for _, ln := range n.listeners {
		lns = append(lns, ln)
	}
	conns := make([]*conn, 0, len(n.conns))
	for c := range n.conns {
		conns = append(conns, c)
	}
	n.mu.Unlock()
	close(n.done)
	for _, ln := range lns {
		ln.close()
	}
	for _, c := range conns {
		c.reset()
		c.peer.reset()
	}
}

// autoAdvance releases virtual-time sleepers while the simulation is
// otherwise idle: whenever a short wall-clock poll finds pending virtual
// timers, the clock jumps to the earliest deadline. This is what makes a
// two-second injected latency cost microseconds of wall time.
func (n *Net) autoAdvance() {
	tick := time.NewTicker(200 * time.Microsecond)
	defer tick.Stop()
	for {
		select {
		case <-n.done:
			return
		case <-tick.C:
			n.clock.AdvanceToNext()
		}
	}
}

// Endpoint registers (or returns) the transport endpoint of one simulated
// host. The short name is namespaced per Net ("n0" -> "sim3-n0") so host
// addresses are process-unique and — deliberately — unresolvable by the real
// TCP stack. The returned Endpoint implements orb.Transport, and its Sleep
// pins a FaultTransport's latency to the virtual clock.
func (n *Net) Endpoint(host string) *Endpoint {
	full := n.prefix + "-" + host
	n.mu.Lock()
	n.hosts[full] = true
	n.mu.Unlock()
	return &Endpoint{net: n, host: full}
}

// pairKey orders a host pair into a canonical map key.
func pairKey(a, b string) [2]string {
	if a > b {
		a, b = b, a
	}
	return [2]string{a, b}
}

// mode returns the link state between two hosts. A host always reaches
// itself.
func (n *Net) mode(a, b string) linkMode {
	if a == b {
		return linkUp
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.links[pairKey(a, b)]
}

// linkLatency returns the one-way delivery latency between two hosts.
func (n *Net) linkLatency(a, b string) time.Duration {
	if a == b {
		return 0
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.latency[pairKey(a, b)]
}

// SetLinkLatency sets the one-way delivery latency between two hosts
// (virtual time; FIFO order per direction is preserved).
func (n *Net) SetLinkLatency(a, b string, d time.Duration) {
	n.mu.Lock()
	n.latency[pairKey(a, b)] = d
	n.mu.Unlock()
}

// Partition cuts the link between two hosts: future dials are refused and
// every established connection between them is reset immediately (in-flight
// calls fail now, deterministically, rather than via timers).
func (n *Net) Partition(a, b string) {
	n.setMode(a, b, linkPartitioned)
	n.resetBetween(a, b)
}

// Blackhole silently swallows all traffic between two hosts in both
// directions. Dials still "succeed" and existing connections stay up, but
// nothing is delivered until Heal — the failure only a deadline detects.
func (n *Net) Blackhole(a, b string) {
	n.setMode(a, b, linkBlackhole)
}

// Heal restores the link between two hosts.
func (n *Net) Heal(a, b string) {
	n.setMode(a, b, linkUp)
}

// HealAll restores every link.
func (n *Net) HealAll() {
	n.mu.Lock()
	n.links = make(map[[2]string]linkMode)
	n.mu.Unlock()
}

// Isolate partitions a host from every other host registered on the
// network.
func (n *Net) Isolate(host string) {
	for _, o := range n.others(host) {
		n.Partition(host, o)
	}
}

// Rejoin undoes Isolate.
func (n *Net) Rejoin(host string) {
	for _, o := range n.others(host) {
		n.Heal(host, o)
	}
}

// others returns every registered host but host.
func (n *Net) others(host string) []string {
	n.mu.Lock()
	defer n.mu.Unlock()
	others := make([]string, 0, len(n.hosts))
	for h := range n.hosts {
		if h != host {
			others = append(others, h)
		}
	}
	return others
}

func (n *Net) setMode(a, b string, m linkMode) {
	n.mu.Lock()
	if m == linkUp {
		delete(n.links, pairKey(a, b))
	} else {
		n.links[pairKey(a, b)] = m
	}
	n.mu.Unlock()
}

// resetBetween tears down every live connection whose two ends sit on the
// given host pair.
func (n *Net) resetBetween(a, b string) {
	key := pairKey(a, b)
	n.mu.Lock()
	var victims []*conn
	for c := range n.conns {
		if pairKey(c.local.host, c.remote.host) == key {
			victims = append(victims, c)
		}
	}
	n.mu.Unlock()
	for _, c := range victims {
		n.resets.Add(1)
		c.reset()
		c.peer.reset()
	}
}

func (n *Net) removeConn(c *conn) {
	n.mu.Lock()
	delete(n.conns, c)
	n.mu.Unlock()
}

// Endpoint is the per-host transport handle: it implements orb.Transport
// (Listen + DialTimeout), and Sleep gives it a virtual clock.
type Endpoint struct {
	net  *Net
	host string
}

// Host returns the endpoint's full (namespaced) host name — the host part
// of every address its listeners report.
func (e *Endpoint) Host() string { return e.host }

// Sleep blocks for d of virtual time. A FaultTransport wrapping this
// endpoint sleeps its injected latency here.
func (e *Endpoint) Sleep(d time.Duration) { e.net.clock.Sleep(d) }

// Listen binds a listener on this endpoint's host. The host part of addr is
// ignored — a simulated endpoint can only bind its own host, which also lets
// code written for "127.0.0.1:0" run unchanged over simnet — and port 0
// auto-assigns the next free port.
func (e *Endpoint) Listen(addr string) (net.Listener, error) {
	_, portStr, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("simnet: listen %q: %w", addr, err)
	}
	port, err := strconv.Atoi(portStr)
	if err != nil || port < 0 || port > 65535 {
		return nil, fmt.Errorf("simnet: listen %q: bad port", addr)
	}
	n := e.net
	n.mu.Lock()
	defer n.mu.Unlock()
	if n.closed {
		return nil, net.ErrClosed
	}
	if port == 0 {
		port = n.nextPort
		n.nextPort++
	}
	a := simAddr{host: e.host, port: port}
	if _, dup := n.listeners[a.String()]; dup {
		return nil, fmt.Errorf("simnet: listen %s: address in use", a)
	}
	ln := &listener{net: n, addr: a}
	ln.cond = sync.NewCond(&ln.mu)
	n.listeners[a.String()] = ln
	return ln, nil
}

// DialTimeout connects from this endpoint's host to a simulated address.
// Dials resolve synchronously (refused or connected; the timeout is unused),
// so failure injection at this layer comes from partitions and a
// FaultTransport's plan rather than wall-clock waits.
func (e *Endpoint) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	n := e.net
	host, _, err := net.SplitHostPort(addr)
	if err != nil {
		return nil, fmt.Errorf("simnet: dial %q: %w", addr, err)
	}
	n.dials.Add(1)
	if n.mode(e.host, host) == linkPartitioned {
		n.refused.Add(1)
		return nil, fmt.Errorf("simnet: dial %s from %s: network partitioned", addr, e.host)
	}
	n.mu.Lock()
	if n.closed {
		n.mu.Unlock()
		return nil, net.ErrClosed
	}
	ln := n.listeners[addr]
	ephem := n.nextEphem
	n.nextEphem++
	n.mu.Unlock()
	if ln == nil {
		n.refused.Add(1)
		return nil, fmt.Errorf("simnet: dial %s from %s: connection refused", addr, e.host)
	}

	client := newConn(n, simAddr{host: e.host, port: ephem}, ln.addr)
	server := newConn(n, ln.addr, client.local)
	client.peer, server.peer = server, client

	n.mu.Lock()
	n.conns[client] = struct{}{}
	n.mu.Unlock()

	if !ln.enqueue(server) {
		n.removeConn(client)
		n.refused.Add(1)
		return nil, fmt.Errorf("simnet: dial %s from %s: connection refused", addr, e.host)
	}
	n.accepts.Add(1)
	return client, nil
}

// simAddr is a simulated network address.
type simAddr struct {
	host string
	port int
}

func (a simAddr) Network() string { return "sim" }
func (a simAddr) String() string  { return net.JoinHostPort(a.host, strconv.Itoa(a.port)) }

// listener is the accept queue of one bound simulated address.
type listener struct {
	net  *Net
	addr simAddr

	mu     sync.Mutex
	cond   *sync.Cond
	queue  []*conn
	closed bool
}

// enqueue hands a freshly dialed server-side conn to Accept; it reports
// false if the listener is already closed.
func (l *listener) enqueue(c *conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return false
	}
	l.queue = append(l.queue, c)
	l.cond.Signal()
	return true
}

func (l *listener) Accept() (net.Conn, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for len(l.queue) == 0 && !l.closed {
		l.cond.Wait()
	}
	if l.closed {
		return nil, net.ErrClosed
	}
	c := l.queue[0]
	l.queue = l.queue[1:]
	return c, nil
}

func (l *listener) Close() error {
	l.net.mu.Lock()
	delete(l.net.listeners, l.addr.String())
	l.net.mu.Unlock()
	l.close()
	return nil
}

func (l *listener) close() {
	l.mu.Lock()
	l.closed = true
	l.cond.Broadcast()
	l.mu.Unlock()
}

func (l *listener) Addr() net.Addr { return l.addr }

// errReset is returned by I/O on a connection torn down by a partition or
// network shutdown. It wraps net.ErrClosed so the ORB's server loop treats
// it as a close rather than a protocol error, while clients fail their
// in-flight calls with COMM_FAILURE either way.
var errReset = fmt.Errorf("simnet: connection reset by partition: %w", net.ErrClosed)

// conn is one direction-pair endpoint of a simulated connection. Each
// endpoint owns its inbound buffer; writes append to the peer's buffer
// (synchronously on zero-latency links, via virtual timers otherwise, FIFO
// either way).
type conn struct {
	net    *Net
	local  simAddr
	remote simAddr
	peer   *conn

	mu         sync.Mutex
	cond       *sync.Cond
	buf        bytes.Buffer
	inflight   int // deliveries scheduled on the clock but not yet appended
	lastAt     time.Time
	closed     bool
	peerClosed bool
	resetted   bool
	deadline   time.Time
	dtimer     *time.Timer

	closeOnce sync.Once
}

func newConn(n *Net, local, remote simAddr) *conn {
	c := &conn{net: n, local: local, remote: remote}
	c.cond = sync.NewCond(&c.mu)
	return c
}

func (c *conn) LocalAddr() net.Addr  { return c.local }
func (c *conn) RemoteAddr() net.Addr { return c.remote }

func (c *conn) Read(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for {
		if c.resetted {
			return 0, errReset
		}
		if c.closed {
			return 0, net.ErrClosed
		}
		if c.buf.Len() > 0 {
			n, _ := c.buf.Read(p)
			return n, nil
		}
		if c.peerClosed && c.inflight == 0 {
			return 0, io.EOF
		}
		if !c.deadline.IsZero() && !time.Now().Before(c.deadline) {
			return 0, os.ErrDeadlineExceeded
		}
		c.cond.Wait()
	}
}

func (c *conn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.resetted {
		c.mu.Unlock()
		return 0, errReset
	}
	if c.closed {
		c.mu.Unlock()
		return 0, net.ErrClosed
	}
	c.mu.Unlock()

	switch c.net.mode(c.local.host, c.remote.host) {
	case linkBlackhole:
		c.net.swallowed.Add(1)
		return len(p), nil
	case linkPartitioned:
		// The partition reset races the write; behave as the reset.
		return 0, errReset
	}

	peer := c.peer
	peer.mu.Lock()
	if peer.closed || peer.resetted {
		peer.mu.Unlock()
		return 0, fmt.Errorf("simnet: write %s->%s: broken pipe", c.local, c.remote)
	}
	lat := c.net.linkLatency(c.local.host, c.remote.host)
	if lat == 0 && peer.inflight == 0 {
		peer.buf.Write(p)
		peer.cond.Broadcast()
		peer.mu.Unlock()
	} else {
		// Preserve FIFO: never deliver earlier than the previously
		// scheduled delivery, even if the latency was lowered meanwhile.
		now := c.net.clock.Now()
		at := now.Add(lat)
		if at.Before(peer.lastAt) {
			at = peer.lastAt
		}
		peer.lastAt = at
		peer.inflight++
		data := append([]byte(nil), p...)
		peer.mu.Unlock()
		c.net.clock.AfterFunc(at.Sub(now), func() {
			peer.mu.Lock()
			peer.inflight--
			if !peer.closed && !peer.resetted {
				peer.buf.Write(data)
			}
			peer.cond.Broadcast()
			peer.mu.Unlock()
		})
	}
	c.net.messages.Add(1)
	c.net.bytes.Add(int64(len(p)))
	return len(p), nil
}

// Close closes this endpoint: local reads fail immediately, the peer drains
// its buffer and then reads io.EOF (matching TCP FIN semantics closely
// enough for the ORB's clean-shutdown paths).
func (c *conn) Close() error {
	c.closeOnce.Do(func() {
		c.mu.Lock()
		c.closed = true
		c.cond.Broadcast()
		c.mu.Unlock()
		p := c.peer
		p.mu.Lock()
		p.peerClosed = true
		p.cond.Broadcast()
		p.mu.Unlock()
		c.net.removeConn(c)
		c.net.removeConn(p)
	})
	return nil
}

// reset hard-kills this endpoint (partition/shutdown): pending buffered data
// is discarded and all I/O fails with errReset.
func (c *conn) reset() {
	c.mu.Lock()
	c.resetted = true
	c.buf.Reset()
	c.cond.Broadcast()
	c.mu.Unlock()
	c.net.removeConn(c)
}

func (c *conn) SetDeadline(t time.Time) error {
	return c.SetReadDeadline(t)
}

// SetReadDeadline bounds blocked Reads with a wall-clock deadline (the ORB
// itself bounds calls with its own timers; this exists for net.Conn
// completeness).
func (c *conn) SetReadDeadline(t time.Time) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.deadline = t
	if c.dtimer != nil {
		c.dtimer.Stop()
		c.dtimer = nil
	}
	if !t.IsZero() {
		d := time.Until(t)
		if d < 0 {
			d = 0
		}
		c.dtimer = time.AfterFunc(d, func() {
			c.mu.Lock()
			c.cond.Broadcast()
			c.mu.Unlock()
		})
	}
	return nil
}

// SetWriteDeadline is a no-op: simulated writes never block.
func (c *conn) SetWriteDeadline(t time.Time) error { return nil }

// HostOf extracts the host part of a "host:port" address, for wiring
// partition calls from ORB addresses.
func HostOf(addr string) string {
	if host, _, err := net.SplitHostPort(addr); err == nil {
		return host
	}
	if i := strings.LastIndex(addr, ":"); i >= 0 {
		return addr[:i]
	}
	return addr
}
