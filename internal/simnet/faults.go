package simnet

import (
	"cmp"
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/giop"
)

// Transport is what a FaultTransport wraps: orb.Transport's two methods,
// declared here because the ORB's own tests import simnet.
type Transport interface {
	Listen(addr string) (net.Listener, error)
	DialTimeout(addr string, timeout time.Duration) (net.Conn, error)
}

// FaultPlan describes the faults a FaultTransport injects into the
// connections it dials: failed dials, delayed replies, silently dropped
// requests, and connection resets. Injection is deterministic for a given
// seed and message sequence, so chaos tests are reproducible. An ORB's
// colocated fast path bypasses its transport and therefore the plan. Plans
// are JSON-serialisable so a node process can load one from its config.
type FaultPlan struct {
	// Seed feeds the plan's private PRNG. Zero selects seed 1, keeping the
	// zero value deterministic too.
	Seed int64 `json:"seed"`
	// Rules are matched in order against the endpoint being contacted; the
	// first matching rule applies. An Addr of "" matches every endpoint.
	Rules []FaultRule `json:"rules"`
}

// FaultRule is the faults injected for one endpoint. Reset, Drop and
// ResetAfter are rolled in that order once per outbound GIOP message, and
// the outcome holds for the whole message however the writer cuts it.
type FaultRule struct {
	// Addr is the exact "host:port" the rule applies to; "" matches all.
	Addr string `json:"addr"`
	// FailFirst fails this many dials to the endpoint before letting one
	// through — deterministic, independent of the PRNG. Tests use it to
	// exercise retry ("dead for the first N attempts, then recovers").
	FailFirst int `json:"fail_first"`
	// FailConnect is the probability (0..1) that a dial fails outright,
	// applied after FailFirst is exhausted. 1 makes the endpoint unreachable.
	FailConnect float64 `json:"fail_connect"`
	// LatencyMS delays each message arriving from the endpoint once by this
	// many milliseconds (a slow or congested member).
	LatencyMS int `json:"latency_ms"`
	// Drop is the probability that an outbound message is silently
	// swallowed — the classic lost-datagram failure; the caller only recovers
	// through its deadline.
	Drop float64 `json:"drop"`
	// Reset is the probability that the connection is torn down (RST-style)
	// just before an outbound message is written.
	Reset float64 `json:"reset"`
	// ResetAfter is the probability that the connection is closed right
	// after an outbound message is written: the request is delivered and its
	// reply is lost, the one schedule that tells whether a retried call is
	// safe to repeat.
	ResetAfter float64 `json:"reset_after"`
}

// rule returns the first rule matching addr, or nil.
func (p *FaultPlan) rule(addr string) *FaultRule {
	for i := range p.Rules {
		if p.Rules[i].Addr == "" || p.Rules[i].Addr == addr {
			return &p.Rules[i]
		}
	}
	return nil
}

// FaultTransport decorates a Transport with a FaultPlan acting on whole
// GIOP messages of the connections it dials. Latency sleeps on the inner
// transport's clock when it has one (an Endpoint's), on the wall otherwise.
type FaultTransport struct {
	Transport // the inner transport; Listen passes through
	sleep     func(time.Duration)
	injected  atomic.Int64
	active    atomic.Pointer[injector] // nil: no plan
}

// NewFaultTransport wraps inner in plan, which may be nil.
func NewFaultTransport(inner Transport, plan *FaultPlan) *FaultTransport {
	t := &FaultTransport{Transport: inner, sleep: time.Sleep}
	if c, ok := inner.(interface{ Sleep(time.Duration) }); ok {
		t.sleep = c.Sleep
	}
	t.SetPlan(plan)
	return t
}

// SetPlan installs (or, with nil, removes) the plan. Connections already
// dialled, pooled ones included, follow it from their next message on.
func (t *FaultTransport) SetPlan(plan *FaultPlan) {
	if plan == nil {
		t.active.Store(nil)
		return
	}
	rng := rand.New(rand.NewSource(cmp.Or(plan.Seed, 1)))
	t.active.Store(&injector{plan: *plan, rng: rng, dials: make(map[string]int)})
}

// Injected counts the faults injected under every plan installed so far.
func (t *FaultTransport) Injected() int64 { return t.injected.Load() }

// DialTimeout dials through the inner transport unless the plan refuses the
// dial, which fails as a refused connect does, with a plain error.
func (t *FaultTransport) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	if in := t.active.Load(); in != nil && in.refuse(addr) {
		t.injected.Add(1)
		return nil, errors.New("injected connect failure")
	}
	nc, err := t.Transport.DialTimeout(addr, timeout)
	if err != nil {
		return nil, err
	}
	return &faultConn{Conn: nc, t: t, addr: addr}, nil
}

// injector is one installed plan with its PRNG and per-endpoint dial counts.
type injector struct {
	plan  FaultPlan
	mu    sync.Mutex
	rng   *rand.Rand
	dials map[string]int
}

// roll draws one Bernoulli sample from the plan's PRNG.
func (in *injector) roll(p float64) bool {
	if p <= 0 || p >= 1 {
		return p >= 1
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.rng.Float64() < p
}

// refuse decides whether this dial to addr fails.
func (in *injector) refuse(addr string) bool {
	r := in.plan.rule(addr)
	if r == nil {
		return false
	}
	in.mu.Lock()
	n := in.dials[addr]
	in.dials[addr] = n + 1
	in.mu.Unlock()
	return n < r.FailFirst || in.roll(r.FailConnect)
}

var errInjectedReset = errors.New("injected connection reset")

// faultConn is one dialled connection under the plan. The ORB serialises
// its writes and reads each connection from one goroutine, so each
// direction has one user at a time.
type faultConn struct {
	net.Conn
	t    *FaultTransport
	addr string
	out  framer
	msg  []byte // the outbound message written so far
	in   framer
	lost atomic.Bool // a ResetAfter fired: nothing read from here on is returned
}

// rule returns the injector and rule governing this connection now.
func (c *faultConn) rule() (*injector, *FaultRule) {
	if in := c.t.active.Load(); in != nil {
		return in, in.plan.rule(c.addr)
	}
	return nil, nil
}

// Read holds the bytes it returns for the rule's latency when a message
// begins in them: messages that arrive together share the delay, and the
// later reads of a long message are not delayed again.
func (c *faultConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && c.in.begins(p[:n]) {
		if _, r := c.rule(); r != nil && r.LatencyMS > 0 {
			c.t.sleep(time.Duration(r.LatencyMS) * time.Millisecond)
		}
	}
	if c.lost.Load() {
		return 0, errInjectedReset
	}
	return n, err
}

// Write holds bytes back until they complete a message, so each message
// meets its fate whole however the writer cut it.
func (c *faultConn) Write(p []byte) (int, error) {
	for i := 0; i < len(p); {
		n := c.out.next(p[i:])
		c.msg = append(c.msg, p[i:i+n]...)
		if i += n; c.out.got == 0 {
			err := c.send(c.msg)
			c.msg = c.msg[:0]
			if err != nil {
				return i, err
			}
		}
	}
	return len(p), nil
}

// send delivers one whole outbound message, or not, as the rule rolls.
func (c *faultConn) send(msg []byte) error {
	if in, r := c.rule(); r != nil {
		switch {
		case in.roll(r.Reset):
			c.t.injected.Add(1)
			c.Conn.Close()
			return errInjectedReset
		case in.roll(r.Drop):
			c.t.injected.Add(1)
			return nil // swallowed; the caller's deadline recovers
		case in.roll(r.ResetAfter):
			// The message goes out and its reply is lost. Marked before the
			// write, so no read, even one already blocked, returns a reply
			// that beats the close.
			c.t.injected.Add(1)
			c.lost.Store(true)
			defer c.Conn.Close()
		}
	}
	_, err := c.Conn.Write(msg)
	return err
}

// framer follows GIOP message boundaries through a byte stream cut at
// arbitrary points; got is 0 between messages.
type framer struct {
	hdr  [giop.HeaderSize]byte
	got  int // header bytes of the current message seen
	left int // body bytes of the current message still to come
}

// next takes the bytes at the front of b (non-empty) that belong to the
// current message. A header that does not parse is its receiver's to
// reject; here it is a message of its own.
func (f *framer) next(b []byte) int {
	n := 0
	if f.got < giop.HeaderSize {
		n = copy(f.hdr[f.got:], b)
		if f.got += n; f.got < giop.HeaderSize {
			return n
		}
		h, _ := giop.ParseHeader(&f.hdr)
		f.left = int(h.Size)
	}
	k := min(f.left, len(b)-n)
	if f.left -= k; f.left == 0 {
		f.got = 0
	}
	return n + k
}

// begins takes all of b and reports whether a message begins in it.
func (f *framer) begins(b []byte) (began bool) {
	for len(b) > 0 {
		began = began || f.got == 0
		b = b[f.next(b):]
	}
	return began
}
