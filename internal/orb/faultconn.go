package orb

import (
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// FaultPlan describes transport faults to inject on this ORB's client-side
// IIOP path: failed dials, added reply latency, silently dropped request
// frames, and mid-stream connection resets. Injection is deterministic for a
// given seed and call sequence, so chaos tests are reproducible. A plan only
// affects socket invocations; the colocated fast path bypasses the transport
// and therefore the plan.
//
// Plans are JSON-serialisable so a node process can load one from its config
// file or a -chaos flag.
type FaultPlan struct {
	// Seed feeds the plan's private PRNG. Zero selects seed 1, keeping the
	// zero value deterministic too.
	Seed int64 `json:"seed"`
	// Rules are matched in order against the endpoint being contacted; the
	// first matching rule applies. An Addr of "" matches every endpoint.
	Rules []FaultRule `json:"rules"`
}

// FaultRule is the faults injected for one endpoint.
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
	// LatencyMS is added to every read from the endpoint, delaying replies
	// (a slow or congested member). Milliseconds, for JSON friendliness.
	LatencyMS int `json:"latency_ms"`
	// Drop is the probability that an outbound request frame is silently
	// swallowed — the classic lost-datagram failure; the caller only recovers
	// through its deadline.
	Drop float64 `json:"drop"`
	// Reset is the probability that the connection is torn down (RST-style)
	// just before an outbound frame is written.
	Reset float64 `json:"reset"`
	// ResetAfter is the probability that the connection is closed right
	// after an outbound frame is written: the request is delivered and its
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

// faultInjector applies a FaultPlan. The PRNG and the per-endpoint dial
// counters sit behind one mutex; the injected sleep happens outside it.
type faultInjector struct {
	injected *Stats // FaultsInjected counter lives here

	mu    sync.Mutex
	rng   *rand.Rand
	plan  FaultPlan
	dials map[string]int
}

func newFaultInjector(plan FaultPlan, stats *Stats) *faultInjector {
	seed := plan.Seed
	if seed == 0 {
		seed = 1
	}
	return &faultInjector{
		injected: stats,
		rng:      rand.New(rand.NewSource(seed)),
		plan:     plan,
		dials:    make(map[string]int),
	}
}

// roll draws one Bernoulli sample under the injector's seeded PRNG.
func (fi *faultInjector) roll(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	fi.mu.Lock()
	defer fi.mu.Unlock()
	return fi.rng.Float64() < p
}

// dialFault decides whether the next dial to addr fails, returning the
// injected error or nil.
func (fi *faultInjector) dialFault(addr string) error {
	r := fi.plan.rule(addr)
	if r == nil {
		return nil
	}
	fi.mu.Lock()
	n := fi.dials[addr]
	fi.dials[addr] = n + 1
	failFirst := n < r.FailFirst
	var failProb bool
	if !failFirst && r.FailConnect > 0 {
		failProb = r.FailConnect >= 1 || fi.rng.Float64() < r.FailConnect
	}
	fi.mu.Unlock()
	if failFirst || failProb {
		fi.injected.FaultsInjected.Add(1)
		return &SystemException{Name: ExcCommFailure,
			Detail: fmt.Sprintf("dial %s: injected connect failure", addr)}
	}
	return nil
}

// faultConn injects per-frame faults around a live net.Conn. Latency is
// applied on the read path (delaying replies) rather than the write path, so
// a slow endpoint stalls only its own demux loop — the caller's deadline
// still bounds the wait, and writers to other endpoints are unaffected.
//
// The wrapper looks up the ORB's *current* injector and rule on every read
// and write rather than capturing them at dial time, so a plan swapped in by
// SetFaultPlan reaches connections already sitting in the pool. The plan of
// a live injector is immutable (only the PRNG and dial counters mutate,
// behind the injector's mutex), so the lock-free rule lookup is safe.
// Latency sleeps on the ORB's clock, which a virtual-time transport
// (orb.Sleeper, implemented by internal/simnet) redirects off the wall.
type faultConn struct {
	net.Conn
	orb  *ORB
	addr string
	lost atomic.Bool // a ResetAfter fired: nothing read from here on is returned
}

// activeRule returns the injector and rule currently governing this
// connection, or nil when no plan matches its endpoint.
func (c *faultConn) activeRule() (*faultInjector, *FaultRule) {
	fi := c.orb.injector()
	if fi == nil {
		return nil, nil
	}
	r := fi.plan.rule(c.addr)
	if r == nil {
		return nil, nil
	}
	return fi, r
}

func (c *faultConn) Read(p []byte) (int, error) {
	if _, r := c.activeRule(); r != nil && r.LatencyMS > 0 {
		c.orb.sleep(time.Duration(r.LatencyMS) * time.Millisecond)
	}
	n, err := c.Conn.Read(p)
	if c.lost.Load() {
		return 0, fmt.Errorf("injected connection reset")
	}
	return n, err
}

func (c *faultConn) Write(p []byte) (int, error) {
	fi, r := c.activeRule()
	if fi == nil {
		return c.Conn.Write(p)
	}
	if fi.roll(r.Reset) {
		fi.injected.FaultsInjected.Add(1)
		c.Conn.Close()
		return 0, fmt.Errorf("injected connection reset")
	}
	if fi.roll(r.Drop) {
		fi.injected.FaultsInjected.Add(1)
		return len(p), nil // frame swallowed; the caller's deadline recovers
	}
	if !fi.roll(r.ResetAfter) {
		return c.Conn.Write(p)
	}
	// The frame goes out; the reply it asks for is lost. The mark is set
	// before the write, so no read, even one already blocked, returns a
	// reply that beats the close.
	fi.injected.FaultsInjected.Add(1)
	c.lost.Store(true)
	defer c.Conn.Close()
	return c.Conn.Write(p)
}
