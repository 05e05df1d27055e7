package orb

import (
	"net"
	"time"
)

// Transport is the ORB's one network seam: Listen binds the server-side
// IIOP endpoint, DialTimeout opens client connections, and a dial error
// reaches the caller as COMM_FAILURE. The default is TCP; internal/simnet
// supplies an in-memory one with virtual time, and a fault injector to wrap
// either. Addresses are "host:port" as in IORs; a Transport may read the
// host in its own namespace if its listeners report resolvable addresses.
type Transport interface {
	Listen(addr string) (net.Listener, error)
	DialTimeout(addr string, timeout time.Duration) (net.Conn, error)
}

// TCP is the default Transport: the host's real TCP stack.
type TCP struct{}

// Listen binds a TCP listener on addr.
func (TCP) Listen(addr string) (net.Listener, error) {
	return net.Listen("tcp", addr)
}

// DialTimeout opens a TCP connection to addr.
func (TCP) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}
