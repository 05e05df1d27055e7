package main

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
)

// The host this benchmark runs on is shared and changes speed: the same
// binary has run 1.45x slower for hours and +-10 % from one second to the
// next, with no steal reported (README.md, "Noise"). No statistic over a run
// averages out weather that outlasts the run, so every run carries its own
// yardstick: refop, a fixed piece of reference work that belongs to the
// benchmark and touches none of the program under test. A sample of refops
// follows every op, and a block's timings are divided by how much slower (or
// faster) than nominal its samples ran (run.go, speed). Four runs of browse
// spread over eight minutes of such weather differed by 24 % in op_p50_ms as
// measured and by 1.3 % after the division; README.md has the sweeps.
//
// A refop does in small what an op does: request/reply round trips between
// goroutines over loopback TCP on two connections at once (the machine has
// two cores), with rows encoded on one side and decoded into freshly
// allocated values on the other, so it feels the scheduler, the socket
// layer, the allocator, the collector and the caches the way the federation
// does.
const (
	refConns      = 2
	refRoundTrips = 4
	refRows       = 64

	// What one refop takes, wall and CPU, between ops on the machine the block
	// sizes were frozen on, in its quiet hours. They only fix the scale of the
	// reported timings; changing them changes every baseline.
	refNominalWallUs = 125.0
	refNominalCPUUs  = 165.0
)

// refPerOp is how many refops make the reference sample that follows one op:
// about a fifth of the op's own time, so a sample is stalled, pre-empted and
// slowed in proportion as an op of that length is, and the run spends a sixth
// to a fifth of its time on the yardstick.
var refPerOp = map[string]int{wBrowse: 2, wChurn: 2, wSelect: 16, wScan: 32}

type calibrator struct {
	ln    net.Listener
	conns []*refConn
	wg    sync.WaitGroup // server goroutines
}

type refConn struct {
	c   net.Conn
	r   *bufio.Reader
	buf []byte
}

func newCalibrator() (*calibrator, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cal := &calibrator{ln: ln}
	for i := 0; i < refConns; i++ {
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			cal.Close()
			return nil, err
		}
		cal.conns = append(cal.conns, &refConn{c: c, r: bufio.NewReader(c)})
		s, err := ln.Accept()
		if err != nil {
			cal.Close()
			return nil, err
		}
		cal.wg.Add(1)
		go func() {
			defer cal.wg.Done()
			defer s.Close()
			refServe(s)
		}()
	}
	return cal, nil
}

// Close hangs up; the servers see EOF and return.
func (cal *calibrator) Close() {
	for _, c := range cal.conns {
		c.c.Close()
	}
	cal.ln.Close()
	cal.wg.Wait()
}

// refServe answers each 8-byte request (the first row number) with refRows
// rows ('x<j>', j), length-prefixed, as a member ships a cursor batch.
func refServe(s net.Conn) {
	r := bufio.NewReader(s)
	var req [8]byte
	for {
		if _, err := io.ReadFull(r, req[:]); err != nil {
			return
		}
		from := binary.BigEndian.Uint64(req[:])
		reply := make([]byte, 4, 4+refRows*24)
		for j := from; j < from+refRows; j++ {
			key := "x" + strconv.FormatUint(j, 10)
			reply = binary.BigEndian.AppendUint32(reply, uint32(len(key)))
			reply = append(reply, key...)
			reply = binary.BigEndian.AppendUint64(reply, j)
		}
		binary.BigEndian.PutUint32(reply, uint32(len(reply)-4))
		if _, err := s.Write(reply); err != nil {
			return
		}
	}
}

type refRow struct {
	key string
	v   uint64
}

// refop runs one unit of reference work and checks what came back.
func (cal *calibrator) refop() error {
	errs := make(chan error, refConns)
	for _, c := range cal.conns {
		go func() { errs <- c.roundTrips() }()
	}
	var first error
	for range cal.conns {
		if err := <-errs; err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (c *refConn) roundTrips() error {
	for k := uint64(0); k < refRoundTrips; k++ {
		from := k * refRows
		var req [8]byte
		binary.BigEndian.PutUint64(req[:], from)
		if _, err := c.c.Write(req[:]); err != nil {
			return err
		}
		var head [4]byte
		if _, err := io.ReadFull(c.r, head[:]); err != nil {
			return err
		}
		n := int(binary.BigEndian.Uint32(head[:]))
		if cap(c.buf) < n {
			c.buf = make([]byte, n)
		}
		body := c.buf[:n]
		if _, err := io.ReadFull(c.r, body); err != nil {
			return err
		}
		rows := make([]refRow, 0, refRows)
		for len(body) > 0 {
			l := int(binary.BigEndian.Uint32(body))
			rows = append(rows, refRow{key: string(body[4 : 4+l]), v: binary.BigEndian.Uint64(body[4+l:])})
			body = body[4+l+8:]
		}
		var sum uint64
		for _, row := range rows {
			sum += hashStr(row.key) ^ row.v
		}
		if len(rows) != refRows || sum != refSums[k] {
			return fmt.Errorf("refop: reply to %d has %d rows, checksum %x", from, len(rows), sum)
		}
	}
	return nil
}

// refSums[k] is the checksum of the reply to round trip k.
var refSums = func() (sums [refRoundTrips]uint64) {
	for k := range sums {
		for j := uint64(k) * refRows; j < uint64(k+1)*refRows; j++ {
			sums[k] += hashStr("x"+strconv.FormatUint(j, 10)) ^ j
		}
	}
	return sums
}()
