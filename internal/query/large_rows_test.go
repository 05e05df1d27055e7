package query_test

import (
	"context"
	"encoding/binary"
	"fmt"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/giop"
	"repro/internal/idl"
	"repro/internal/orb"
)

// wireLog is a Transport over TCP that keeps every byte its listener's
// connections write: what a member sends back to the federation.
type wireLog struct {
	mu      sync.Mutex
	streams []*[]byte
}

func (w *wireLog) Listen(addr string) (net.Listener, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &loggedListener{Listener: ln, log: w}, nil
}

func (w *wireLog) DialTimeout(addr string, timeout time.Duration) (net.Conn, error) {
	return net.DialTimeout("tcp", addr, timeout)
}

type loggedListener struct {
	net.Listener
	log *wireLog
}

func (l *loggedListener) Accept() (net.Conn, error) {
	nc, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.log.mu.Lock()
	defer l.log.mu.Unlock()
	out := new([]byte)
	l.log.streams = append(l.log.streams, out)
	return &loggedConn{Conn: nc, log: l.log, out: out}, nil
}

type loggedConn struct {
	net.Conn
	log *wireLog
	out *[]byte
}

func (c *loggedConn) Write(p []byte) (int, error) {
	c.log.mu.Lock()
	*c.out = append(*c.out, p...)
	c.log.mu.Unlock()
	return c.Conn.Write(p)
}

// wirePage is one cursor page a member sent: its size and row count.
type wirePage struct{ bytes, rows int }

// pages reads back every frame written since the last call and returns the
// cursor pages among the replies, and how many frames were GIOP 1.1
// fragments or flagged as continued by one.
func (w *wireLog) pages(t *testing.T) (pages []wirePage, fragments int) {
	t.Helper()
	w.mu.Lock()
	defer w.mu.Unlock()
	for _, s := range w.streams {
		b := *s
		for len(b) >= giop.HeaderSize {
			order := cdr.ByteOrder(b[6] & 1)
			size := int(binary.BigEndian.Uint32(b[8:12]))
			if order == cdr.LittleEndian {
				size = int(binary.LittleEndian.Uint32(b[8:12]))
			}
			if len(b) < giop.HeaderSize+size {
				break // the rest of this frame is still being written
			}
			body, typ, flags := b[giop.HeaderSize:giop.HeaderSize+size], giop.MsgType(b[7]), b[6]
			b = b[giop.HeaderSize+size:]
			if typ == 7 || flags&^1 != 0 {
				fragments++
				continue
			}
			if typ != giop.MsgReply {
				continue
			}
			d := cdr.NewDecoderAt(body, order, giop.HeaderSize)
			var rh giop.ReplyHeader
			if rh.Unmarshal(d) != nil || rh.Status != giop.ReplyNoException {
				continue
			}
			v, err := idl.UnmarshalAny(d)
			if err != nil {
				t.Fatalf("reply body: %v", err)
			}
			if p, ok := v.Get("page"); ok && p.Kind == idl.KindOctets {
				// A page is an encapsulation: its order octet, then the row
				// count at offset 4.
				page := p.Bytes()
				rows := binary.BigEndian.Uint32(page[4:8])
				if page[0]&1 == byte(cdr.LittleEndian) {
					rows = binary.LittleEndian.Uint32(page[4:8])
				}
				pages = append(pages, wirePage{len(page), int(rows)})
			}
		}
		*s = (*s)[len(*s)-len(b):]
	}
	return pages, fragments
}

// largeRowText is row i's text: 4 KiB, or, for the one row past the page
// budget alone, 300 KiB.
func largeRowText(i int) string {
	if i == largeRows {
		return strings.Repeat("z", 300<<10)
	}
	return strings.Repeat(fmt.Sprintf("%04d", i), 1024)
}

const largeRows = 300

// TestLargeRowsCrossAsBudgetedPages: a member holding 300 rows of 4 KiB of
// text and one of 300 KiB, read over IIOP through a coalition statement and
// through a batch-0 native query. Every page it sends is at most
// giop.PageBudget, except the one-row page of the 300 KiB row; no frame is a
// GIOP 1.1 fragment, and both statements return every row whole. (A 64-row
// first page of such rows alone is above the budget. A writer that fragmented
// bodies above 256 KiB sent the batch-0 open's one 1.5 MB page as six frames.)
func TestLargeRowsCrossAsBudgetedPages(t *testing.T) {
	homeORB := orb.New(orb.Options{Product: orb.VisiBroker, DisableColocation: true})
	if err := homeORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(homeORB.Shutdown)
	home, err := core.NewNode(core.NodeConfig{
		Name: "Home", Engine: core.EngineOracle, ORB: homeORB,
		InformationType: "home records", Schema: "CREATE TABLE h (x INT);",
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.CoDB.DefineCoalition("Texts", "", "long texts"); err != nil {
		t.Fatal(err)
	}
	wire := &wireLog{}
	memberORB := orb.New(orb.Options{Product: orb.Orbix, Transport: wire})
	if err := memberORB.Listen("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(memberORB.Shutdown)
	var load strings.Builder
	load.WriteString("CREATE TABLE r (k VARCHAR(16) PRIMARY KEY, t TEXT);")
	for i := 0; i <= largeRows; i++ {
		fmt.Fprintf(&load, " INSERT INTO r VALUES ('k%03d', '%s');", i, largeRowText(i))
	}
	m, err := core.NewNode(core.NodeConfig{
		Name: "M", Engine: core.EngineOracle, ORB: memberORB,
		InformationType: "long texts", Schema: load.String(),
		Interface: []codb.ExportedType{{
			Name: "R",
			Functions: []codb.ExportedFunction{{
				Name: "T", Returns: "string", Table: "r", ResultColumn: "t", ArgColumn: "k",
			}},
		}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := home.CoDB.AddMember("Texts", m.Descriptor); err != nil {
		t.Fatal(err)
	}

	check := func(what string, min int) {
		t.Helper()
		pages, fragments := wire.pages(t)
		if fragments != 0 {
			t.Errorf("%s: %d fragment frame(s) on the wire", what, fragments)
		}
		rows, alone := 0, 0
		var sizes []int
		for _, p := range pages {
			rows += p.rows
			sizes = append(sizes, p.rows)
			switch {
			case p.bytes <= giop.PageBudget:
			case p.rows == 1:
				alone++
			default:
				t.Errorf("%s: a %d-row page of %d bytes, above the %d-byte budget", what, p.rows, p.bytes, giop.PageBudget)
			}
		}
		if rows != largeRows+1 || alone != 1 || len(pages) < min {
			t.Errorf("%s: %d page(s) carried %d row(s), %d of them alone above the budget; want %d rows, 1 alone, at least %d pages",
				what, len(pages), rows, alone, largeRows+1, min)
		}
		t.Logf("%s: %d pages of %v rows", what, len(pages), sizes)
	}

	ctx := context.Background()
	s := home.NewSession()
	resp, err := s.Execute(ctx, `T(R.K) On Coalition Texts;`)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Partial || len(resp.Result.Rows) != largeRows+1 {
		t.Fatalf("coalition statement: partial %v, %d rows; want every one of %d", resp.Partial, len(resp.Result.Rows), largeRows+1)
	}
	seen := map[string]bool{}
	for _, row := range resp.Result.Rows {
		seen[row[len(row)-1].Str] = true
	}
	for i := 0; i <= largeRows; i++ {
		if !seen[largeRowText(i)] {
			t.Fatalf("coalition statement: row %d's text is missing or cut", i)
		}
	}
	check("coalition statement", 7)

	resp, err = s.Execute(ctx, `Query M Using Native "SELECT k, t FROM r";`)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Result.Rows) != largeRows+1 {
		t.Fatalf("native query: %d rows, want %d", len(resp.Result.Rows), largeRows+1)
	}
	for _, row := range resp.Result.Rows {
		var i int
		if _, err := fmt.Sscanf(row[0].Str, "k%03d", &i); err != nil || row[1].Str != largeRowText(i) {
			t.Fatalf("native query: row %q is not as loaded (%d bytes of text)", row[0].Str, len(row[1].Str))
		}
	}
	check("batch-0 native query", 6)
}
