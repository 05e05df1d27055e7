// Benchmarks backing the experiment series of EXPERIMENTS.md (B1-B5). The
// paper reports no quantitative tables, so these benches characterise the
// architecture's claims: the two-level organisation's scalability (B1), the
// colocated-vs-IIOP invocation split (B2), wire costs (B3), data-layer
// engine costs (B4), and metadata-vs-data query costs on the healthcare
// world (B5).
package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/cdr"
	"repro/internal/codb"
	"repro/internal/core"
	"repro/internal/gateway"
	"repro/internal/giop"
	"repro/internal/idl"
	"repro/internal/mdcache"
	"repro/internal/medworld"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/query"
	"repro/internal/relational"
	"repro/internal/wtl"
)

// ---- B3: wire costs ----

func benchPayload() idl.Any {
	return idl.Struct(
		idl.F("name", idl.String("Royal Brisbane Hospital")),
		idl.F("beds", idl.Long(850)),
		idl.F("types", idl.Strings([]string{"ResearchProjects", "PatientHistory", "MedicalStudents"})),
	)
}

func BenchmarkCDREncode(b *testing.B) {
	payload := benchPayload()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := cdr.NewEncoder(cdr.BigEndian)
		payload.Marshal(e)
	}
}

func BenchmarkCDRDecode(b *testing.B) {
	payload := benchPayload()
	e := cdr.NewEncoder(cdr.BigEndian)
	payload.Marshal(e)
	buf := e.Bytes()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := idl.UnmarshalAny(cdr.NewDecoder(buf, cdr.BigEndian)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGIOPRoundTrip(b *testing.B) {
	e := giop.NewBodyEncoder(cdr.BigEndian)
	(&giop.RequestHeader{
		RequestID: 1, ResponseExpected: true,
		ObjectKey: []byte("CoDatabase/RBH"), Operation: "find_coalitions",
	}).Marshal(e)
	benchPayload().Marshal(e)
	msg := &giop.Message{Type: giop.MsgRequest, Order: cdr.BigEndian, Body: e.Bytes()}
	var buf bytes.Buffer
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := giop.Write(&buf, msg); err != nil {
			b.Fatal(err)
		}
		m, err := giop.Read(&buf)
		if err != nil {
			b.Fatal(err)
		}
		m.Release()
	}
}

// ---- B2: colocated vs IIOP invocation ----

func newEchoORB(b *testing.B, disableColocation bool) (*orb.ORB, *orb.ObjectRef) {
	b.Helper()
	o := orb.New(orb.Options{Product: orb.Orbix, DisableColocation: disableColocation})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(o.Shutdown)
	iface := idl.MustParse("interface Echo { string echo(in string s); };")[0]
	h := orb.NewHandler(iface).On("echo", func(args []idl.Any) (idl.Any, error) {
		return args[0], nil
	})
	ior, err := o.Activate("Echo", h)
	if err != nil {
		b.Fatal(err)
	}
	return o, o.Resolve(ior)
}

func BenchmarkInvokeColocated(b *testing.B) {
	_, ref := newEchoORB(b, false)
	arg := idl.String("ping")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkInvokeIIOP(b *testing.B) {
	_, ref := newEchoORB(b, true)
	arg := idl.String("ping")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ref.Invoke("echo", arg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkInvokeIIOPParallel drives the same socket invocation from many
// concurrent callers. The client multiplexes them over one pipelined IIOP
// connection, so throughput should scale well past the serial
// BenchmarkInvokeIIOP number: callers overlap their round-trip latencies
// instead of queueing for a connection.
func BenchmarkInvokeIIOPParallel(b *testing.B) {
	_, ref := newEchoORB(b, true)
	arg := idl.String("ping")
	// Ensure at least 8 concurrent callers even on a single-core runner
	// (RunParallel starts SetParallelism × GOMAXPROCS goroutines).
	if p := runtime.GOMAXPROCS(0); p < 8 {
		b.SetParallelism((8 + p - 1) / p)
	}
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if _, err := ref.Invoke("echo", arg); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---- B4: data-layer engine costs ----

func benchSQLDB(b *testing.B, rows int) *relational.Database {
	b.Helper()
	db := relational.NewDatabase("bench", relational.DialectOracle)
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(32), grp INT)"); err != nil {
		b.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE g (grp INT PRIMARY KEY, label VARCHAR(16))"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < rows; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row-%d', %d)", i, i, i%10)); err != nil {
			b.Fatal(err)
		}
	}
	for g := 0; g < 10; g++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO g VALUES (%d, 'g%d')", g, g)); err != nil {
			b.Fatal(err)
		}
	}
	return db
}

func BenchmarkSQLInsert(b *testing.B) {
	db := relational.NewDatabase("bench", relational.DialectOracle)
	if _, err := db.Exec("CREATE TABLE t (id INT PRIMARY KEY, name VARCHAR(32))"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES (%d, 'row')", i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLPointSelect(b *testing.B) {
	db := benchSQLDB(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT name FROM t WHERE id = 2500"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLScanFilter(b *testing.B) {
	db := benchSQLDB(b, 5000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM t WHERE grp = 3"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLHashJoin(b *testing.B) {
	db := benchSQLDB(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT COUNT(*) FROM t JOIN g ON t.grp = g.grp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSQLGroupBy(b *testing.B) {
	db := benchSQLDB(b, 2000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := db.Query("SELECT grp, COUNT(*), AVG(id) FROM t GROUP BY grp"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkOODBExtentFilter(b *testing.B) {
	db := oodb.NewDB("bench")
	if _, err := db.DefineClass("C", "", oodb.Attribute{Name: "n", Type: oodb.AttrInt}); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		if _, err := db.NewObject("C", map[string]any{"n": i}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := oodb.Query(db, "SELECT n FROM C WHERE n >= 4990"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- Parsers ----

func BenchmarkSQLParse(b *testing.B) {
	const q = "SELECT a.funding, COUNT(*) FROM research_projects a JOIN x ON a.id = x.id WHERE a.title = 'AIDS and drugs' AND a.funding > 100 GROUP BY a.funding ORDER BY 1 LIMIT 10"
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := relational.ParseSQL(q); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWTLParse(b *testing.B) {
	const q = `Funding(ResearchProjects.Title, (ResearchProjects.Title = "AIDS and drugs")) On Royal Brisbane Hospital;`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := wtl.Parse(q); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- B5: metadata vs data queries on the Medical World ----

var (
	benchWorldOnce sync.Once
	benchWorld     *medworld.World
	benchWorldErr  error
)

func getBenchWorld(b *testing.B) *medworld.World {
	b.Helper()
	benchWorldOnce.Do(func() {
		benchWorld, benchWorldErr = medworld.Build()
	})
	if benchWorldErr != nil {
		b.Fatal(benchWorldErr)
	}
	return benchWorld
}

func BenchmarkMetaQuery(b *testing.B) {
	w := getBenchWorld(b)
	qut, _ := w.Node(medworld.QUT)
	s := qut.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), "Find Coalitions With Information Medical Research;"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataQuery(b *testing.B) {
	w := getBenchWorld(b)
	qut, _ := w.Node(medworld.QUT)
	s := qut.NewSession()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), `Query Royal Brisbane Hospital Using Native "select * from medical_students";`); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkDataQueryIIOP(b *testing.B) {
	w := getBenchWorld(b)
	rbh, _ := w.Node(medworld.RBH)
	client := orb.New(orb.Options{Product: orb.OrbixWeb, DisableColocation: true})
	b.Cleanup(client.Shutdown)
	ref, err := client.ResolveString(rbh.Descriptor.ISIRef)
	if err != nil {
		b.Fatal(err)
	}
	conn := gateway.NewRemoteConn(ref)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := conn.Query(context.Background(), "select * from medical_students"); err != nil {
			b.Fatal(err)
		}
	}
}

// ---- B2 (continued): coalition query decomposition, serial vs parallel ----

// slowConn is a gateway connection whose queries take a fixed wall-clock
// time, standing in for a remote member database reached over a WAN. It
// makes the fan-out benchmarks latency-bound rather than CPU-bound, which is
// the regime the parallel decomposition targets.
type slowConn struct {
	name  string
	delay time.Duration
}

func (c *slowConn) Query(_ context.Context, q string) (*gateway.Result, error) {
	time.Sleep(c.delay)
	return &gateway.Result{
		Columns: []string{"v"},
		Rows:    [][]idl.Any{{idl.String(c.name)}},
	}, nil
}
func (c *slowConn) QueryCursor(ctx context.Context, q string, batch int) (gateway.RowIter, error) {
	res, err := c.Query(ctx, q)
	if err != nil {
		return nil, err
	}
	return gateway.NewResultIter(res, batch), nil
}
func (c *slowConn) Close() error { return nil }

// buildSlowFed wires a coalition of n members whose ISIs answer after delay,
// returning a query processor homed on the coalition's co-database.
func buildSlowFed(b *testing.B, n int, delay time.Duration) *query.Processor {
	b.Helper()
	o := orb.New(orb.Options{Product: orb.Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(o.Shutdown)
	home := codb.New("slow-home")
	if err := home.DefineCoalition("SlowTopic", "", "synthetic slow members"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("slow-%02d", i)
		servant, _ := gateway.NewISIServant(&slowConn{name: name, delay: delay}, core.EngineMSQL, name, nil)
		ior, err := o.Activate("ISI/"+name, servant)
		if err != nil {
			b.Fatal(err)
		}
		d := &codb.SourceDescriptor{
			Name:   name,
			Engine: core.EngineMSQL,
			ISIRef: orb.Stringify(ior),
			Interface: []codb.ExportedType{{
				Name: "Records",
				Functions: []codb.ExportedFunction{{
					Name: "Fetch", Returns: "string", Table: "t", ResultColumn: "v",
				}},
			}},
		}
		if err := home.AddMember("SlowTopic", d); err != nil {
			b.Fatal(err)
		}
	}
	codbIOR, err := o.Activate("CoDatabase/slow-home", codb.NewServant(home))
	if err != nil {
		b.Fatal(err)
	}
	p, err := query.New(query.Config{
		ORB:       o,
		Home:      "slow-home",
		Local:     codb.NewClient(o.Resolve(codbIOR)),
		LocalCoDB: home,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkCoalitionFanOut measures coalition query decomposition with the
// member calls issued serially (FanOut=1, the pre-parallel behaviour) and in
// parallel (FanOut=0, bounded worker pool). The medworld pair runs the real
// healthcare federation in-process; the slowfed pair gives every member a
// fixed 2ms service time, so serial latency grows with the member count
// while parallel latency tracks the slowest member.
func BenchmarkCoalitionFanOut(b *testing.B) {
	const medQ = `Budget(Projects.Title) On Coalition Research;`
	runMed := func(b *testing.B, fanOut int) {
		w := getBenchWorld(b)
		qut, _ := w.Node(medworld.QUT)
		qut.Processor.SetFanOut(fanOut)
		b.Cleanup(func() { qut.Processor.SetFanOut(0) })
		s := qut.NewSession()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(context.Background(), medQ); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("medworld/serial", func(b *testing.B) { runMed(b, 1) })
	b.Run("medworld/parallel", func(b *testing.B) { runMed(b, 0) })

	const members = 8
	const delay = 2 * time.Millisecond
	const slowQ = `Fetch(Records.V) On Coalition SlowTopic;`
	runSlow := func(b *testing.B, fanOut int) {
		p := buildSlowFed(b, members, delay)
		p.SetFanOut(fanOut)
		s := p.NewSession()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := s.Execute(context.Background(), slowQ)
			if err != nil {
				b.Fatal(err)
			}
			if len(resp.Result.Rows) != members {
				b.Fatalf("rows = %d, want %d", len(resp.Result.Rows), members)
			}
		}
	}
	b.Run("slowfed/serial", func(b *testing.B) { runSlow(b, 1) })
	b.Run("slowfed/parallel", func(b *testing.B) { runSlow(b, 0) })
}

// buildFaultFed wires a coalition of n members, each ISI on its own ORB so
// fault rules can target individual member addresses. The returned client
// ORB (home side) has colocation disabled so every member call crosses the
// injectable transport.
func buildFaultFed(b *testing.B, n int, delay time.Duration) (*query.Processor, *orb.ORB, []string) {
	b.Helper()
	client := orb.New(orb.Options{Product: orb.Orbix, DisableColocation: true})
	if err := client.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(client.Shutdown)
	home := codb.New("fault-home")
	if err := home.DefineCoalition("FaultTopic", "", "synthetic faulty members"); err != nil {
		b.Fatal(err)
	}
	addrs := make([]string, n)
	for i := 0; i < n; i++ {
		mo := orb.New(orb.Options{Product: orb.Orbix})
		if err := mo.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(mo.Shutdown)
		name := fmt.Sprintf("fault-%02d", i)
		servant, _ := gateway.NewISIServant(&slowConn{name: name, delay: delay}, core.EngineMSQL, name, nil)
		ior, err := mo.Activate("ISI/"+name, servant)
		if err != nil {
			b.Fatal(err)
		}
		d := &codb.SourceDescriptor{
			Name:   name,
			Engine: core.EngineMSQL,
			ISIRef: orb.Stringify(ior),
			Interface: []codb.ExportedType{{
				Name: "Records",
				Functions: []codb.ExportedFunction{{
					Name: "Fetch", Returns: "string", Table: "t", ResultColumn: "v",
				}},
			}},
		}
		if err := home.AddMember("FaultTopic", d); err != nil {
			b.Fatal(err)
		}
		addrs[i] = mo.Addr()
	}
	codbIOR, err := client.Activate("CoDatabase/fault-home", codb.NewServant(home))
	if err != nil {
		b.Fatal(err)
	}
	p, err := query.New(query.Config{
		ORB:       client,
		Home:      "fault-home",
		Local:     codb.NewClient(client.Resolve(codbIOR)),
		LocalCoDB: home,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p, client, addrs
}

// BenchmarkCoalitionFanOutFaults measures coalition query decomposition
// when some members are unreachable: 8 members with 1ms service time, of
// which 0, 1 or 3 fail at connect. Degradation collects the survivors'
// rows, so throughput should stay close to the healthy case instead of
// collapsing (the dead members fail fast at the injected dial).
func BenchmarkCoalitionFanOutFaults(b *testing.B) {
	const members = 8
	const delay = time.Millisecond
	const q = `Fetch(Records.V) On Coalition FaultTopic;`
	for _, dead := range []int{0, 1, 3} {
		b.Run(fmt.Sprintf("dead=%d", dead), func(b *testing.B) {
			p, client, addrs := buildFaultFed(b, members, delay)
			if dead > 0 {
				rules := make([]orb.FaultRule, dead)
				for i := 0; i < dead; i++ {
					rules[i] = orb.FaultRule{Addr: addrs[i], FailConnect: 1}
				}
				client.SetFaultPlan(&orb.FaultPlan{Rules: rules})
			}
			s := p.NewSession()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := s.Execute(context.Background(), q)
				if err != nil {
					b.Fatal(err)
				}
				if len(resp.Result.Rows) != members-dead {
					b.Fatalf("rows = %d, want %d", len(resp.Result.Rows), members-dead)
				}
			}
		})
	}
}

// ---- B6: discovery with the federation metadata cache ----

// buildDiscoveryFed wires a home co-database whose coalition lists n peer
// members, each peer's co-database served from its own ORB — so stage-3
// discovery probes are genuine IIOP round trips, the traffic the metadata
// cache absorbs.
func buildDiscoveryFed(b *testing.B, n int, cache *mdcache.Cache) *query.Processor {
	b.Helper()
	o := orb.New(orb.Options{Product: orb.Orbix})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(o.Shutdown)
	home := codb.New("disc-home")
	if err := home.DefineCoalition("DiscTopic", "", "synthetic discovery members"); err != nil {
		b.Fatal(err)
	}
	for i := 0; i < n; i++ {
		po := orb.New(orb.Options{Product: orb.Orbix})
		if err := po.Listen("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		b.Cleanup(po.Shutdown)
		name := fmt.Sprintf("disc-%02d", i)
		peer := codb.New(name)
		if err := peer.DefineCoalition(fmt.Sprintf("Peer-%02d", i), "", "peer records"); err != nil {
			b.Fatal(err)
		}
		ior, err := po.Activate("CoDatabase/"+name, codb.NewServant(peer))
		if err != nil {
			b.Fatal(err)
		}
		d := &codb.SourceDescriptor{
			Name:    name,
			Engine:  core.EngineMSQL,
			CoDBRef: orb.Stringify(ior),
		}
		if err := home.AddMember("DiscTopic", d); err != nil {
			b.Fatal(err)
		}
	}
	codbIOR, err := o.Activate("CoDatabase/disc-home", codb.NewServant(home))
	if err != nil {
		b.Fatal(err)
	}
	p, err := query.New(query.Config{
		ORB:       o,
		Home:      "disc-home",
		Local:     codb.NewClient(o.Resolve(codbIOR)),
		LocalCoDB: home,
		Cache:     cache,
	})
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDiscoveryCached measures repeat-topic discovery over 8 remote
// coalition peers: cached (after one warm-up the resolve is answered from
// the metadata cache), and cached with concurrent sessions (hits plus
// singleflight coalescing under contention).
func BenchmarkDiscoveryCached(b *testing.B) {
	const peers = 8
	const q = "Find Coalitions With Information zebra;"
	run := func(b *testing.B, cache *mdcache.Cache) {
		p := buildDiscoveryFed(b, peers, cache)
		s := p.NewSession()
		// Warm-up resolve: populates the cache and faults in the peer
		// connections.
		if _, err := s.Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Execute(context.Background(), q); err != nil {
				b.Fatal(err)
			}
			s.Trace() // drain the layer trace, as an interactive caller would
		}
	}
	b.Run("cached", func(b *testing.B) {
		run(b, mdcache.New(mdcache.Options{TTL: time.Hour}))
	})
	b.Run("cached-parallel", func(b *testing.B) {
		p := buildDiscoveryFed(b, peers, mdcache.New(mdcache.Options{TTL: time.Hour}))
		if _, err := p.NewSession().Execute(context.Background(), q); err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		b.RunParallel(func(pb *testing.PB) {
			s := p.NewSession()
			for pb.Next() {
				if _, err := s.Execute(context.Background(), q); err != nil {
					b.Fatal(err)
				}
				s.Trace()
			}
		})
	})
}

// ---- B1: resolution latency vs federation size, two-level vs flat ----

func buildScaleFed(b *testing.B, n int, flat bool) (*core.Federation, *core.Node) {
	b.Helper()
	f, err := core.NewFederation()
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(f.Shutdown)
	const coalitionSize = 8
	names := make([]string, n)
	products := []orb.Product{orb.Orbix, orb.OrbixWeb, orb.VisiBroker}
	for i := 0; i < n; i++ {
		names[i] = fmt.Sprintf("db-%04d", i)
		if _, err := f.AddNode(products[i%3], core.NodeConfig{
			Name:            names[i],
			Engine:          core.EngineMSQL,
			InformationType: fmt.Sprintf("topic-%d records", i/coalitionSize),
			Schema:          "CREATE TABLE t (a INT);",
		}); err != nil {
			b.Fatal(err)
		}
	}
	if flat {
		if err := f.DefineCoalition("Everything", "", "all records", names...); err != nil {
			b.Fatal(err)
		}
	} else {
		for start := 0; start < n; start += coalitionSize {
			end := start + coalitionSize
			if end > n {
				end = n
			}
			if err := f.DefineCoalition(fmt.Sprintf("Topic-%d", start/coalitionSize), "",
				fmt.Sprintf("topic-%d records", start/coalitionSize), names[start:end]...); err != nil {
				b.Fatal(err)
			}
		}
	}
	home, _ := f.Node(names[0])
	return f, home
}

func benchResolution(b *testing.B, n int, flat bool) {
	_, home := buildScaleFed(b, n, flat)
	s := home.NewSession()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), "Find Coalitions With Information topic-0 records;"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkResolutionScaleTwoLevel(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchResolution(b, n, false) })
	}
}

func BenchmarkResolutionScaleFlat(b *testing.B) {
	for _, n := range []int{16, 64, 256} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) { benchResolution(b, n, true) })
	}
}

// BenchmarkWorldBuild measures the cost of assembling the full healthcare
// federation (28 databases, 3 ORBs, all wiring).
func BenchmarkWorldBuild(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		w, err := medworld.Build()
		if err != nil {
			b.Fatal(err)
		}
		w.Shutdown()
	}
}
