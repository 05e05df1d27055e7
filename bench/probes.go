package main

import (
	"bytes"
	"context"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cdr"
	"repro/internal/cursor"
	"repro/internal/gateway"
	"repro/internal/giop"
	"repro/internal/idl"
	"repro/internal/mdcache"
	"repro/internal/oodb"
	"repro/internal/orb"
	"repro/internal/wtl"
)

// Probes replay the workload's own inputs, single-threaded, against one
// layer's public entry point: the statement texts through the parser, the
// member fragments the planner produced (read from Session.Trace) through
// the engines, and the engines' result sets through CDR, GIOP framing and
// the cursor table. They say what a layer costs alone, with nothing else
// contending, so they bound what an optimisation of that layer can save.

// probeBudget is how long one probe measures after calibration. The tests
// lower it.
var probeBudget = 150 * time.Millisecond

// perCall times fn and returns nanoseconds per call: the median over seven
// batches, each sized to last probeBudget/7.
func perCall(fn func()) float64 {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		if el := time.Since(start); el >= probeBudget/7 || n >= 1<<24 {
			break
		}
		n *= 2
	}
	batch := make([]float64, 7)
	for b := range batch {
		start := time.Now()
		for i := 0; i < n; i++ {
			fn()
		}
		batch[b] = float64(time.Since(start)) / float64(n)
	}
	return median(batch)
}

// fragment is one member's share of a coalition statement, as planned.
type fragment struct {
	node   int
	native string
}

// probeInputs gathers what the probes replay from a block of generated ops:
// the distinct statement texts, and the member fragments they plan into.
func probeInputs(fx *fixture, ops []op) (texts []string, frags []fragment) {
	const maxTexts, maxStmts = 512, 48
	seen := map[string]bool{}
	var coalition []string
	for _, o := range ops {
		for _, s := range o.stmts {
			if seen[s.text] || len(texts) >= maxTexts {
				continue
			}
			seen[s.text] = true
			texts = append(texts, s.text)
			if s.kind == kCoalition && len(coalition) < maxStmts {
				coalition = append(coalition, s.text)
			}
		}
	}
	ctx := context.Background()
	for _, text := range coalition {
		sess := fx.nodes[0].NewSession()
		rows, err := sess.Stream(ctx, text)
		if err != nil {
			continue
		}
		rows.Close()
		for _, ev := range sess.Trace() {
			// "decomposed query on S1 (mSQL): SELECT v FROM r WHERE ..."
			rest, ok := strings.CutPrefix(ev.Msg, "decomposed query on ")
			if !ok {
				continue
			}
			name, rest, ok := strings.Cut(rest, " (")
			if !ok {
				continue
			}
			_, native, ok := strings.Cut(rest, "): ")
			if !ok {
				continue
			}
			for i := range fx.nodes {
				if nodeName(i) == name {
					frags = append(frags, fragment{node: i, native: native})
				}
			}
		}
	}
	return texts, frags
}

// runProbes returns the probe-based layer metrics.
func runProbes(fx *fixture, ops []op) map[string]float64 {
	out := map[string]float64{}
	texts, frags := probeInputs(fx, ops)

	i := 0
	out["wtl.parse_us_per_stmt"] = perCall(func() {
		if _, err := wtl.Parse(texts[i%len(texts)]); err != nil {
			panic(err)
		}
		i++
	}) / 1e3

	out["mdcache.get_hit_ns"] = probeMDCache(texts)
	out["orb.invoke_iiop_us"] = probeEcho(true)
	out["orb.invoke_colocated_us"] = probeEcho(false)

	// Engines, and the result sets the later probes chew on.
	var rel, oo []fragment
	for _, f := range frags {
		if fx.nodes[f.node].RelDB != nil {
			rel = append(rel, f)
		} else {
			oo = append(oo, f)
		}
	}
	if len(rel) > 0 {
		i = 0
		out["relational.exec_us_per_fragment"] = perCall(func() {
			f := rel[i%len(rel)]
			if _, err := fx.nodes[f.node].RelDB.Query(f.native); err != nil {
				panic(err)
			}
			i++
		}) / 1e3
	}
	if len(oo) > 0 {
		i = 0
		out["oodb.exec_us_per_fragment"] = perCall(func() {
			f := oo[i%len(oo)]
			if _, _, err := oodb.Query(fx.nodes[f.node].OODB, f.native); err != nil {
				panic(err)
			}
			i++
		}) / 1e3
	}

	// Reply messages in the cursor protocol's shape: batches of mergeBatch
	// rows, {rows, done}, cut from what the member fragments return.
	const mergeBatch = 64 // query.Config.MergeBufRows default
	var msgs []idl.Any
	var results [][]idl.Any
	rows := 0
	for _, f := range frags {
		if len(results) >= 24 {
			break
		}
		res := fragmentResult(fx, f)
		if res == nil {
			continue
		}
		items := make([]idl.Any, len(res.Rows))
		for i, row := range res.Rows {
			items[i] = idl.Seq(row...)
		}
		results = append(results, items)
		for lo := 0; lo < len(items); lo += mergeBatch {
			hi := min(lo+mergeBatch, len(items))
			msgs = append(msgs, idl.Struct(idl.F("rows", idl.Seq(items[lo:hi]...)), idl.F("done", idl.Bool(hi == len(items)))))
			rows += hi - lo
		}
	}
	if len(msgs) == 0 || rows == 0 {
		return out
	}
	encoded := make([][]byte, len(msgs))
	for i, m := range msgs {
		e := cdr.NewEncoder(cdr.BigEndian)
		m.Marshal(e)
		encoded[i] = append([]byte(nil), e.Bytes()...)
	}
	krows := float64(rows) / 1000
	out["cdr.encode_us_per_krow"] = perCall(func() {
		for _, m := range msgs {
			m.Marshal(cdr.NewEncoder(cdr.BigEndian))
		}
	}) / 1e3 / krows
	decodeAll := func() {
		for _, buf := range encoded {
			if _, err := idl.UnmarshalAny(cdr.NewDecoder(buf, cdr.BigEndian)); err != nil {
				panic(err)
			}
		}
	}
	out["cdr.decode_us_per_krow"] = perCall(decodeAll) / 1e3 / krows
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for _, m := range msgs {
		m.Marshal(cdr.NewEncoder(cdr.BigEndian))
	}
	decodeAll()
	runtime.ReadMemStats(&m1)
	out["cdr.allocs_per_msg"] = float64(m1.Mallocs-m0.Mallocs) / float64(len(msgs))

	// GIOP framing at the workload's median reply size.
	sort.Slice(encoded, func(i, j int) bool { return len(encoded[i]) < len(encoded[j]) })
	frame := &giop.Message{Type: giop.MsgReply, Order: cdr.BigEndian, Body: encoded[len(encoded)/2]}
	var wire bytes.Buffer
	out["giop.frame_us_per_msg"] = perCall(func() {
		wire.Reset()
		if err := giop.Write(&wire, frame); err != nil {
			panic(err)
		}
		m, err := giop.Read(&wire)
		if err != nil {
			panic(err)
		}
		m.Release()
	}) / 1e3

	// Cursor table: open, then fetch batch after batch to exhaustion.
	table := cursor.NewTable(0, 0, nil)
	batches := 0
	for _, items := range results {
		batches += (len(items) + mergeBatch - 1) / mergeBatch
	}
	out["cursor.fetch_us_per_batch"] = perCall(func() {
		for _, items := range results {
			id, _, done, err := table.Open(items, mergeBatch)
			for !done && err == nil {
				_, done, err = table.Fetch(id)
			}
			if err != nil {
				panic(err)
			}
		}
	}) / 1e3 / float64(max(batches, 1))
	return out
}

// fragmentResult runs one fragment through a gateway connection of the
// benchmark's own, yielding rows as they would cross the wire.
func fragmentResult(fx *fixture, f fragment) *gateway.Result {
	n := fx.nodes[f.node]
	var conn gateway.Conn
	var err error
	if n.RelDB != nil {
		drv := gateway.NewRelationalDriver(n.Config.Engine)
		if err = drv.Add(n.RelDB); err == nil {
			conn, err = drv.Open(n.Config.Name)
		}
	} else {
		drv := gateway.NewObjectDriver(n.Config.Engine)
		drv.Add(n.OODB)
		conn, err = drv.Open(n.Config.Name)
	}
	if err != nil {
		return nil
	}
	defer conn.Close()
	res, err := conn.Query(context.Background(), f.native)
	if err != nil {
		return nil
	}
	return res
}

// probeMDCache times a cache hit on a cache of the benchmark's own, keyed by
// the workload's statement texts.
func probeMDCache(keys []string) float64 {
	c := mdcache.New(mdcache.Options{TTL: time.Hour})
	ctx := context.Background()
	req := mdcache.Request{Fetch: func(context.Context) (any, error) { return 1, nil }}
	for _, k := range keys {
		c.Get(ctx, k, req)
	}
	i := 0
	return perCall(func() {
		if _, out, _ := c.Get(ctx, keys[i%len(keys)], req); out != mdcache.Hit {
			panic("mdcache probe: expected a hit")
		}
		i++
	})
}

// probeEcho times a 64-byte echo through an ORB of its own, over loopback
// IIOP or through the colocated fast path.
func probeEcho(iiop bool) float64 {
	o := orb.New(orb.Options{Product: orb.Orbix, DisableColocation: iiop})
	if err := o.Listen("127.0.0.1:0"); err != nil {
		panic(err)
	}
	defer o.Shutdown()
	iface := idl.MustParse("interface Echo { string echo(in string s); };")[0]
	ior, err := o.Activate("Echo", orb.NewHandler(iface).On("echo", func(args []idl.Any) (idl.Any, error) {
		return args[0], nil
	}))
	if err != nil {
		panic(err)
	}
	ref := o.Resolve(ior)
	arg := idl.String(strings.Repeat("x", 64))
	return perCall(func() {
		if _, err := ref.Invoke("echo", arg); err != nil {
			panic(err)
		}
	}) / 1e3
}
