package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
	"time"
)

// The tests run every workload at 1/100 of its block size with short probes,
// so the whole file stays well under ten seconds.
func TestMain(m *testing.M) {
	probeBudget = 2 * time.Millisecond
	os.Exit(m.Run())
}

func loadContract(t *testing.T) *contract {
	t.Helper()
	c, err := readContract("..")
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// testConfig shrinks the workload's frozen block to 1/div of its op count.
func testConfig(workload string, seed int64, traced bool, div int) runConfig {
	return runConfig{workload: workload, seed: seed, seconds: refSeconds, ops: blockOps[workload] / div, traced: traced}
}

// Every workload emits exactly the contract's names, with the contract's
// units and finite values, and fails no op.
func TestWorkloadsEmitContract(t *testing.T) {
	c := loadContract(t)
	if c.RunSeconds != refSeconds {
		t.Errorf("run_seconds = %d, block sizes are frozen for %d", c.RunSeconds, refSeconds)
	}
	if len(c.Workloads) != len(workloadNames) {
		t.Fatalf("contract has %d workloads, benchmark %d", len(c.Workloads), len(workloadNames))
	}
	nameOK := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	seenName := map[string]bool{}
	for _, m := range append(append([]contractMetric{}, c.EndToEnd...), c.PerLayer...) {
		if !nameOK.MatchString(m.Name) {
			t.Errorf("metric name %q is outside the contract's alphabet", m.Name)
		}
		if seenName[m.Name] {
			t.Errorf("metric name %q is used twice", m.Name)
		}
		seenName[m.Name] = true
	}
	for i, w := range c.Workloads {
		if w.Name != workloadNames[i] {
			t.Fatalf("contract workload %d is %q, benchmark has %q", i, w.Name, workloadNames[i])
		}
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			cfg := testConfig(w.Name, 1, traced, 100)
			cfg.outDir = t.TempDir()
			out, err := run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.Name, traced, err)
			}
			// The report for people names every metric once, with its unit
			// and the sample count beside it.
			var report bytes.Buffer
			printRun(&report, cfg, out)
			for _, m := range want {
				line := regexp.MustCompile(`(?m)^\s+` + regexp.QuoteMeta(m.Name) + `\s+\S+ ` + regexp.QuoteMeta(m.Unit) + `\s+\(n=\d+ ops\)$`)
				if n := len(line.FindAll(report.Bytes(), -1)); n != 1 {
					t.Errorf("%s traced=%v: report has %d lines for %s", w.Name, traced, n, m.Name)
				}
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.Name, traced, out.Correct, out.Attempted, out.Failed)
			}
			if len(out.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, contract lists %d", w.Name, traced, len(out.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := out.Metrics[m.Name]
				switch {
				case !ok:
					t.Errorf("%s traced=%v: %s not emitted", w.Name, traced, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s has unit %q, contract says %q", w.Name, m.Name, got.Unit, m.Unit)
				case math.IsNaN(got.Value) || math.IsInf(got.Value, 0):
					t.Errorf("%s: %s = %v", w.Name, m.Name, got.Value)
				case !traced && got.Value <= 0:
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.Name, m.Name, got.Value)
				}
			}
			if traced {
				if v := out.Metrics["query.failed_share"].Value; v != 0 {
					t.Errorf("%s: query.failed_share = %v", w.Name, v)
				}
				checkSpans(t, w.Name, out.spans)
				written, err := os.ReadFile(filepath.Join(cfg.outDir, "trace-"+w.Name+".jsonl"))
				if err != nil {
					t.Fatal(err)
				}
				if lines := bytes.Count(written, []byte("\n")); lines != len(out.spans) {
					t.Errorf("%s: %d spans recorded, %d lines written", w.Name, len(out.spans), lines)
				}
			}
		}
	}
}

// checkSpans holds the trace to its shape: spans of one op share an id, a
// child lies inside its parent's interval (unless the parent call was
// cancelled or failed, in which case the servant may outlive it), and every
// servant span pairs with exactly one client span.
func checkSpans(t *testing.T, workload string, spans []span) {
	t.Helper()
	byID := map[uint64]*span{}
	for i := range spans {
		s := &spans[i]
		if byID[s.ID] != nil {
			t.Fatalf("%s: span id %d recorded twice", workload, s.ID)
		}
		byID[s.ID] = s
	}
	servants := map[uint64]int{}
	kinds := map[string]int{}
	for i := range spans {
		s := &spans[i]
		kinds[s.Kind]++
		if s.End < s.Start {
			t.Errorf("%s: span %d ends before it starts", workload, s.ID)
		}
		if s.Kind == "op" {
			if s.Op != s.ID {
				t.Errorf("%s: op span %d carries op id %d", workload, s.ID, s.Op)
			}
			continue
		}
		root, parent := byID[s.Op], byID[s.Parent]
		if root == nil || root.Kind != "op" {
			t.Errorf("%s: %s span %d belongs to no recorded op (%d)", workload, s.Kind, s.ID, s.Op)
			continue
		}
		if parent == nil {
			t.Errorf("%s: %s span %d has no parent (%d)", workload, s.Kind, s.ID, s.Parent)
			continue
		}
		if parent.Op != s.Op {
			t.Errorf("%s: span %d is in op %d, its parent in op %d", workload, s.ID, s.Op, parent.Op)
		}
		if !parent.Err && (s.Start < parent.Start || s.End > parent.End) {
			t.Errorf("%s: %s span %d [%d,%d] leaves its parent %s %d [%d,%d]", workload,
				s.Kind, s.ID, s.Start, s.End, parent.Kind, parent.ID, parent.Start, parent.End)
		}
		fits := false
		switch s.Kind {
		case "stmt":
			fits = parent.Kind == "op"
		case "client":
			fits = parent.Kind == "stmt" || parent.Kind == "server"
		case "server":
			fits = parent.Kind == "client"
			servants[s.Parent]++
		}
		if !fits {
			t.Errorf("%s: %s span %d hangs off a %s span", workload, s.Kind, s.ID, parent.Kind)
		}
	}
	for client, n := range servants {
		if n != 1 {
			t.Errorf("%s: client span %d has %d servant spans", workload, client, n)
		}
	}
	for _, kind := range []string{"op", "stmt", "client", "server"} {
		if kinds[kind] == 0 {
			t.Errorf("%s: trace has no %s span", workload, kind)
		}
	}
}

// Same seed, same statements and same rows; another seed, another sequence.
func TestDeterminism(t *testing.T) {
	a, err := run(testConfig(wScan, 7, true, 20))
	if err != nil {
		t.Fatal(err)
	}
	b, err := run(testConfig(wScan, 7, true, 20))
	if err != nil {
		t.Fatal(err)
	}
	if a.seqHash != b.seqHash {
		t.Errorf("seed 7 gave op-sequence hashes %x and %x", a.seqHash, b.seqHash)
	}
	for _, name := range []string{"query.rows_moved_per_op", "query.rows_delivered_per_op", "cursor.fetches_per_op"} {
		if x, y := a.Metrics[name].Value, b.Metrics[name].Value; x != y || x == 0 {
			t.Errorf("%s: %v then %v on the same seed", name, x, y)
		}
	}
	// TTL revalidation and gossip ride the same ORBs, so calls may differ a little.
	if x, y := a.Metrics["orb.calls_per_op"].Value, b.Metrics["orb.calls_per_op"].Value; math.Abs(x-y) > 0.02*x {
		t.Errorf("orb.calls_per_op: %v then %v on the same seed", x, y)
	}
	for _, w := range workloadNames {
		g7, g7again, g8 := newGenerator(w, 7), newGenerator(w, 7), newGenerator(w, 8)
		g7.block(50)
		g7again.block(50)
		g8.block(50)
		if g7.seqHash != g7again.seqHash {
			t.Errorf("%s: seed 7 generated two different sequences", w)
		}
		if g7.seqHash == g8.seqHash {
			t.Errorf("%s: seeds 7 and 8 generated the same sequence", w)
		}
	}
}

// A wrong answer fails the op; on churn the answer of the previous
// membership is right but counted as stale.
func TestOracleJudgesAnswers(t *testing.T) {
	fx, err := buildFixture()
	if err != nil {
		t.Fatal(err)
	}
	defer fx.Close()
	good := newGenerator(wSelect, 3).next()
	r := &runner{fx: fx}
	r.runOp(&good)
	if r.failed != 0 || r.stale != 0 {
		t.Fatalf("right answers judged failed=%d stale=%d: %v", r.failed, r.stale, r.firstFailures)
	}
	wrong := newGenerator(wSelect, 3).next()
	wrong.stmts[0].want.sum++
	r.runOp(&wrong)
	if r.failed != 1 {
		t.Errorf("a wrong checksum was not counted as a failed op")
	}
	short := newGenerator(wSelect, 3).next()
	short.stmts[1].want.n--
	r.runOp(&short)
	if r.failed != 2 {
		t.Errorf("a wrong row count was not counted as a failed op")
	}
	stale := newGenerator(wSelect, 3).next()
	s := &stale.stmts[2]
	s.alt, s.hasAlt = s.want, true
	s.want.n++
	r.runOp(&stale)
	if r.failed != 2 || r.stale != 1 {
		t.Errorf("previous-membership answer: failed=%d stale=%d, want 2 and 1", r.failed, r.stale)
	}
}

// The closed forms agree with a brute-force pass over the generating rule.
func TestRowSpecClosedForm(t *testing.T) {
	if got := (rowSpec{lo: 95, hi: 130}).answer(cMembers(false)); got.n != 6*35 {
		t.Errorf("range spec selects %d rows, want %d", got.n, 6*35)
	}
	if got := (rowSpec{lo: 5, hi: rowsPerMember, limit: 10}).answer(cMembers(true)); got.n != 10 {
		t.Errorf("limit spec selects %d rows", got.n)
	}
	if got := (rowSpec{lo: 1990, hi: 2010}).answer(cMembers(true)); got.n != 7*10 {
		t.Errorf("range past the table selects %d rows, want 70", got.n)
	}
}

func TestUnionAndQuartiles(t *testing.T) {
	if got := unionLen([]interval{{5, 10}, {0, 3}, {2, 6}, {20, 30}}, 1, 25); got != 14 {
		t.Errorf("unionLen = %d, want 14", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v", q1, q2, q3)
	}
}

// Self times come out of the span tree: statement minus calls, call minus
// servant, and the share of the op during which only the wire works.
func TestSpanMetrics(t *testing.T) {
	ms := int64(time.Millisecond)
	spans := []span{
		{ID: 1, Op: 1, Kind: "op", Start: 0, End: 10 * ms},
		{ID: 2, Parent: 1, Op: 1, Kind: "stmt", Start: 0, End: 10 * ms},
		{ID: 3, Parent: 2, Op: 1, Kind: "client", Key: "ISI/S1", Start: 1 * ms, End: 5 * ms},
		{ID: 4, Parent: 3, Op: 1, Kind: "server", Key: "ISI/S1", Start: 2 * ms, End: 4 * ms},
		{ID: 5, Parent: 2, Op: 1, Kind: "client", Key: "CoDatabase/S2", Start: 3 * ms, End: 8 * ms},
		{ID: 6, Parent: 5, Op: 1, Kind: "server", Key: "CoDatabase/S2", Start: 6 * ms, End: 7 * ms},
	}
	got := spanMetrics(spans)
	want := map[string]float64{
		"query.self_ms_per_op":      3,   // 10 - |[1,8]|
		"orb.wire_ms_per_op":        6,   // (4-2) + (5-1)
		"orb.wire_blocking_share":   0.4, // [1,2] [4,6] [7,8] of 10
		"codb.servant_ms_per_op":    1,
		"codb.calls_per_op":         1,
		"gateway.servant_ms_per_op": 2,
		"gateway.calls_per_op":      1,
		"cursor.fetches_per_op":     0,
	}
	for k, w := range want {
		if math.Abs(got[k]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", k, got[k], w)
		}
	}
}

// Blocks keep their frozen size at the contract's run length and never fall
// below the floor that leaves the run's pooled p95 ten samples beyond it.
func TestOpsPerBlock(t *testing.T) {
	if beyond := (blocks - 1) * minBlockOps / 20; beyond < 10 {
		t.Errorf("at the floor the p95 has %d samples beyond it", beyond)
	}
	for _, w := range workloadNames {
		if got := opsPerBlock(w, refSeconds); got != blockOps[w] || got < minBlockOps {
			t.Errorf("%s: %d ops per block at %d s, frozen %d, floor %d", w, got, refSeconds, blockOps[w], minBlockOps)
		}
		if got := opsPerBlock(w, 1); got != max(blockOps[w]/refSeconds, minBlockOps) {
			t.Errorf("%s: %d ops per block at 1 s", w, got)
		}
	}
}

// A block the machine ran at half speed reports what it would have measured
// at nominal speed: latencies by the median factor, throughput by the mean
// factor, CPU by the CPU factor; allocation is left alone.
func TestSummariseDividesBySpeed(t *testing.T) {
	block := func(slow float64) blockStats {
		b := blockStats{speed: speed{p50: slow, mean: 2 * slow, cpu: 4 * slow}}
		for i := 1; i <= 100; i++ {
			d := time.Duration(slow * float64(i) * float64(time.Millisecond))
			b.lat, b.first = append(b.lat, d), append(b.first, d/2)
		}
		b.wall = time.Duration(slow * 2 * float64(time.Second))
		b.cpuNs = int64(slow * 4 * 300e6)
		b.allocBytes = 100 * 2048
		return b
	}
	got := summarise([]blockStats{block(1), block(2)})
	want := summary{ops: 200, p50: 51, p95: 96, firstRowP50: 25.5, throughput: 100, cpuMsPerOp: 3, allocKBPerOp: 2}
	if got != want {
		t.Errorf("summarise = %+v, want %+v", got, want)
	}
}

// The reference work answers correctly on every connection, its samples
// give a usable speed, and Close leaves no server behind.
func TestCalibrator(t *testing.T) {
	cal, err := newCalibrator()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := cal.refop(); err != nil {
			t.Fatal(err)
		}
	}
	cal.Close() // waits for the servers
	if err := cal.refop(); err == nil {
		t.Error("a refop on a closed calibrator succeeded")
	}
}

// The modes that compare runs: a run's output splits into report and result,
// a failed op is an error, and the A/A and spread reports flag exactly the
// metrics that moved too far for their bound.
func TestCompareRuns(t *testing.T) {
	report, res, err := splitOutput([]byte("for people\n" + `{"correct":true,"attempted":7,"failed":0,"metrics":{"op_p50_ms":{"value":1.5,"unit":"ms"}}}` + "\n"))
	if err != nil || string(report) != "for people\n" || res.Attempted != 7 || res.Metrics["op_p50_ms"].Value != 1.5 {
		t.Errorf("splitOutput = %q, %+v, %v", report, res, err)
	}
	if _, _, err := splitOutput([]byte(`{"correct":false,"attempted":7,"failed":1,"metrics":{}}`)); err == nil {
		t.Error("a run with a failed op was accepted")
	}
	if _, _, err := splitOutput([]byte("no result line")); err == nil {
		t.Error("output without a result line was accepted")
	}

	c := loadContract(t)
	a, b, steady := map[string][]float64{}, map[string][]float64{}, map[string][]float64{}
	for _, m := range c.EndToEnd {
		a[m.Name] = []float64{100, 101, 99}
		b[m.Name] = []float64{100, 101, 99}
		steady[m.Name] = []float64{100, 100.1, 99.9, 100, 100.2, 99.8, 100, 100.1, 99.9, 100}
	}
	var out bytes.Buffer
	if bad := aaCompare(&out, c, wScan, a, b); bad != 0 {
		t.Errorf("identical sets: %d metrics flagged\n%s", bad, out.String())
	}
	if wide := spreadReport(&out, c, wScan, steady); wide != 0 {
		t.Errorf("steady runs: %d metrics flagged\n%s", wide, out.String())
	}
	// op_p50_ms moves by 60 % of its bound: past the A/A limit of half.
	moved := c.EndToEnd[0]
	b[moved.Name] = []float64{100 * (1 + 0.6*moved.Bound), 101 * (1 + 0.6*moved.Bound), 99 * (1 + 0.6*moved.Bound)}
	out.Reset()
	if bad := aaCompare(&out, c, wScan, a, b); bad != 1 || strings.Count(out.String(), "exceeds") != 1 {
		t.Errorf("one moved metric: %d flagged\n%s", bad, out.String())
	}
	// Quartiles of 1..10 are 2.75 and 8.25 around 5.5: a spread of 100 %.
	steady[moved.Name] = []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	steady["setup_s"] = steady[moved.Name] // exempt, as the driver exempts it
	out.Reset()
	if wide := spreadReport(&out, c, wScan, steady); wide != 1 {
		t.Errorf("one wide metric besides setup_s: %d flagged\n%s", wide, out.String())
	}

	layers := map[string]*result{}
	for _, w := range workloadNames {
		layers[w] = &result{Attempted: 4, Metrics: map[string]metric{}}
	}
	out.Reset()
	printLayerTable(&out, layers)
	for _, m := range c.PerLayer {
		if strings.Count(out.String(), "  "+m.Name+" ") != 1 {
			t.Errorf("per-layer table does not list %s once", m.Name)
		}
	}
}

func TestUnknownWorkloadIsAnError(t *testing.T) {
	if err := fedbench([]string{"--workload", "nope", "--seed", "1", "--seconds", "1", "--trace", "0"}); err == nil {
		t.Error("an unknown workload ran")
	}
}

// Blocks the host stole from are left out of the per-run values, but never
// so many that fewer than three remain.
func TestQuietBlocks(t *testing.T) {
	blocksWith := func(stolen ...float64) []blockStats {
		bs := make([]blockStats, len(stolen))
		for i, s := range stolen {
			bs[i] = blockStats{stolen: s}
		}
		return bs
	}
	kept := func(bs []blockStats) []int {
		ids := slices.Clone(quietBlocks(bs))
		sort.Ints(ids)
		return ids
	}
	for _, tc := range []struct {
		stolen []float64
		want   []int
	}{
		{[]float64{0, 0, 0, 0, 0, 0, 0}, []int{0, 1, 2, 3, 4, 5, 6}},
		{[]float64{0, 0.3, 0.01, 0.2, 0.04, 0.06, 0}, []int{0, 2, 4, 6}},
		{[]float64{0.4, 0.3, 0.1, 0.2, 0.04, 0.06, 0.5}, []int{2, 4, 5}},
		{[]float64{0.4, 0.3}, []int{0, 1}},
	} {
		if got := kept(blocksWith(tc.stolen...)); !slices.Equal(got, tc.want) {
			t.Errorf("stolen %v: kept blocks %v, want %v", tc.stolen, got, tc.want)
		}
	}
}
