// Command fedbench is the repository's session-level federation benchmark:
// one closed-loop client plays seeded WebTassili sessions against fed13, a
// 13-node federation whose nodes talk GIOP over loopback TCP, and reports
// end-to-end metrics (untraced run) or per-layer metrics (traced run).
// README.md in this directory says why each workload, size and metric was
// chosen; BENCHMARK.json at the repository root is the contract.
//
//	go run ./bench --workload browse --seed 1 --seconds 20 --trace 0
//	go run ./bench            # every workload, untraced then traced
//	go run ./bench -aa        # A/A check at half of every bound
//	go run ./bench -spread 10 # quartile spread over 10 seeds
//
// bench/run.sh, the contract's command, builds the same package into
// .bench_build/ and runs it.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

type metricDef struct{ name, unit string }

var endToEnd = []metricDef{
	{"op_p50_ms", "ms"},
	{"op_p95_ms", "ms"},
	{"first_row_p50_ms", "ms"},
	{"throughput_ops", "1/s"},
	{"cpu_ms_per_op", "ms"},
	{"alloc_kb_per_op", "KiB"},
	{"rss_peak_mb", "MiB"},
	{"setup_s", "s"},
}

var perLayer = []metricDef{
	{"wtl.parse_us_per_stmt", "us"},
	{"wtl.pool_hit_ratio", "ratio"},
	{"query.self_ms_per_op", "ms"},
	{"query.rows_moved_per_op", "count"},
	{"query.rows_delivered_per_op", "count"},
	{"query.pushed_per_op", "count"},
	{"query.compensated_per_op", "count"},
	{"query.early_stops_per_op", "count"},
	{"query.semijoin_keys_per_op", "count"},
	{"query.probe_rows_pruned_per_op", "count"},
	{"query.fallbacks_per_op", "count"},
	{"query.peak_merge_rows", "count"},
	{"query.plan_cache_hit_ratio", "ratio"},
	{"query.stale_answers_per_op", "count"},
	{"query.failed_share", "ratio"},
	{"mdcache.hit_ratio", "ratio"},
	{"mdcache.stale_per_op", "count"},
	{"mdcache.evictions_per_op", "count"},
	{"mdcache.get_hit_ns", "ns"},
	{"codb.servant_ms_per_op", "ms"},
	{"codb.calls_per_op", "count"},
	{"orb.calls_per_op", "count"},
	{"orb.bytes_per_op", "B"},
	{"orb.max_in_flight", "count"},
	{"orb.wire_ms_per_op", "ms"},
	{"orb.wire_blocking_share", "ratio"},
	{"orb.invoke_iiop_us", "us"},
	{"orb.invoke_colocated_us", "us"},
	{"cdr.encode_us_per_krow", "us"},
	{"cdr.decode_us_per_krow", "us"},
	{"cdr.allocs_per_msg", "count"},
	{"giop.frame_us_per_msg", "us"},
	{"giop.fragments_per_op", "count"},
	{"gateway.servant_ms_per_op", "ms"},
	{"gateway.calls_per_op", "count"},
	{"cursor.opened_per_op", "count"},
	{"cursor.fetches_per_op", "count"},
	{"cursor.rows_per_fetch", "count"},
	{"cursor.open_peak", "count"},
	{"cursor.fetch_us_per_batch", "us"},
	{"relational.exec_us_per_fragment", "us"},
	{"oodb.exec_us_per_fragment", "us"},
	{"relational.plancache_hit_ratio", "ratio"},
	{"gossip.msgs_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"ref.wall_factor", "ratio"},
	{"ref.cpu_factor", "ratio"},
}

// result is the last line of a run's standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type runConfig struct {
	workload string
	seed     int64
	seconds  int
	ops      int // ops per block; 0 takes the frozen count, scaled to seconds. The tests set it.
	traced   bool
	outDir   string // where a traced run writes its spans
}

// runOutput is a run's result plus what only the tests look at.
type runOutput struct {
	result
	opsPerBlock int
	seqHash     uint64
	spans       []span
	blocks      []blockStats // measured blocks, for the human-readable report
}

// processStart is where setup_s starts counting.
var processStart = time.Now()

// run measures one workload: set-up, a warm-up block, then fixed-work
// blocks. Untraced runs report the end-to-end metrics over the measured
// blocks the host left alone (see quietBlocks), every timing divided by how
// fast the machine ran the reference work beside it (see calib.go); traced
// runs report the per-layer metrics, as measured.
func run(cfg runConfig) (*runOutput, error) {
	if _, ok := blockOps[cfg.workload]; !ok {
		return nil, fmt.Errorf("unknown workload %q (have %v)", cfg.workload, workloadNames)
	}
	fx, err := buildFixture()
	if err != nil {
		return nil, err
	}
	defer fx.Close()
	cal, err := newCalibrator()
	if err != nil {
		return nil, err
	}
	defer cal.Close()
	n := cfg.ops
	if n == 0 {
		n = opsPerBlock(cfg.workload, cfg.seconds)
	}
	gen := newGenerator(cfg.workload, cfg.seed)
	r := &runner{fx: fx, cal: cal, refPerOp: refPerOp[cfg.workload]}
	built := time.Since(processStart)
	// Block 0 warms up and is discarded: connections are dialled, caches
	// filled. It is the last part of set-up, and its reference samples say
	// how fast the machine was during set-up.
	warm := r.runBlock(gen.block(n))
	if r.failed > 0 {
		return nil, fmt.Errorf("warm-up ops failed: %v", r.firstFailures)
	}
	r.stale = 0
	setupS := (built + warm.wall).Seconds() / warm.speed.mean
	out := &runOutput{result: result{Metrics: map[string]metric{}}, opsPerBlock: n}

	if !cfg.traced {
		for b := 1; b < blocks; b++ {
			out.blocks = append(out.blocks, r.runBlock(gen.block(n)))
		}
		var quiet []blockStats
		for _, i := range quietBlocks(out.blocks) {
			quiet = append(quiet, out.blocks[i])
		}
		sum := summarise(quiet)
		values := map[string]float64{
			"op_p50_ms":        sum.p50,
			"op_p95_ms":        sum.p95,
			"first_row_p50_ms": sum.firstRowP50,
			"throughput_ops":   sum.throughput,
			"cpu_ms_per_op":    sum.cpuMsPerOp,
			"alloc_kb_per_op":  sum.allocKBPerOp,
			"rss_peak_mb":      rssPeakMB(),
			"setup_s":          setupS,
		}
		for _, m := range endToEnd {
			out.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		out.Attempted = n * len(out.blocks)
	} else {
		// Two more untraced blocks as the overhead baseline, then the
		// interceptors go in and two blocks are traced.
		base := []blockStats{r.runBlock(gen.block(n)), r.runBlock(gen.block(n))}
		staleBefore := r.stale
		r.rec = newRecorder()
		r.rec.install(fx)
		before, start := fx.counters(), time.Now()
		traced := []blockStats{r.runBlock(gen.block(n)), r.runBlock(gen.block(n))}
		delta, elapsed := fx.counters().since(before), time.Since(start).Seconds()
		ops := 2 * n
		out.spans = r.rec.snapshot()
		r.rec = nil

		values := counterMetrics(delta, ops, elapsed)
		for k, v := range spanMetrics(out.spans) {
			values[k] = v
		}
		for k, v := range runProbes(fx, gen.block(n)) {
			values[k] = v
		}
		values["cursor.rows_per_fetch"] = ratio(values["query.rows_moved_per_op"], values["cursor.batches_per_op"])
		values["query.stale_answers_per_op"] = float64(r.stale-staleBefore) / float64(ops)
		values["query.failed_share"] = float64(r.failed) / float64(4*n)
		values["cursor.open_peak"] = float64(r.cursorPeak)
		values["trace.overhead_pct"] = 100 * (summarise(traced).p50/summarise(base).p50 - 1)
		// The span and probe times above are as measured; these say how fast
		// the machine was while they were, against the nominal speed the
		// end-to-end timings are scaled to.
		values["ref.wall_factor"] = (traced[0].speed.p50 + traced[1].speed.p50) / 2
		values["ref.cpu_factor"] = (traced[0].speed.cpu + traced[1].speed.cpu) / 2
		for _, m := range perLayer {
			out.Metrics[m.name] = metric{values[m.name], m.unit}
		}
		out.Attempted = 4 * n
		if cfg.outDir != "" {
			if err := writeJSONL(filepath.Join(cfg.outDir, "trace-"+cfg.workload+".jsonl"), out.spans); err != nil {
				return nil, err
			}
		}
	}
	if r.refErr != nil {
		return nil, r.refErr
	}
	out.Failed = r.failed
	out.Correct = r.failed == 0
	out.seqHash = gen.seqHash
	for _, f := range r.firstFailures {
		fmt.Fprintln(os.Stderr, "failed op:", f)
	}
	for name, m := range out.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return nil, fmt.Errorf("metric %s is not finite", name)
		}
	}
	return out, nil
}

func printRun(w io.Writer, cfg runConfig, out *runOutput) {
	defs, kind := endToEnd, "end-to-end, untraced"
	if cfg.traced {
		defs, kind = perLayer, "per-layer, traced"
	}
	fmt.Fprintf(w, "fedbench %s seed=%d: %s; fed13 over loopback TCP (not a link), closed loop, 1 client, GOMAXPROCS=%d\n",
		cfg.workload, cfg.seed, kind, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "  %d ops/block, %d ops attempted, %d failed\n", out.opsPerBlock, out.Attempted, out.Failed)
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %14.4f %-6s (n=%d ops)\n", d.name, out.Metrics[d.name].Value, d.unit, out.Attempted)
	}
	quiet := map[int]bool{}
	for _, i := range quietBlocks(out.blocks) {
		quiet[i] = true
	}
	for i, b := range out.blocks {
		left := ""
		if !quiet[i] {
			left = " (left out)"
		}
		n := float64(len(b.lat))
		fmt.Fprintf(w, "  block %d as measured: %.2fs p50 %.4f p95 %.4f first-row %.4f ms, %.1f ops/s, cpu %.4f ms/op; machine at %.3f (median) %.3f (mean) %.3f (cpu) of nominal, host stole %.1f%%%s\n",
			i+1, b.wall.Seconds(), quantileMs(b.lat, 0.50), quantileMs(b.lat, 0.95), quantileMs(b.first, 0.50),
			n/b.wall.Seconds(), float64(b.cpuNs)/1e6/n, b.speed.p50, b.speed.mean, b.speed.cpu, 100*b.stolen, left)
	}
}

// repoRoot finds the checkout from the working directory: the root itself
// (go run ./bench, bash bench/run.sh) or bench/ (go test).
func repoRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return dir, nil
		}
	}
	return "", fmt.Errorf("BENCHMARK.json not found: run from the repository root")
}

func fedbench(args []string) error {
	var cfg runConfig
	var trace int
	var aa bool
	var spread int
	fs := flag.NewFlagSet("fedbench", flag.ContinueOnError)
	fs.StringVar(&cfg.workload, "workload", "", "browse, scan, select or churn; empty runs all four, untraced then traced")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed of the op sequence")
	fs.IntVar(&cfg.seconds, "seconds", refSeconds, "run length the block op counts are scaled to")
	fs.IntVar(&trace, "trace", 0, "1: traced run, per-layer metrics; 0: untraced run, end-to-end metrics")
	fs.BoolVar(&aa, "aa", false, "A/A check: two sets of three runs per workload must agree within half of every bound")
	fs.IntVar(&spread, "spread", 0, "run N seeds per workload and print each metric's quartile spread against its bound")
	if err := fs.Parse(args); err != nil {
		return err
	}
	cfg.traced = trace != 0
	root, err := repoRoot()
	if err != nil {
		return err
	}
	cfg.outDir = filepath.Join(root, "bench", "out")

	switch {
	case aa:
		return aaCheck(root, cfg.seconds)
	case spread > 0:
		return spreadCheck(root, cfg.seconds, spread)
	case cfg.workload == "":
		return runAll(cfg)
	}
	out, err := run(cfg)
	if err != nil {
		return err
	}
	printRun(os.Stdout, cfg, out)
	line, err := json.Marshal(out.result)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

func main() {
	if err := fedbench(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "fedbench:", err)
		os.Exit(1)
	}
}
