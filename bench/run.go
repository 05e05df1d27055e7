package main

import (
	"context"
	"fmt"
	"os"
	"runtime/metrics"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/idl"
	"repro/internal/query"
)

// runner drives one fixture with one closed-loop client: an op starts only
// after the previous one has been answered and checked.
type runner struct {
	fx       *fixture
	rec      *recorder // nil on untraced runs
	cal      *calibrator
	refPerOp int   // refops in one reference sample
	refErr   error // the first refop that failed

	failed, stale int
	firstFailures []string
	cursorPeak    int // most cursors seen open at a first row (traced runs)
}

type opTiming struct {
	total    time.Duration
	firstRow time.Duration // last data statement: issue -> first Rows.Next
}

// runOp plays one op as one user would: fresh sessions, statements in
// order, every answer checked against the oracle. A statement that errors
// or answers wrongly fails the whole op.
func (r *runner) runOp(o *op) opTiming {
	var tm opTiming
	var opID uint64
	var opStart int64
	ctx := context.Background()
	if r.rec != nil {
		opID, opStart = r.rec.nextID(), r.rec.now()
	}
	start := time.Now()
	home := r.fx.nodes[0].NewSession()
	var away *query.Session
	failed, stale := false, false
	for i := range o.stmts {
		s := &o.stmts[i]
		sess := home
		if s.onFloater {
			if away == nil {
				away = r.fx.nodes[floater].NewSession()
			}
			sess = away
		}
		sctx, stmtID, stmtStart := ctx, uint64(0), int64(0)
		if r.rec != nil {
			stmtID, stmtStart = r.rec.nextID(), r.rec.now()
			sctx = context.WithValue(ctx, spanKey{}, spanCtx{op: opID, parent: stmtID})
		}
		first, verdict := r.runStmt(sctx, sess, s)
		if r.rec != nil {
			r.rec.add(span{ID: stmtID, Parent: opID, Op: opID, Kind: "stmt", Name: kindNames[s.kind],
				Start: stmtStart, End: r.rec.now(), Err: verdict != ""})
		}
		if s.kind == kNative || s.kind == kCoalition {
			tm.firstRow = first
		}
		switch verdict {
		case "":
		case "stale":
			stale = true
		default:
			failed = true
			if len(r.firstFailures) < 5 {
				r.firstFailures = append(r.firstFailures, s.text+" -> "+verdict)
			}
		}
		if failed {
			break
		}
	}
	tm.total = time.Since(start)
	if r.rec != nil {
		r.rec.add(span{ID: opID, Op: opID, Kind: "op", Name: "op", Start: opStart, End: r.rec.now(), Err: failed})
	}
	if failed {
		r.failed++
	} else if stale {
		r.stale++
	}
	return tm
}

// runStmt returns the time to the first row (data statements only) and a
// verdict: "" right, "stale" right under the previous membership, anything
// else is why the statement failed.
func (r *runner) runStmt(ctx context.Context, sess *query.Session, s *stmt) (time.Duration, string) {
	if s.kind != kNative && s.kind != kCoalition {
		resp, err := sess.Execute(ctx, s.text)
		if err != nil {
			return 0, err.Error()
		}
		switch s.kind {
		case kFind:
			got := ""
			if len(resp.Leads) > 0 {
				got = resp.Leads[0].Coalition
			}
			if got != s.lead {
				return 0, fmt.Sprintf("best lead %q, want %q", got, s.lead)
			}
		case kConnect:
			if sess.Coalition != "C" {
				return 0, "session not connected to C"
			}
		case kInstances:
			got := answer{n: len(resp.Names)}
			for _, name := range resp.Names {
				got.sum += hashStr(name)
			}
			return 0, s.judge(got)
		case kAccess:
			if resp.Descriptor == nil || resp.Descriptor.Name != s.source {
				return 0, "wrong descriptor"
			}
		}
		return 0, ""
	}
	issued := time.Now()
	rows, err := sess.Stream(ctx, s.text)
	if err != nil {
		return 0, err.Error()
	}
	defer rows.Close()
	var first time.Duration
	var got answer
	var src, val idl.Any
	for rows.Next() {
		if got.n == 0 {
			first = time.Since(issued)
			if r.rec != nil {
				r.sampleCursors()
			}
		}
		got.n++
		if s.kind == kNative { // engine rows: [v]
			err = rows.Scan(&val)
			got.sum += rowHash(0, val)
		} else { // merged rows: [source, value]
			err = rows.Scan(&src, &val)
			got.sum += rowHash(hashStr(src.Str), val)
		}
		if err != nil {
			return first, err.Error()
		}
	}
	if err := rows.Err(); err != nil {
		return first, err.Error()
	}
	if rows.Partial() {
		return first, "partial answer"
	}
	return first, s.judge(got)
}

func (s *stmt) judge(got answer) string {
	switch {
	case got == s.want:
		return ""
	case s.hasAlt && got == s.alt:
		return "stale"
	}
	return fmt.Sprintf("got %d rows (sum %x), want %d (sum %x)", got.n, got.sum, s.want.n, s.want.sum)
}

// sampleCursors reads how many server-side cursors the members of C hold
// open right now; called at a first row, when a streaming scan has them all.
func (r *runner) sampleCursors() {
	open := 0
	for _, n := range r.fx.nodes {
		open += n.CursorStats().Open
	}
	if open > r.cursorPeak {
		r.cursorPeak = open
	}
}

// blockStats is what one block of fixed work measured, as measured: nothing
// in it is divided by the block's speed yet.
type blockStats struct {
	lat, first []time.Duration // per op: whole op; last data statement to its first row
	wall       time.Duration   // the ops alone, without the reference samples between them
	cpuNs      int64
	allocBytes uint64
	stolen     float64 // share of the machine's CPU time the host took away
	speed      speed
}

// speed says how much slower than nominal (1 = nominal) the reference samples
// of a block ran. Each statistic of the ops is divided by the same statistic
// of the reference samples taken beside them: a median latency by the median
// sample, throughput (a mean) by the mean sample, CPU time by the samples'
// CPU time.
type speed struct{ p50, mean, cpu float64 }

// runBlock plays the ops one after the other and, after every op, one
// reference sample: refPerOp refops, about a fifth of the op's own time, so
// that the samples meet the same weather as the ops, slice by slice.
func (r *runner) runBlock(ops []op) blockStats {
	b := blockStats{lat: make([]time.Duration, len(ops)), first: make([]time.Duration, len(ops))}
	ref := make([]time.Duration, len(ops))
	var refCPU int64
	steal0, all0 := hostCPU()
	at, cpu, alloc := time.Now(), cpuTime(), allocBytes()
	for i := range ops {
		tm := r.runOp(&ops[i])
		b.lat[i], b.first[i] = tm.total, tm.firstRow
		at1, cpu1, alloc1 := time.Now(), cpuTime(), allocBytes()
		b.wall, b.cpuNs, b.allocBytes = b.wall+at1.Sub(at), b.cpuNs+cpu1-cpu, b.allocBytes+alloc1-alloc
		for k := 0; k < r.refPerOp; k++ {
			if err := r.cal.refop(); err != nil && r.refErr == nil {
				r.refErr = err
			}
		}
		at, cpu, alloc = time.Now(), cpuTime(), allocBytes()
		ref[i] = at.Sub(at1)
		refCPU += cpu - cpu1
	}
	steal1, all1 := hostCPU()
	b.stolen = ratio(steal1-steal0, all1-all0)
	perSample := float64(len(ops) * r.refPerOp)
	b.speed = speed{
		p50:  quantileMs(ref, 0.50) * 1e3 / (float64(r.refPerOp) * refNominalWallUs),
		mean: sumMs(ref) * 1e3 / perSample / refNominalWallUs,
		cpu:  float64(refCPU) / 1e3 / perSample / refNominalCPUUs,
	}
	return b
}

// summary is what a run reports of the blocks that count: latencies divided
// by their block's speed and pooled, so the p95 has a twentieth of all
// measured ops beyond it; throughput, CPU and allocation as totals over ops.
type summary struct {
	ops                                  int
	p50, p95, firstRowP50                float64 // ms
	throughput, cpuMsPerOp, allocKBPerOp float64
}

func summarise(blocks []blockStats) summary {
	var lat, first []float64
	var wallS, cpuMs, allocKB float64
	for _, b := range blocks {
		for i := range b.lat {
			lat = append(lat, ms(b.lat[i])/b.speed.p50)
			first = append(first, ms(b.first[i])/b.speed.p50)
		}
		wallS += b.wall.Seconds() / b.speed.mean
		cpuMs += float64(b.cpuNs) / 1e6 / b.speed.cpu
		allocKB += float64(b.allocBytes) / 1024
	}
	n := float64(len(lat))
	return summary{
		ops:          len(lat),
		p50:          quantile(lat, 0.50),
		p95:          quantile(lat, 0.95),
		firstRowP50:  quantile(first, 0.50),
		throughput:   n / wallS,
		cpuMsPerOp:   cpuMs / n,
		allocKBPerOp: allocKB / n,
	}
}

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func sumMs(d []time.Duration) (sum float64) {
	for _, x := range d {
		sum += ms(x)
	}
	return sum
}

// quantile sorts v in place and reads the nearest-rank quantile.
func quantile(v []float64, q float64) float64 {
	sort.Float64s(v)
	return v[min(int(q*float64(len(v))), len(v)-1)]
}

// quantileMs is quantile over a copy of d, in milliseconds.
func quantileMs(d []time.Duration, q float64) float64 {
	v := make([]float64, len(d))
	for i, x := range d {
		v[i] = ms(x)
	}
	return quantile(v, q)
}

func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// maxStolen is the share of the machine's CPU time the host may take away
// during a block before the block is left out of the per-run values.
const maxStolen = 0.05

// quietBlocks picks the measured blocks that count, by index: those during
// which the host stole less than maxStolen of the CPU time, or the three it
// stole least from when fewer than three qualify. Steal is the host running
// another guest on this machine's cores; it comes in bursts that stall
// whichever of op and reference sample is running, its tail most of all, and
// says nothing about the program. Where /proc/stat reports no steal every
// block counts.
func quietBlocks(bs []blockStats) []int {
	byStolen := make([]int, len(bs))
	for i := range byStolen {
		byStolen[i] = i
	}
	sort.SliceStable(byStolen, func(i, j int) bool { return bs[byStolen[i]].stolen < bs[byStolen[j]].stolen })
	n := sort.Search(len(byStolen), func(i int) bool { return bs[byStolen[i]].stolen >= maxStolen })
	return byStolen[:min(max(n, 3), len(byStolen))]
}

// cpuTime is the process's user+system CPU in nanoseconds: the client and
// all 13 nodes, since they share the process.
func cpuTime() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

// allocBytes is cumulative heap allocation (MemStats.TotalAlloc) read
// without stopping the world.
func allocBytes() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// hostCPU reads the machine's cumulative steal time and total CPU time, in
// clock ticks, from the first line of /proc/stat. Steal is time a virtual
// CPU was ready to run and the host ran someone else.
func hostCPU() (steal, all float64) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0
	}
	line, _, _ := strings.Cut(string(data), "\n")
	for i, f := range strings.Fields(line) {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil || i > 8 { // cpu user nice system idle iowait irq softirq steal
			continue
		}
		all += v
		if i == 8 {
			steal = v
		}
	}
	return steal, all
}

// rssPeakMB reads the process's resident-set high-water mark.
func rssPeakMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			fmt.Sscanf(strings.TrimSpace(rest), "%f", &kb)
			return kb / 1024
		}
	}
	return 0
}
