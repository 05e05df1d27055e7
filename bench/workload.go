package main

import (
	"fmt"
	"math/rand"

	"repro/internal/idl"
)

// Workload names; later issues cite them.
const (
	wBrowse = "browse"
	wScan   = "scan"
	wSelect = "select"
	wChurn  = "churn"
)

var workloadNames = []string{wBrowse, wScan, wSelect, wChurn}

// blockOps is the frozen op count of one block at the reference run length
// (refSeconds): 1.5 to 2.5 s of ops and reference samples per block on the
// 2-core machine the benchmark was sized on, and twice that in its slow hours
// (README.md: the driver's time cap sets the size).
var blockOps = map[string]int{wBrowse: 1500, wChurn: 1300, wSelect: 180, wScan: 100}

const (
	refSeconds = 20
	blocks     = 8 // block 0 is warm-up and discarded
	// Latencies are pooled over the measured blocks, so at this floor the
	// run's p95 still has ten samples beyond it.
	minBlockOps = 30
	churnEvery  = 10 // every tenth churn op starts with a Join or a Leave
)

// opsPerBlock scales the frozen count to the requested run length.
func opsPerBlock(workload string, seconds int) int {
	return max(blockOps[workload]*seconds/refSeconds, minBlockOps)
}

const (
	fnvOffset = 14695981039346656037
	fnvPrime  = 1099511628211
)

type stmtKind uint8

const (
	kFind stmtKind = iota
	kConnect
	kInstances
	kAccess
	kNative
	kCoalition
	kJoin
	kLeave
)

var kindNames = [...]string{"find", "connect", "instances", "access", "native", "coalition", "join", "leave"}

// answer is the closed-form shape of a right answer: how many rows (or
// names) and an order-independent checksum over them.
type answer struct {
	n   int
	sum uint64
}

// stmt is one generated WebTassili statement with what the oracle expects
// of it. The system under test only ever sees text.
type stmt struct {
	kind      stmtKind
	text      string
	onFloater bool   // runs in a session of S12 rather than S0
	lead      string // kFind: coalition of the best lead, "" for none
	source    string // kAccess: the descriptor that must come back
	want      answer // kInstances, kNative, kCoalition
	// alt is the answer under the membership of C from before the latest
	// write. On churn a reader may legally still see it; the runner counts
	// such answers as stale, not failed.
	alt    answer
	hasAlt bool
}

type op struct{ stmts []stmt }

var topics = []struct{ text, lead string }{
	{"ledger archive", "C"}, // stage 1: local coalition, full match
	{"survey samples", "D"}, // stage 2: service link C->D
	{"records", "C"},        // member information type
	{"tides", ""},           // nothing matches: stage 3 probes every peer
	{"survey", "D"},
	{"ledger", "C"},
	{"samples", "D"},
	{"archive", "C"},
}

// generator turns a seed into the op sequence of one workload. Draws are
// Zipf, so a few topics, members and keys are hot and the tail is long.
type generator struct {
	workload  string
	rng       *rand.Rand
	topic     *rand.Zipf
	member    *rand.Zipf
	key       *rand.Zipf
	small     *rand.Zipf
	n         int  // ops generated so far
	floaterIn bool // S12 is currently a member of C
	seqHash   uint64
}

func newGenerator(workload string, seed int64) *generator {
	rng := rand.New(rand.NewSource(seed))
	return &generator{
		workload: workload,
		rng:      rng,
		topic:    rand.NewZipf(rng, 1.2, 1, uint64(len(topics)-1)),
		member:   rand.NewZipf(rng, 1.2, 1, coalitionC-1),
		key:      rand.NewZipf(rng, 1.1, 8, rowsPerMember-1),
		small:    rand.NewZipf(rng, 1.2, 1, 9),
		seqHash:  fnvOffset,
	}
}

func (g *generator) block(n int) []op {
	out := make([]op, n)
	for i := range out {
		out[i] = g.next()
		for _, s := range out[i].stmts {
			for j := 0; j < len(s.text); j++ {
				g.seqHash = (g.seqHash ^ uint64(s.text[j])) * fnvPrime
			}
		}
	}
	return out
}

func (g *generator) next() op {
	defer func() { g.n++ }()
	switch g.workload {
	case wBrowse:
		return op{g.browse(nil)}
	case wChurn:
		var pre []stmt
		if g.n%churnEvery == 0 {
			if g.floaterIn {
				pre = append(pre, stmt{kind: kLeave, text: "Leave Coalition C;", onFloater: true})
			} else {
				pre = append(pre, stmt{kind: kJoin, text: "Join Coalition C;", onFloater: true})
			}
			g.floaterIn = !g.floaterIn
		}
		return op{g.browse(pre)}
	case wScan:
		// Every op has the same shape, so the latency distribution has one
		// mode. All 12 000 rows of C cross the wire through cursors. mSQL
		// has no LIKE: the planner keeps that conjunct at the coordinator
		// for S1 and compensates over the rows S1 ships.
		t := int(g.small.Uint64())
		return op{[]stmt{g.coalition(fmt.Sprintf(`V(R.V, (R.K LIKE "x%%" AND R.V >= %d)) On Coalition C;`, t),
			rowSpec{lo: t, hi: rowsPerMember})}}
	case wSelect:
		// Equality pushdown; top-K with early cancellation; a semi-join
		// whose 20 build keys travel as IN lists to the members that take
		// one; a semi-join whose 68 keys are past the key limit (64) and
		// become a Bloom prefilter. Probe sides are 72-row windows of the
		// table, so few rows move and hardly any cursor pages: a
		// bulk-transfer gain must not show here.
		j := int(g.key.Uint64())
		from := int(g.key.Uint64()) % (rowsPerMember / 2)
		const window, inKeys, bloomKeys = 72, 20, 68
		lo := g.rng.Intn(rowsPerMember - window + 1)
		in := lo + g.rng.Intn(window-inKeys+1)
		bloom := lo + g.rng.Intn(window-bloomKeys+1)
		semiJoin := func(from, keys int) stmt {
			return g.coalition(fmt.Sprintf("V(R.K, (R.V >= %d AND R.V < %d)) On Coalition C SemiJoin V(R.V, (R.V >= %d AND R.V < %d)) On Coalition D;",
				lo, lo+window, from, from+keys), rowSpec{lo: from, hi: from + keys})
		}
		return op{[]stmt{
			g.coalition(fmt.Sprintf("V(R.K, (R.V = %d)) On Coalition C;", j), rowSpec{lo: j, hi: j + 1}),
			g.coalition(fmt.Sprintf("V(R.K, (R.V >= %d)) On Coalition C Limit 10;", from),
				rowSpec{lo: from, hi: rowsPerMember, limit: 10}),
			semiJoin(in, inKeys),
			semiJoin(bloom, bloomKeys),
		}}
	}
	panic("bench: unknown workload " + g.workload)
}

// browse is the paper's section 5 walkthrough: discover, connect, look
// around, then fetch from one member natively and from the whole coalition.
func (g *generator) browse(pre []stmt) []stmt {
	tp := topics[g.topic.Uint64()]
	m := int(g.member.Uint64())
	j := int(g.key.Uint64())
	inst := stmt{kind: kInstances, text: "Display Instances of Class C;", want: membersAnswer(g.floaterIn)}
	if g.workload == wChurn {
		inst.alt, inst.hasAlt = membersAnswer(!g.floaterIn), true
	}
	return append(pre,
		stmt{kind: kFind, text: "Find Coalitions With Information " + tp.text + ";", lead: tp.lead},
		stmt{kind: kConnect, text: "Connect To Coalition C;"},
		inst,
		stmt{kind: kAccess, text: "Display Access Information of Instance " + nodeName(m) + ";", source: nodeName(m)},
		stmt{kind: kNative, text: fmt.Sprintf(`Query %s Using Native "select v from r where k = '%s'";`, nodeName(m), rowKey(m, j)),
			want: answer{1, rowHash(0, idl.Long(int64(j)))}},
		g.coalition(fmt.Sprintf("V(R.K, (R.V = %d)) On Coalition C;", j), rowSpec{lo: j, hi: j + 1}),
	)
}

// coalition builds a function query over coalition C with its expected
// answer under the current membership (and, on churn, the previous one).
func (g *generator) coalition(text string, spec rowSpec) stmt {
	s := stmt{kind: kCoalition, text: text, want: spec.answer(cMembers(g.floaterIn))}
	if g.workload == wChurn {
		s.alt, s.hasAlt = spec.answer(cMembers(!g.floaterIn)), true
	}
	return s
}

// membersAnswer is what Display Instances of Class C must list.
func membersAnswer(floaterIn bool) answer {
	var a answer
	for _, i := range cMembers(floaterIn) {
		a.n++
		a.sum += hashStr(nodeName(i))
	}
	return a
}

func cMembers(floaterIn bool) []int {
	m := []int{0, 1, 2, 3, 4, 5}
	if floaterIn {
		m = append(m, floater)
	}
	return m
}

// rowSpec describes the rows a function query V(...) selects at every
// member: v in [lo, hi), cut at limit rows in member order. It is evaluated against the fixture's generating rule, never
// against the system.
type rowSpec struct {
	lo, hi int
	limit  int
}

var answerCache = map[string]answer{}

func (r rowSpec) answer(members []int) answer {
	key := fmt.Sprint(r, members)
	if a, ok := answerCache[key]; ok {
		return a
	}
	var a answer
	for _, i := range members {
		src := hashStr(nodeName(i))
		for j := r.lo; j < r.hi && j < rowsPerMember; j++ {
			if r.limit > 0 && a.n == r.limit {
				break
			}
			a.n++
			a.sum += rowHash(src, idl.Long(int64(j)))
		}
	}
	answerCache[key] = a
	return a
}

// hashStr is FNV-1a, inlined so the per-row check allocates nothing.
func hashStr(s string) uint64 {
	h := uint64(fnvOffset)
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime
	}
	return h
}

// rowHash folds one result row (hashed source name, value) into a 64-bit
// word; answers sum these, so row order does not matter.
func rowHash(src uint64, v idl.Any) uint64 {
	x := src
	if v.Kind == idl.KindString {
		x ^= hashStr(v.Str)
	} else {
		x ^= uint64(v.Int) * 0x9e3779b97f4a7c15
	}
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}
