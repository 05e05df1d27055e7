package simtest

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/query"
	"repro/internal/trace"
)

// Oracle is the flat in-memory model the federation is compared against: a
// plain membership map, an ever-member map (to track where stale co-database
// copies exist), and the set of active partitions. It has no caches, no
// replication and no network — if the federation and the oracle disagree,
// the federation is wrong.
type Oracle struct {
	NumNodes int
	members  map[string]map[int]bool
	ever     map[string]map[int]bool
	parts    map[[2]int]bool
}

// NewOracle seeds the model from the initial topology.
func NewOracle(numNodes int, topology map[string][]int) *Oracle {
	o := &Oracle{
		NumNodes: numNodes,
		members:  map[string]map[int]bool{},
		ever:     map[string]map[int]bool{},
		parts:    map[[2]int]bool{},
	}
	for c, members := range topology {
		o.members[c] = map[int]bool{}
		o.ever[c] = map[int]bool{}
		for _, m := range members {
			o.members[c][m] = true
			o.ever[c][m] = true
		}
	}
	return o
}

// NodeName is the model's copy of the node naming scheme.
func (o *Oracle) NodeName(i int) string { return fmt.Sprintf("N%d", i) }

// CoalitionNames lists every coalition, sorted.
func (o *Oracle) CoalitionNames() []string {
	out := make([]string, 0, len(o.members))
	for c := range o.members {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}

// MembersOf lists a coalition's current members ordered by node name — the
// same lexicographic order codb.Members returns descriptors in.
func (o *Oracle) MembersOf(c string) []int {
	out := make([]int, 0, len(o.members[c]))
	for m := range o.members[c] {
		out = append(out, m)
	}
	sort.Slice(out, func(i, j int) bool {
		return o.NodeName(out[i]) < o.NodeName(out[j])
	})
	return out
}

// Member reports current membership.
func (o *Oracle) Member(c string, m int) bool { return o.members[c][m] }

// Ever reports whether the node was ever a member (and so may hold a stale
// local copy of the coalition after leaving).
func (o *Oracle) Ever(c string, m int) bool { return o.ever[c][m] }

// StaleFree reports that no node holds a stale copy of the coalition: every
// node that was ever a member still is. Joins are only generated into
// stale-free coalitions, where the entry-point search cannot land on an
// out-of-date member list.
func (o *Oracle) StaleFree(c string) bool {
	for m := range o.ever[c] {
		if !o.members[c][m] {
			return false
		}
	}
	return true
}

// Partitioned reports whether any link is down.
func (o *Oracle) Partitioned() bool { return len(o.parts) > 0 }

// PartitionedPair reports whether the link between two nodes is down.
func (o *Oracle) PartitionedPair(a, b int) bool {
	if a > b {
		a, b = b, a
	}
	return o.parts[[2]int{a, b}]
}

// Reachable reports whether a can call b (self-calls always succeed).
func (o *Oracle) Reachable(a, b int) bool { return a == b || !o.PartitionedPair(a, b) }

// Apply advances the model by one executed operation.
func (o *Oracle) Apply(op Op) {
	switch op.Kind {
	case OpJoin:
		if o.members[op.Coalition] == nil {
			o.members[op.Coalition] = map[int]bool{}
			o.ever[op.Coalition] = map[int]bool{}
		}
		o.members[op.Coalition][op.Node] = true
		o.ever[op.Coalition][op.Node] = true
	case OpLeave:
		delete(o.members[op.Coalition], op.Node)
	case OpPartition:
		a, b := op.Node, op.B
		if a > b {
			a, b = b, a
		}
		o.parts[[2]int{a, b}] = true
	case OpHealAll:
		o.parts = map[[2]int]bool{}
	}
}

// Violation is one invariant or model-conformance failure.
type Violation struct {
	Step      int
	Op        string
	Invariant string
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("step %d [%s] %s: %s", v.Step, v.Op, v.Invariant, v.Detail)
}

// RunResult is the outcome of one seeded model run.
type RunResult struct {
	Seed       int64
	Steps      int
	Log        []string // normalized per-step event log (determinism witness)
	Violations []Violation
}

// stepTimeout bounds each statement in wall time — a liveness backstop, not
// part of the model: simnet's auto-advancer resolves virtual waits in
// microseconds, so a statement hitting this deadline is itself a bug.
const stepTimeout = 30 * time.Second

// RunSeed builds a federation from the seed, drives `steps` generated
// operations through it serially, checks every response against the oracle
// and the cross-cutting invariants after each step, and returns the
// normalized event log plus any violations. The same seed and step count
// reproduce the identical log.
func RunSeed(cfg Config, steps int) (*RunResult, error) {
	fed, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	defer fed.Close()

	oracle := NewOracle(len(fed.Nodes), fed.Members)
	gen := NewGen(cfg.Seed)
	res := &RunResult{Seed: cfg.Seed, Steps: steps}

	for step := 0; step < steps; step++ {
		op := gen.Next(oracle)
		res.Log = append(res.Log, runStep(fed, oracle, step, op, res))
		fed.Settle(context.Background())
	}
	return res, nil
}

// runStep executes one operation, records violations into res, and returns
// the step's normalized log line.
func runStep(fed *Fed, oracle *Oracle, step int, op Op, res *RunResult) string {
	fail := func(invariant, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{
			Step: step, Op: op.String(), Invariant: invariant,
			Detail: fmt.Sprintf(format, args...),
		})
	}

	// Topology operations act on the simulated network directly.
	switch op.Kind {
	case OpPartition:
		fed.Partition(op.Node, op.B)
		oracle.Apply(op)
		return fmt.Sprintf("step %d | %s", step, op)
	case OpHealAll:
		fed.HealAll()
		oracle.Apply(op)
		return fmt.Sprintf("step %d | %s", step, op)
	}

	fed.Tracer.Reset()
	ctx, cancel := context.WithTimeout(context.Background(), stepTimeout)
	ctx, root := fed.Tracer.StartSpan(ctx, "simtest.step")
	sc, _ := trace.SpanContextOf(ctx)
	stmt := stmtFor(op)
	resp, err := fed.Nodes[op.Node].Session.Execute(ctx, stmt)
	root.End(err)
	cancel()

	checkExpectation(oracle, op, resp, err, fail)
	spans := fed.Tracer.Spans()
	checkTraceContinuity(op, spans, sc.Trace.String(), fail)
	if resp != nil {
		checkPartialAccounting(op, oracle, resp, fail)
	}
	checkCursorsReleased(fed, fail)
	if err == nil {
		oracle.Apply(op)
	}
	checkCacheCoherence(fed, oracle, fail)
	return logLine(step, op, resp, err)
}

// stmtFor renders the WebTassili statement an operation executes.
func stmtFor(op Op) string {
	switch op.Kind {
	case OpQuery, OpRemoteQuery:
		return fmt.Sprintf(`V(R.K, (R.K = "a")) On Coalition %s;`, op.Coalition)
	case OpInstances:
		return fmt.Sprintf("Display Instances of Class %s;", op.Coalition)
	case OpFindKnown, OpFindUnknown:
		return fmt.Sprintf("Find Coalitions With Information %s;", op.Topic)
	case OpJoin:
		return fmt.Sprintf("Join Coalition %s;", op.Coalition)
	case OpLeave:
		return fmt.Sprintf("Leave Coalition %s;", op.Coalition)
	}
	panic("simtest: no statement for " + op.String())
}

// checkExpectation compares one response against the oracle's prediction.
func checkExpectation(o *Oracle, op Op, resp *query.Response, err error, fail func(string, string, ...any)) {
	const inv = "model"
	issuer := o.NodeName(op.Node)
	switch op.Kind {
	case OpQuery, OpRemoteQuery:
		if err != nil {
			fail(inv, "coalition query failed: %v", err)
			return
		}
		members := o.MembersOf(op.Coalition)
		var reachable []int
		for _, m := range members {
			if o.Reachable(op.Node, m) {
				reachable = append(reachable, m)
			}
		}
		if len(resp.Members) != len(members) {
			fail(inv, "statuses for %d members, oracle says %d", len(resp.Members), len(members))
			return
		}
		for i, m := range members {
			st := resp.Members[i]
			if st.Member != o.NodeName(m) {
				fail(inv, "status[%d] is %s, oracle says %s", i, st.Member, o.NodeName(m))
				continue
			}
			if o.Reachable(op.Node, m) {
				if !st.OK() {
					fail(inv, "member %s reachable but failed: %s %s", st.Member, st.ErrClass, st.Err)
				}
			} else if st.ErrClass != "comm" {
				fail(inv, "member %s partitioned from %s but class = %q (want comm)",
					st.Member, issuer, st.ErrClass)
			}
		}
		if want := len(reachable) < len(members); resp.Partial != want {
			fail(inv, "Partial = %v, oracle says %v", resp.Partial, want)
		}
		if resp.Result == nil {
			fail(inv, "no merged result")
			return
		}
		if len(resp.Result.Rows) != len(reachable) {
			fail(inv, "%d merged rows, oracle says %d", len(resp.Result.Rows), len(reachable))
			return
		}
		for i, m := range reachable {
			row := resp.Result.Rows[i]
			if len(row) != 2 {
				fail(inv, "row %d has %d cells, want 2", i, len(row))
				continue
			}
			// idl string values render quoted; strip that for the compare.
			src := strings.Trim(fmt.Sprintf("%v", row[0]), `"`)
			val := fmt.Sprintf("%v", row[1])
			if src != o.NodeName(m) || val != fmt.Sprintf("%d", m) {
				fail(inv, "row %d = (%s, %s), oracle says (%s, %d)", i, src, val, o.NodeName(m), m)
			}
		}
	case OpInstances:
		if err != nil {
			fail(inv, "instances failed: %v", err)
			return
		}
		var want []string
		for _, m := range o.MembersOf(op.Coalition) {
			want = append(want, o.NodeName(m))
		}
		if got := strings.Join(resp.Names, ","); got != strings.Join(want, ",") {
			fail(inv, "instances = [%s], oracle says [%s]", got, strings.Join(want, ","))
		}
		if resp.Partial {
			fail(inv, "instances flagged partial")
		}
	case OpFindKnown:
		if err != nil {
			fail(inv, "find failed: %v", err)
			return
		}
		// The issuer is a current member: its local co-database matches the
		// coalition name with a full score, so discovery answers at stage 1
		// with exactly one lead and no peer probes.
		if len(resp.Leads) != 1 || resp.Leads[0].Coalition != op.Coalition ||
			resp.Leads[0].Score != 1.0 || resp.Leads[0].Via != "local" {
			fail(inv, "leads = %+v, oracle says one local full-score lead for %s", resp.Leads, op.Coalition)
		}
		if len(resp.Members) != 0 {
			fail(inv, "stage-1 discovery probed %d peers", len(resp.Members))
		}
	case OpFindUnknown:
		if err != nil {
			fail(inv, "find failed: %v", err)
			return
		}
		if len(resp.Leads) != 0 {
			fail(inv, "leads for unknown topic: %+v", resp.Leads)
		}
		if want := fmt.Sprintf("No coalitions found for information %q.", op.Topic); resp.Text != want {
			fail(inv, "text = %q, want %q", resp.Text, want)
		}
		// No partitions are active (generator invariant), so discovery probes
		// every other federation node exactly once and all answer.
		if len(resp.Members) != o.NumNodes-1 {
			fail(inv, "probed %d peers, oracle says %d", len(resp.Members), o.NumNodes-1)
		}
		for _, st := range resp.Members {
			if !st.OK() {
				fail(inv, "probe of %s failed: class=%s", st.Member, st.ErrClass)
			}
		}
	case OpJoin:
		if err != nil {
			fail(inv, "join failed: %v", err)
			return
		}
		if want := fmt.Sprintf("%s joined coalition %s.", issuer, op.Coalition); resp.Text != want {
			fail(inv, "text = %q, want %q", resp.Text, want)
		}
	case OpLeave:
		if err != nil {
			fail(inv, "leave failed: %v", err)
			return
		}
		if want := fmt.Sprintf("%s left coalition %s.", issuer, op.Coalition); resp.Text != want {
			fail(inv, "text = %q, want %q", resp.Text, want)
		}
	}
}

// logLine renders the normalized, replay-comparable record of one step: the
// operation, the response text, and each member status's identity flags —
// no durations, addresses or span IDs, which legitimately vary across runs.
func logLine(step int, op Op, resp *query.Response, err error) string {
	var b strings.Builder
	fmt.Fprintf(&b, "step %d | %s", step, op)
	if err != nil {
		fmt.Fprintf(&b, " | err=%v", err)
		return b.String()
	}
	fmt.Fprintf(&b, " | partial=%v", resp.Partial)
	if len(resp.Members) > 0 {
		var sts []string
		for _, m := range resp.Members {
			flags := m.ErrClass
			if m.Cached {
				flags += "+cached"
			}
			sts = append(sts, m.Member+":"+flags)
		}
		fmt.Fprintf(&b, " | members=%s", strings.Join(sts, ","))
	}
	fmt.Fprintf(&b, " | text=%q", resp.Text)
	return b.String()
}
