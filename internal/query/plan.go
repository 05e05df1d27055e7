package query

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"strconv"
	"strings"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/mdcache"
	"repro/internal/wtl"
)

// This file is the federated query planner. A coalition function query is
// decomposed into one fragment per exporting member; each fragment ships the
// predicate conjuncts (and, when safe, the statement's LIMIT) that the
// member's advertised engine can evaluate, and records the rest as residual
// work the coordinator compensates for over the fetched rows. Pushdown-on
// and pushdown-off plans select exactly the same rows — the pushdown axis
// only moves where predicates are evaluated — which the differential suite
// in internal/simtest checks across engines, seeds and fault schedules.

// fragmentExec is one renderable execution of a member fragment: the native
// query shipped to the engine plus whatever the coordinator must still do to
// the rows that come back.
type fragmentExec struct {
	Native      string          // rendered native query
	OQL         bool            // object-family rendering (drives residual semantics)
	Frag        wtl.Fragment    // source fragment, kept so a semi-join key set can re-render it
	Residual    []wtl.Condition // conjuncts compensated at the coordinator
	ResidualIdx []int           // fetch-column index of each residual conjunct
	NCols       int             // fetched columns (result column + residual columns)
	Pushed      int             // conjuncts shipped inside the fragment
	LimitPushed bool            // fragment carries the statement's LIMIT
	InPushed    bool            // fragment carries a semi-join IN key set
}

// memberPlan is one member's slice of a coalition plan: the capability-gated
// execution, and the bare full-compensation fallback used when the engine
// rejects a pushed clause its descriptor claimed it could evaluate.
type memberPlan struct {
	D    *codb.SourceDescriptor
	Fn   *codb.ExportedFunction
	Exec fragmentExec
	Bare fragmentExec
	// InListOK records, at plan time, whether the member's advertised engine
	// accepts a literal IN list — the gate for shipping a semi-join key set
	// into this member's fragment. Key sets are runtime data (they come from
	// the build side's rows), so the rendered IN fragment itself is never
	// cached; only this capability verdict is.
	InListOK bool
}

// queryPlan is a decomposed coalition function query. Plans are cached in
// the metadata cache (they derive purely from co-database metadata and the
// statement text) and shared across sessions, so they are read-only after
// construction.
type queryPlan struct {
	Coalition   string
	Function    string
	Limit       int
	Pushdown    bool
	Fingerprint uint64
	Members     []memberPlan
}

// oqlFamily reports whether a descriptor's fragments render as OQL,
// mirroring WrapperFor's wrapper-name-then-engine fallback.
func oqlFamily(d *codb.SourceDescriptor) bool {
	switch d.Wrapper {
	case "WebTassiliObjectStore", "WebTassiliOntos":
		return true
	case "WebTassiliOracle", "WebTassiliMSQL", "WebTassiliDB2", "WebTassiliSybase":
		return false
	}
	switch d.Engine {
	case "ObjectStore", "Ontos":
		return true
	}
	return false
}

// pushableCond decides whether one conjunct ships inside the fragment under
// a capability profile. The rule errs residual: a conjunct stays at the
// coordinator unless the engine advertises the operator AND the literal
// renders to something every target lexer reads back as the same value.
// Keeping the doubtful cases residual in BOTH modes is what makes
// pushdown-on and pushdown-off agree — a clause that one mode pushes into a
// syntax error and the other silently filters would diverge.
func pushableCond(c wtl.Condition, caps gateway.Capabilities) bool {
	if !caps.Predicates {
		return false
	}
	if c.Op == "LIKE" {
		// An unquoted pattern would render as a bare word; keep it local.
		return caps.Like && c.IsStr
	}
	if c.IsStr {
		return true
	}
	return numericLiteral(c.Value)
}

// numericLiteral reports whether a bare WebTassili literal renders as a
// number both dialect families' lexers accept (digits with at most one
// interior dot — no signs, no exponents; the OQL lexer takes nothing wider).
func numericLiteral(s string) bool {
	dot := false
	for i := 0; i < len(s); i++ {
		if s[i] == '.' && !dot && i > 0 && i < len(s)-1 {
			dot = true
			continue
		}
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return len(s) > 0
}

// buildFragmentExec splits resolved conjuncts into pushed and residual under
// a capability profile and renders the member's native fragment. Residual
// conjuncts widen the projection so the coordinator has the columns it needs
// to compensate; the LIMIT is pushed only when nothing is residual (a local
// filter after a pushed LIMIT would under-fetch).
func buildFragmentExec(d *codb.SourceDescriptor, fn *codb.ExportedFunction, conds []wtl.Condition, limit int, caps gateway.Capabilities) fragmentExec {
	var pushed, residual []wtl.Condition
	for _, c := range conds {
		if pushableCond(c, caps) {
			pushed = append(pushed, c)
		} else {
			residual = append(residual, c)
		}
	}
	cols := []string{fn.ResultColumn}
	idx := make([]int, len(residual))
	for i, c := range residual {
		at := -1
		for j, col := range cols {
			if strings.EqualFold(col, c.Column) {
				at = j
				break
			}
		}
		if at < 0 {
			cols = append(cols, c.Column)
			at = len(cols) - 1
		}
		idx[i] = at
	}
	frag := wtl.Fragment{Table: fn.Table, Columns: cols, Conds: pushed}
	if limit > 0 && caps.Limit && len(residual) == 0 {
		frag.Limit = limit
	}
	oql := oqlFamily(d)
	native := frag.SQL()
	if oql {
		native = frag.OQL()
	}
	return fragmentExec{
		Native:      native,
		OQL:         oql,
		Frag:        frag,
		Residual:    residual,
		ResidualIdx: idx,
		NCols:       len(cols),
		Pushed:      len(pushed),
		LimitPushed: frag.Limit > 0,
	}
}

// withInKeys re-renders an execution with a semi-join key restriction. The
// fragment copy shares the cached plan's condition slices (read-only) and
// only adds the IN conjunct, so cached plans stay immutable while key sets
// vary per statement.
func (ex *fragmentExec) withInKeys(column string, keys []wtl.KeyLiteral) *fragmentExec {
	out := *ex
	frag := ex.Frag
	frag.In = &wtl.InClause{Column: column, Keys: keys}
	out.Frag = frag
	if ex.OQL {
		out.Native = frag.OQL()
	} else {
		out.Native = frag.SQL()
	}
	out.InPushed = true
	return &out
}

// buildMemberPlan plans one member. With pushdown off the capability profile
// is zero, so Exec is already the bare fragment.
func buildMemberPlan(d *codb.SourceDescriptor, fn *codb.ExportedFunction, q *wtl.FuncQuery, pushdown bool) (memberPlan, error) {
	conds, err := resolveConds(fn, q.Preds)
	if err != nil {
		return memberPlan{}, err
	}
	var caps gateway.Capabilities
	if pushdown {
		caps = gateway.CapsFor(d.Engine)
	}
	mp := memberPlan{D: d, Fn: fn, InListOK: caps.InList}
	mp.Exec = buildFragmentExec(d, fn, conds, q.Limit, caps)
	if mp.Exec.Pushed == 0 && !mp.Exec.LimitPushed {
		mp.Bare = mp.Exec
	} else {
		mp.Bare = buildFragmentExec(d, fn, conds, 0, gateway.Capabilities{})
	}
	return mp, nil
}

// exportedFunction finds a function in a descriptor's exported interface.
func exportedFunction(d *codb.SourceDescriptor, name string) *codb.ExportedFunction {
	for i := range d.Interface {
		if f, ok := d.Interface[i].Function(name); ok {
			return f
		}
	}
	return nil
}

// buildCoalitionPlan decomposes the query over the members that export the
// function, in member order (so plan errors surface deterministically).
func buildCoalitionPlan(q *wtl.FuncQuery, members []*codb.SourceDescriptor, pushdown bool, fp uint64) (*queryPlan, error) {
	plan := &queryPlan{
		Coalition:   q.Source,
		Function:    q.Function,
		Limit:       q.Limit,
		Pushdown:    pushdown,
		Fingerprint: fp,
	}
	for _, d := range members {
		fn := exportedFunction(d, q.Function)
		if fn == nil {
			continue // members without the function do not participate
		}
		mp, err := buildMemberPlan(d, fn, q, pushdown)
		if err != nil {
			return nil, fmt.Errorf("query: %s: %w", d.Name, err)
		}
		plan.Members = append(plan.Members, mp)
	}
	if len(plan.Members) == 0 {
		return nil, fmt.Errorf("query: no member of coalition %s exports function %s", q.Source, q.Function)
	}
	return plan, nil
}

// planFingerprint keys a plan by the statement's rendered text and the
// pushdown mode — everything else a plan depends on (membership, exported
// interfaces) is covered by the metadata cache's versioning.
func planFingerprint(q *wtl.FuncQuery, pushdown bool) uint64 {
	h := fnv.New64a()
	io.WriteString(h, q.String())
	io.WriteString(h, "|pushdown=")
	io.WriteString(h, strconv.FormatBool(pushdown))
	return h.Sum64()
}

// cachedPlan builds (or replays) the coalition plan through the metadata
// cache, so repeat statements skip both the member-list fetch and the
// per-member capability split.
func (p *Processor) cachedPlan(ctx context.Context, entry *codb.Client, q *wtl.FuncQuery, pushdown bool) (*queryPlan, mdcache.Outcome, error) {
	fp := planFingerprint(q, pushdown)
	key := "plan|" + p.srcKey(entry) + "|" + strings.ToLower(q.Source) + "|" + strconv.FormatUint(fp, 16)
	return cached[*queryPlan](ctx, p, entry, key, func(ctx context.Context) (any, error) {
		members, _, err := p.cachedInstances(ctx, entry, q.Source)
		if err != nil {
			return nil, err
		}
		return buildCoalitionPlan(q, members, pushdown, fp)
	})
}
