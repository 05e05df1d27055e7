package query

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/codb"
	"repro/internal/gateway"
	"repro/internal/idl"
	"repro/internal/mdcache"
	"repro/internal/orb"
	"repro/internal/trace"
	"repro/internal/wtl"
)

// Response is the outcome of one WebTassili statement. Text always carries
// a human-readable rendering; the typed fields carry the structured payload
// of the statement kind that produced it.
type Response struct {
	Stmt       wtl.Stmt
	Text       string
	Leads      []Lead
	Names      []string
	Sources    []*codb.SourceDescriptor
	Descriptor *codb.SourceDescriptor
	DocURL     string
	DocHTML    string
	Result     *gateway.Result
	Translated string // native query produced by the wrapper
	// RowsMoved counts the rows fetched from data sources to answer the
	// statement, before coordinator-side compensation and merging — the
	// cost pushdown and top-K early termination exist to shrink.
	RowsMoved int

	// Members reports the per-member outcome of every sub-call the statement
	// fanned out (coalition query decomposition, discovery peer probes) —
	// healthy and failed members alike, in member order.
	Members []MemberStatus
	// Partial is true when some fanned-out member failed or was skipped but
	// enough members answered for the statement to return a degraded result.
	Partial bool
}

// MemberStatus is the outcome of one coalition member's (or discovery
// peer's) sub-call within a statement.
type MemberStatus struct {
	Member   string        // member database name
	Ref      string        // reference contacted (ISI or co-database; "" = local)
	Attempts int           // transport attempts, transparent retries included
	Latency  time.Duration // wall-clock time this member's sub-call took
	ErrClass string        // "", "timeout", "comm", "breaker", "system", "user", "skipped", "limit"
	Err      string        // error message ("" on success)
	// Cached is true when the sub-call was answered from the metadata cache
	// (a hit, or coalesced onto another caller's in-flight fetch) without
	// its own probe fan-out.
	Cached bool
	// Stale is true when the member was unreachable (down, circuit-broken)
	// and an expired cache entry was served as the degraded answer.
	Stale bool
}

// OK reports whether the member answered.
func (m MemberStatus) OK() bool { return m.ErrClass == "" }

// classifyErr buckets a member failure for MemberStatus.ErrClass.
func classifyErr(err error) string {
	if err == nil {
		return ""
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		switch se.Name {
		case orb.ExcTransient:
			return "breaker"
		case orb.ExcCommFailure:
			if strings.Contains(se.Detail, "timed out") || strings.Contains(se.Detail, "context") {
				return "timeout"
			}
			return "comm"
		default:
			return "system"
		}
	}
	if errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled) {
		return "timeout"
	}
	return "user"
}

// Config wires a query processor to its node.
type Config struct {
	ORB  *orb.ORB
	Home string // home database name (users are users of a member database)
	// HomeDescriptor is advertised by Join Coalition statements.
	HomeDescriptor *codb.SourceDescriptor
	// Local is the client of the node's own co-database servant.
	Local *codb.Client
	// LocalCoDB, when the co-database is in-process, enables maintenance
	// statements (Create Coalition / Create Service Link) that the remote
	// interface intentionally restricts.
	LocalCoDB *codb.CoDatabase
	// Gateway opens DSN connections for sources without an ISI reference.
	Gateway *gateway.Manager
	// Cache, when set, caches federation metadata (coalition member lists,
	// source descriptors, peer probe results) across statements and
	// sessions. Data queries are never cached. nil disables caching.
	Cache *mdcache.Cache
	// Alive reports whether a peer node is believed reachable — the gossip
	// layer's failure detector, consulted by representative election so a
	// partitioned representative is skipped instead of timed out against.
	// nil treats every peer as alive.
	Alive func(node string) bool
}

// PlannerStats counts federated-planner and streaming-merge activity.
// Fields are cumulative since the processor was created; read them through
// Processor.PlannerStats.
type PlannerStats struct {
	Plans                int64 // coalition plans executed (cache hits included)
	PlanCacheHits        int64 // plans served from the metadata cache
	FragmentsPushed      int64 // predicate conjuncts shipped inside fragments
	FragmentsCompensated int64 // conjuncts evaluated at the coordinator
	LimitPushed          int64 // fragments that carried the statement LIMIT
	EarlyTerminations    int64 // fan-outs cancelled once the LIMIT was satisfied
	Fallbacks            int64 // bare-fragment retries after a pushdown rejection
	RowsMoved            int64 // rows fetched from members, pre-compensation
	RowsDelivered        int64 // rows returned to callers after merge/limit
	PeakMergeBuffered    int64 // most rows ever held in merge pages at once
	SemiJoins            int64 // coalition statements carrying a SemiJoin clause
	KeysPushed           int64 // build-side keys shipped to probe members in IN lists
	BloomPushed          int64 // semi-joins whose key set compressed to a Bloom filter
	ProbeRowsPruned      int64 // probe rows discarded by the coordinator key filter
	SemiJoinFallbacks    int64 // bare-fragment retries of rejected IN pushes
	RelayShards          int64 // sub-coalition shards routed through a representative
	RelayedProbes        int64 // member probes answered via a representative relay
	RelayFailovers       int64 // relay attempts abandoned for the next candidate
	RelayDirectFallbacks int64 // shards probed directly after every relay candidate failed
}

// plannerCounters is the processor's live (atomic) form of PlannerStats.
type plannerCounters struct {
	plans, planCacheHits                  atomic.Int64
	fragmentsPushed, fragmentsCompensated atomic.Int64
	limitPushed, earlyTerminations        atomic.Int64
	fallbacks, rowsMoved, rowsDelivered   atomic.Int64
	peakMergeBuffered                     atomic.Int64
	semiJoins, keysPushed, bloomPushed    atomic.Int64
	probeRowsPruned, semiJoinFallbacks    atomic.Int64
	relayShards, relayedProbes            atomic.Int64
	relayFailovers, relayDirectFallbacks  atomic.Int64
}

// raisePeak lifts the peak-merge-buffered gauge to v if it is higher than the
// recorded high-water mark.
func (c *plannerCounters) raisePeak(v int64) {
	for {
		p := c.peakMergeBuffered.Load()
		if v <= p || c.peakMergeBuffered.CompareAndSwap(p, v) {
			return
		}
	}
}

// Processor is the query layer of one WebFINDIT node.
type Processor struct {
	cfg Config

	// The fan-out width and degradation policy (SetFanOut, SetMemberPolicy)
	// change while sessions execute concurrently, so they live in atomics.
	fanOutN    atomic.Int32
	minMembers atomic.Int32
	memberTO   atomic.Int64 // nanoseconds
	// Reference-mode hooks, see the Set* methods below: the execution modes
	// and thresholds are not configuration (every node runs the defaults);
	// the differential suites flip them on live processors to obtain the
	// reference side of a comparison. Zero values are the production modes.
	pushdownOff atomic.Bool
	streamOff   atomic.Bool
	semijoinOff atomic.Bool
	mergeBuf    atomic.Int32 // 0 = defaultMergeWindow
	sjKeyLimit  atomic.Int32 // 0 = defaultSemiJoinKeyLimit
	subcoalN    atomic.Int32 // 0 = defaultSubCoalitionSize, negative = flat only

	stats plannerCounters

	// Memoized co-database clients keyed by stringified IOR, so the hot
	// discovery paths do not re-parse IORs and re-build clients on every
	// statement. Clients are stateless handles; sharing them is safe.
	clientMu sync.Mutex
	clients  map[string]*codb.Client

	// Memoized cache-key prefixes (srcKey) per canonical client: rendering
	// an IOR address hex-encodes the object key, which profiling shows is
	// the top allocator on a fully cached discovery, so it is paid once per
	// client instead of once per lookup.
	srcKeys sync.Map // *codb.Client -> string
}

// New creates a processor; ORB, Home and Local are required.
func New(cfg Config) (*Processor, error) {
	if cfg.ORB == nil || cfg.Local == nil || cfg.Home == "" {
		return nil, fmt.Errorf("query: Config needs ORB, Local and Home")
	}
	p := &Processor{cfg: cfg, clients: make(map[string]*codb.Client)}
	return p, nil
}

// alive consults the gossip failure detector; without one every peer is
// presumed reachable.
func (p *Processor) alive(node string) bool {
	if p.cfg.Alive == nil {
		return true
	}
	return p.cfg.Alive(node)
}

// PlannerStats snapshots the planner and streaming-merge counters.
func (p *Processor) PlannerStats() PlannerStats {
	return PlannerStats{
		Plans:                p.stats.plans.Load(),
		PlanCacheHits:        p.stats.planCacheHits.Load(),
		FragmentsPushed:      p.stats.fragmentsPushed.Load(),
		FragmentsCompensated: p.stats.fragmentsCompensated.Load(),
		LimitPushed:          p.stats.limitPushed.Load(),
		EarlyTerminations:    p.stats.earlyTerminations.Load(),
		Fallbacks:            p.stats.fallbacks.Load(),
		RowsMoved:            p.stats.rowsMoved.Load(),
		RowsDelivered:        p.stats.rowsDelivered.Load(),
		PeakMergeBuffered:    p.stats.peakMergeBuffered.Load(),
		SemiJoins:            p.stats.semiJoins.Load(),
		KeysPushed:           p.stats.keysPushed.Load(),
		BloomPushed:          p.stats.bloomPushed.Load(),
		ProbeRowsPruned:      p.stats.probeRowsPruned.Load(),
		SemiJoinFallbacks:    p.stats.semiJoinFallbacks.Load(),
		RelayShards:          p.stats.relayShards.Load(),
		RelayedProbes:        p.stats.relayedProbes.Load(),
		RelayFailovers:       p.stats.relayFailovers.Load(),
		RelayDirectFallbacks: p.stats.relayDirectFallbacks.Load(),
	}
}

// The planner's modes and thresholds are constants, not configuration: every
// node pushes predicates down, streams member results through cursors, ships
// semi-join keys, and relays discovery through representatives for large
// coalitions. The setters below exist for the differential suites
// (internal/simtest and this package's tests), which flip one axis on a live
// processor to obtain the reference side of a comparison and require
// identical answers from both; nothing else calls them. They are safe to
// call while sessions execute; in-flight statements keep the mode they
// started under.
const (
	// defaultMergeWindow is the first cursor page member sub-queries ask
	// for. Later pages double up to gateway.MaxPageRows, and a member runs
	// at most one page ahead of the coordinator — so a coalition scan
	// buffers at most members x 2 x gateway.MaxPageRows rows at the
	// coordinator, whatever its size.
	defaultMergeWindow = 64
	// defaultSemiJoinKeyLimit is the largest build-side key set pushed to
	// probe members as a literal IN list; larger sets compress into a Bloom
	// prefilter at the coordinator instead.
	defaultSemiJoinKeyLimit = 64
	// semiJoinBloomBits sizes that prefilter, in bits per build-side key
	// (~1% false positives, which cost wasted row transfer, never answers).
	semiJoinBloomBits = 10
	// defaultSubCoalitionSize is the coalition membership above which
	// stage-3 discovery shards the members and sends one relay_probe per
	// shard through an elected representative instead of probing each.
	defaultSubCoalitionSize = 32
)

// SetPushdown(false) selects the reference mode in which every member runs
// the bare fragment and the coordinator compensates for all predicates.
func (p *Processor) SetPushdown(on bool) { p.pushdownOff.Store(!on) }

// SetStreaming(false) selects the reference mode in which every member
// returns its whole fragment result in the opening round trip.
func (p *Processor) SetStreaming(on bool) { p.streamOff.Store(!on) }

// SetSemiJoin(false) selects the reference mode in which no key set is
// shipped: every probe row crosses the wire to the exact coordinator filter.
func (p *Processor) SetSemiJoin(on bool) { p.semijoinOff.Store(!on) }

// SetSubCoalitionSize overrides defaultSubCoalitionSize (0 restores it); a
// negative size selects the flat reference mode, which probes every member
// directly whatever the coalition's size.
func (p *Processor) SetSubCoalitionSize(n int) { p.subcoalN.Store(int32(n)) }

// SetMergeWindow overrides defaultMergeWindow (0 restores it), so small
// fixtures page through real multi-fetch cursors.
func (p *Processor) SetMergeWindow(rows int) { p.mergeBuf.Store(int32(rows)) }

// SetSemiJoinKeyLimit overrides defaultSemiJoinKeyLimit (0 restores it), so
// small fixtures reach the Bloom path.
func (p *Processor) SetSemiJoinKeyLimit(n int) { p.sjKeyLimit.Store(int32(n)) }

func (p *Processor) pushdownOn() bool  { return !p.pushdownOff.Load() }
func (p *Processor) streamingOn() bool { return !p.streamOff.Load() }
func (p *Processor) semiJoinOn() bool  { return !p.semijoinOff.Load() }

// subCoalitionSize returns the effective shard size: 0 when hierarchical
// routing is off.
func (p *Processor) subCoalitionSize() int {
	n := int(p.subcoalN.Load())
	if n == 0 {
		return defaultSubCoalitionSize
	}
	return max(n, 0)
}

// mergeBufRows returns the merge window: the rows of a member cursor's first
// page.
func (p *Processor) mergeBufRows() int {
	if n := p.mergeBuf.Load(); n > 0 {
		return int(n)
	}
	return defaultMergeWindow
}

// semiJoinKeyLimit returns the exact-push/Bloom crossover key count.
func (p *Processor) semiJoinKeyLimit() int {
	if n := p.sjKeyLimit.Load(); n > 0 {
		return int(n)
	}
	return defaultSemiJoinKeyLimit
}

// SetFanOut bounds the worker pool used to contact coalition members in
// parallel (peer discovery, coalition query decomposition, membership
// maintenance). 0 selects the default width (2×GOMAXPROCS, min 8); 1 forces
// a serial loop, which benchmarks and simulations use. Safe to call
// concurrently with running sessions; in-flight statements may use either
// width.
func (p *Processor) SetFanOut(n int) { p.fanOutN.Store(int32(n)) }

// SetMemberPolicy sets the degradation policy. minMembers is the quorum for
// coalition query decomposition: the statement succeeds (possibly partially)
// when at least this many members answer, and fails otherwise; 0 means 1 —
// any surviving member yields a partial result. memberTimeout bounds each
// member call so one slow member cannot hold the whole fan-out; 0 leaves
// only the caller's context deadline and the ORB's CallTimeout. Safe to call
// concurrently with running sessions; in-flight statements may observe
// either policy.
func (p *Processor) SetMemberPolicy(minMembers int, memberTimeout time.Duration) {
	p.minMembers.Store(int32(minMembers))
	p.memberTO.Store(int64(memberTimeout))
}

func (p *Processor) fanOutWidth() int             { return int(p.fanOutN.Load()) }
func (p *Processor) minMembersQuorum() int        { return int(p.minMembers.Load()) }
func (p *Processor) memberTimeout() time.Duration { return time.Duration(p.memberTO.Load()) }

// Session is one user's interactive context: the coalition they are
// connected to and the source they last selected. Sessions are not safe for
// concurrent use by multiple callers, but statements internally fan out to
// coalition members in parallel, so the trace buffer is mutex-protected.
type Session struct {
	p *Processor

	// Coalition is the currently connected coalition ("" before Connect).
	Coalition string
	// Source is the currently selected information source.
	Source string

	codbClient *codb.Client // co-database answering for the current coalition
	traceMu    sync.Mutex
	trace      []TraceEvent
	stmtStart  time.Time // start of the running statement (guards under traceMu)
}

// NewSession opens a session rooted at the node's local co-database.
func (p *Processor) NewSession() *Session {
	return &Session{p: p, codbClient: p.cfg.Local}
}

// TraceEvent is one entry of a session's layer trace: which layer spoke,
// what it did, and how far into the statement it happened.
type TraceEvent struct {
	Layer   string // "query", "communication", "meta-data", "data"
	Msg     string
	Elapsed time.Duration // time since the statement started
}

// String renders the event in the classic "<layer> layer: <msg>" form the
// browser UI and the shell print.
func (e TraceEvent) String() string { return e.Layer + " layer: " + e.Msg }

// Trace returns the accumulated layer trace (query, communication,
// meta-data, data) and clears it.
func (s *Session) Trace() []TraceEvent {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	t := s.trace
	s.trace = nil
	return t
}

func (s *Session) tracef(layer, format string, args ...any) {
	s.traceMsg(layer, fmt.Sprintf(format, args...))
}

// traceMsg appends a preformatted trace line. Hot paths that repeat fixed
// messages (cache-served discovery stages) use it to skip fmt formatting.
func (s *Session) traceMsg(layer, msg string) {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	var elapsed time.Duration
	if !s.stmtStart.IsZero() {
		elapsed = time.Since(s.stmtStart)
	}
	if s.trace == nil {
		// Trace() hands the buffer to the caller, so every statement starts
		// from nil; size the fresh buffer for a typical statement instead of
		// growing it append by append.
		s.trace = make([]TraceEvent, 0, 16)
	}
	s.trace = append(s.trace, TraceEvent{Layer: layer, Msg: msg, Elapsed: elapsed})
}

// markStmtStart anchors TraceEvent.Elapsed for the statement about to run.
func (s *Session) markStmtStart() {
	s.traceMu.Lock()
	defer s.traceMu.Unlock()
	s.stmtStart = time.Now()
}

// current returns the co-database client serving the session's context.
func (s *Session) current() *codb.Client {
	if s.codbClient != nil {
		return s.codbClient
	}
	return s.p.cfg.Local
}

// Execute parses and runs one WebTassili statement. Every ORB invocation the
// statement triggers — metadata lookups, peer probes, coalition fan-out,
// gateway/ISI calls — joins the caller's trace, and the context's deadline
// and cancellation bound the statement.
func (s *Session) Execute(ctx context.Context, src string) (*Response, error) {
	s.markStmtStart()
	stmt, err := wtl.Parse(src)
	if err != nil {
		return nil, err
	}
	s.tracef("query", "parsed %T", stmt)
	return s.execTimed(ctx, stmt)
}

// ExecuteStmt runs one parsed statement under a caller context. The whole
// statement runs inside a "query:<StmtType>" span; every stage below parents
// onto it.
func (s *Session) ExecuteStmt(ctx context.Context, stmt wtl.Stmt) (*Response, error) {
	s.markStmtStart()
	return s.execTimed(ctx, stmt)
}

func (s *Session) execTimed(ctx context.Context, stmt wtl.Stmt) (*Response, error) {
	ctx, sp := trace.StartSpan(ctx, stmtSpanName(stmt))
	resp, err := s.execStmt(ctx, stmt)
	sp.End(err)
	return resp, err
}

// stmtSpanName maps a statement to its span name without reflection or
// formatting (execTimed runs per statement, so this is on the hot path).
func stmtSpanName(stmt wtl.Stmt) string {
	switch stmt.(type) {
	case *wtl.FindCoalitions:
		return "query:FindCoalitions"
	case *wtl.Connect:
		return "query:Connect"
	case *wtl.DisplayCoalitions:
		return "query:DisplayCoalitions"
	case *wtl.DisplayLinks:
		return "query:DisplayLinks"
	case *wtl.DisplaySubClasses:
		return "query:DisplaySubClasses"
	case *wtl.DisplayInstances:
		return "query:DisplayInstances"
	case *wtl.DisplayDocument:
		return "query:DisplayDocument"
	case *wtl.DisplayAccessInfo:
		return "query:DisplayAccessInfo"
	case *wtl.DisplayInterface:
		return "query:DisplayInterface"
	case *wtl.SearchType:
		return "query:SearchType"
	case *wtl.FuncQuery:
		return "query:FuncQuery"
	case *wtl.NativeQuery:
		return "query:NativeQuery"
	case *wtl.CreateCoalition:
		return "query:CreateCoalition"
	case *wtl.CreateLink:
		return "query:CreateLink"
	case *wtl.JoinCoalition:
		return "query:JoinCoalition"
	case *wtl.LeaveCoalition:
		return "query:LeaveCoalition"
	}
	return "query:" + strings.TrimPrefix(fmt.Sprintf("%T", stmt), "*wtl.")
}

func (s *Session) execStmt(ctx context.Context, stmt wtl.Stmt) (*Response, error) {
	switch q := stmt.(type) {
	case *wtl.FindCoalitions:
		return s.execFind(ctx, q)
	case *wtl.Connect:
		return s.execConnect(ctx, q)
	case *wtl.DisplayCoalitions:
		return s.execCoalitions(ctx, q)
	case *wtl.DisplayLinks:
		return s.execLinks(ctx, q)
	case *wtl.DisplaySubClasses:
		return s.execSubClasses(ctx, q)
	case *wtl.DisplayInstances:
		return s.execInstances(ctx, q)
	case *wtl.DisplayDocument:
		return s.execDocument(ctx, q)
	case *wtl.DisplayAccessInfo:
		return s.execAccessInfo(ctx, q)
	case *wtl.DisplayInterface:
		return s.execInterface(ctx, q)
	case *wtl.SearchType:
		return s.execSearchType(ctx, q)
	case *wtl.FuncQuery:
		return s.execFuncQuery(ctx, q)
	case *wtl.NativeQuery:
		return s.execNativeQuery(ctx, q)
	case *wtl.CreateCoalition:
		return s.execCreateCoalition(q)
	case *wtl.CreateLink:
		return s.execCreateLink(q)
	case *wtl.JoinCoalition:
		return s.execJoin(ctx, q)
	case *wtl.LeaveCoalition:
		return s.execLeave(ctx, q)
	}
	return nil, fmt.Errorf("query: unsupported statement %T", stmt)
}

// ---- Connection and browsing ----

// execConnect provides a point of entry for a coalition: the session's
// subsequent Display queries run against the co-database that knows it.
func (s *Session) execConnect(ctx context.Context, q *wtl.Connect) (*Response, error) {
	client, err := s.p.coalitionEntry(ctx, s, q.Coalition)
	if err != nil {
		return nil, err
	}
	s.Coalition = q.Coalition
	s.codbClient = client
	return &Response{Stmt: q, Text: fmt.Sprintf("Connected to coalition %s.", q.Coalition)}, nil
}

// execCoalitions lists the coalitions of the session's current co-database.
func (s *Session) execCoalitions(ctx context.Context, q *wtl.DisplayCoalitions) (*Response, error) {
	s.tracef("communication", "invoke coalitions()")
	names, err := s.current().Coalitions(ctx)
	if err != nil {
		return nil, err
	}
	text := "No coalitions known here."
	if len(names) > 0 {
		text = "Known coalitions: " + strings.Join(names, ", ")
	}
	return &Response{Stmt: q, Names: names, Text: text}, nil
}

// execLinks lists the service links of the session's current co-database.
func (s *Session) execLinks(ctx context.Context, q *wtl.DisplayLinks) (*Response, error) {
	s.tracef("communication", "invoke links()")
	links, err := s.current().Links(ctx)
	if err != nil {
		return nil, err
	}
	if len(links) == 0 {
		return &Response{Stmt: q, Text: "No service links known here."}, nil
	}
	var b strings.Builder
	b.WriteString("Known service links:")
	var names []string
	for _, l := range links {
		names = append(names, l.Name)
		fmt.Fprintf(&b, "\n  %s: %s %q -> %s %q (%s)",
			l.Name, l.FromKind, l.From, l.ToKind, l.To, l.InfoType)
	}
	return &Response{Stmt: q, Names: names, Text: b.String()}, nil
}

func (s *Session) execSubClasses(ctx context.Context, q *wtl.DisplaySubClasses) (*Response, error) {
	s.tracef("communication", "invoke subclasses(%q)", q.Class)
	subs, err := s.current().SubCoalitions(ctx, q.Class, true)
	if err != nil {
		return nil, err
	}
	text := fmt.Sprintf("Class %s has no subclasses.", q.Class)
	if len(subs) > 0 {
		text = fmt.Sprintf("SubClasses of %s: %s", q.Class, strings.Join(subs, ", "))
	}
	return &Response{Stmt: q, Names: subs, Text: text}, nil
}

func (s *Session) execInstances(ctx context.Context, q *wtl.DisplayInstances) (*Response, error) {
	s.tracef("communication", "invoke instances(%q)", q.Class)
	members, err := s.current().Instances(ctx, q.Class)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(members))
	for i, m := range members {
		names[i] = m.Name
	}
	text := fmt.Sprintf("Class %s has no instances.", q.Class)
	if len(names) > 0 {
		text = fmt.Sprintf("Instances of %s:\n  %s", q.Class, strings.Join(names, "\n  "))
	}
	return &Response{Stmt: q, Sources: members, Names: names, Text: text}, nil
}

func (s *Session) execDocument(ctx context.Context, q *wtl.DisplayDocument) (*Response, error) {
	s.tracef("communication", "invoke document(%q)", q.Instance)
	url, html, err := s.current().Document(ctx, q.Instance)
	if err != nil {
		return nil, err
	}
	s.Source = q.Instance
	text := fmt.Sprintf("Documentation of %s: %s", q.Instance, url)
	return &Response{Stmt: q, DocURL: url, DocHTML: html, Text: text}, nil
}

func (s *Session) execAccessInfo(ctx context.Context, q *wtl.DisplayAccessInfo) (*Response, error) {
	s.tracef("communication", "invoke access_info(%q)", q.Instance)
	d, err := s.current().AccessInfo(ctx, q.Instance)
	if err != nil {
		return nil, err
	}
	s.Source = d.Name
	var b strings.Builder
	fmt.Fprintf(&b, "The database %s is located at %q and exports the following type(s):\n",
		d.Name, d.Location)
	for _, t := range d.Interface {
		b.WriteString(t.Declaration())
		b.WriteByte('\n')
	}
	return &Response{Stmt: q, Descriptor: d, Text: strings.TrimRight(b.String(), "\n")}, nil
}

func (s *Session) execInterface(ctx context.Context, q *wtl.DisplayInterface) (*Response, error) {
	s.tracef("communication", "invoke access_info(%q)", q.Instance)
	d, err := s.current().AccessInfo(ctx, q.Instance)
	if err != nil {
		return nil, err
	}
	s.Source = d.Name
	return &Response{
		Stmt:    q,
		Names:   d.InterfaceNames(),
		Text:    fmt.Sprintf("Interface of %s: %s", d.Name, strings.Join(d.InterfaceNames(), ", ")),
		Sources: []*codb.SourceDescriptor{d},
	}, nil
}

// matchesStructure checks that an exported type declares every attribute a
// structural search requires (by qualified or bare name; type must match
// when both sides give one).
func matchesStructure(et *codb.ExportedType, wants []wtl.Member) bool {
	for _, w := range wants {
		found := false
		for _, a := range et.Attributes {
			if !attrNameMatches(a.Name, w.Name) {
				continue
			}
			if w.Type != "" && a.Type != "" && !strings.EqualFold(a.Type, w.Type) {
				continue
			}
			found = true
			break
		}
		if !found {
			return false
		}
	}
	return true
}

// attrNameMatches compares attribute names, letting a bare name match the
// column part of a qualified one.
func attrNameMatches(have, want string) bool {
	if strings.EqualFold(have, want) {
		return true
	}
	hBase := have
	if _, c, ok := strings.Cut(have, "."); ok {
		hBase = c
	}
	wBase := want
	if _, c, ok := strings.Cut(want, "."); ok {
		wBase = c
	}
	return strings.EqualFold(hBase, wBase)
}

func (s *Session) execSearchType(ctx context.Context, q *wtl.SearchType) (*Response, error) {
	client := s.current()
	coalitions, err := client.Coalitions(ctx)
	if err != nil {
		return nil, err
	}
	var hits []*codb.SourceDescriptor
	seen := map[string]bool{}
	for _, c := range coalitions {
		members, err := client.Instances(ctx, c)
		if err != nil {
			continue
		}
		for _, m := range members {
			if seen[strings.ToLower(m.Name)] {
				continue
			}
			et, ok := m.Type(q.TypeName)
			if !ok {
				continue
			}
			if len(q.Structure) > 0 && !matchesStructure(et, q.Structure) {
				continue
			}
			seen[strings.ToLower(m.Name)] = true
			hits = append(hits, m)
		}
	}
	names := make([]string, len(hits))
	for i, h := range hits {
		names[i] = h.Name
	}
	text := fmt.Sprintf("No sources export type %s.", q.TypeName)
	if len(hits) > 0 {
		text = fmt.Sprintf("Sources exporting type %s: %s", q.TypeName, strings.Join(names, ", "))
	}
	return &Response{Stmt: q, Sources: hits, Names: names, Text: text}, nil
}

// ---- Data access ----

// lookupSource finds a descriptor in the current context, falling back to
// the local co-database.
func (s *Session) lookupSource(ctx context.Context, name string) (*codb.SourceDescriptor, error) {
	if name == "" {
		name = s.Source
	}
	if name == "" {
		return nil, fmt.Errorf("query: no source selected; name one with On or Display Access Information first")
	}
	if d, _, err := s.p.cachedAccessInfo(ctx, s.current(), name); err == nil {
		return d, nil
	}
	d, _, err := s.p.cachedAccessInfo(ctx, s.p.cfg.Local, name)
	if err != nil {
		return nil, fmt.Errorf("query: source %s not found in current context: %w", name, err)
	}
	return d, nil
}

// openSource opens a gateway connection to the descriptor's database:
// through its ISI servant when it advertises one, else through a DSN.
func (p *Processor) openSource(s *Session, d *codb.SourceDescriptor) (gateway.Conn, error) {
	if d.ISIRef != "" {
		ref, err := p.cfg.ORB.ResolveString(d.ISIRef)
		if err != nil {
			return nil, fmt.Errorf("query: source %s advertises a bad ISI reference: %w", d.Name, err)
		}
		s.tracef("communication", "connecting to ISI of %s at %s", d.Name, ref.IOR().Addr())
		return gateway.NewRemoteConn(ref), nil
	}
	if d.DSN != "" && p.cfg.Gateway != nil {
		s.tracef("communication", "opening gateway DSN %s", d.DSN)
		return p.cfg.Gateway.Open(d.DSN)
	}
	return nil, fmt.Errorf("query: source %s advertises no access path", d.Name)
}

func (s *Session) execFuncQuery(ctx context.Context, q *wtl.FuncQuery) (*Response, error) {
	if q.OnCoalition {
		return s.execCoalitionFuncQuery(ctx, q)
	}
	if q.Join != nil {
		// The parser enforces this; the guard covers programmatic statements.
		return nil, fmt.Errorf("query: SemiJoin requires the outer query to target a coalition")
	}
	d, err := s.lookupSource(ctx, q.Source)
	if err != nil {
		return nil, err
	}
	fn := exportedFunction(d, q.Function)
	if fn == nil {
		return nil, fmt.Errorf("query: source %s exports no function %s", d.Name, q.Function)
	}
	mp, err := buildMemberPlan(d, fn, q, s.p.pushdownOn())
	if err != nil {
		return nil, err
	}
	ex := &mp.Exec
	s.tracef("query", "wrapper %s translated %s to: %s", WrapperFor(d).Name(), q.Function, ex.Native)
	conn, err := s.p.openSource(s, d)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	s.tracef("data", "executing on %s (%s): %s", d.Name, d.Engine, ex.Native)
	s.p.stats.plans.Add(1)
	s.p.stats.fragmentsPushed.Add(int64(ex.Pushed))
	s.p.stats.fragmentsCompensated.Add(int64(len(ex.Residual)))
	if ex.LimitPushed {
		s.p.stats.limitPushed.Add(1)
	}
	// A coalition of one: the same fragment runner the merge uses, asked for
	// the whole result at once, feeding a consumer that appends and stops at
	// a LIMIT the engine was not given. The rows it leaves in the batch it
	// stops in were never looked at and do not count as moved.
	res := &gateway.Result{}
	var run fragmentRun
	err = s.runFragment(ctx, conn, &mp, ex, 0, &run, func(b *gateway.Batch) bool {
		defer b.Release()
		for i := 0; i < b.Len(); i++ {
			res.Rows = append(res.Rows, []idl.Any{b.Value(0, i)})
			if q.Limit > 0 && len(res.Rows) >= q.Limit {
				run.Moved -= b.Len() - (i + 1)
				return false
			}
		}
		return true
	})
	s.p.stats.rowsMoved.Add(int64(run.Moved))
	if run.Fallback {
		s.p.stats.fallbacks.Add(1)
		ex = &mp.Bare
	}
	if err != nil {
		return nil, err
	}
	res.Columns = []string{run.Column}
	s.p.stats.rowsDelivered.Add(int64(len(res.Rows)))
	s.Source = d.Name
	return &Response{Stmt: q, Result: res, Translated: ex.Native, Descriptor: d,
		RowsMoved: run.Moved, Text: res.Format()}, nil
}

// execCoalitionFuncQuery decomposes a typed query over every member of a
// coalition that exports the function, merging the result sets with a
// leading "source" column — the paper's query decomposition across a
// cluster of databases sharing a topic. The planner (plan.go) splits each
// member's predicates into pushed and compensated halves by the member's
// capability profile; the streaming merge (merge.go) consumes the members'
// rows in member order through bounded channels, so the merged result is
// deterministic and a statement LIMIT can cancel the remaining fan-out the
// moment it is satisfied.
//
// The fan-out degrades gracefully: a member that is unreachable, slow past
// its deadline, or circuit-broken does not abort the statement. Every
// member's outcome — attempts, latency, error class — lands in
// Response.Members; Response.Partial marks real degradation (members cut
// off by a satisfied LIMIT report ErrClass "limit" and do not count). The
// statement only fails when fewer than the quorum (SetMemberPolicy) answer and
// the LIMIT was not satisfied.
func (s *Session) execCoalitionFuncQuery(ctx context.Context, q *wtl.FuncQuery) (*Response, error) {
	rows, err := s.streamCoalition(ctx, q)
	if err != nil {
		return nil, err
	}
	defer rows.Close()
	return rows.drainResponse()
}

func (s *Session) execNativeQuery(ctx context.Context, q *wtl.NativeQuery) (*Response, error) {
	d, err := s.lookupSource(ctx, q.Source)
	if err != nil {
		return nil, err
	}
	conn, err := s.p.openSource(s, d)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	s.tracef("data", "executing on %s (%s): %s", d.Name, d.Engine, q.Text)
	res, err := conn.Query(ctx, q.Text)
	if err != nil {
		return nil, fmt.Errorf("query: %s: %w", d.Name, err)
	}
	s.Source = d.Name
	return &Response{Stmt: q, Result: res, Translated: q.Text, Descriptor: d, Text: res.Format()}, nil
}
