package query

import (
	"context"
	"fmt"
	"testing"
	"time"

	"repro/internal/codb"
	"repro/internal/orb"
	"repro/internal/simnet"
	"repro/internal/trace"
)

// memberCallFixture is a home processor plus n co-database servants, each on
// its own simulated host, so links can be cut per member.
type memberCallFixture struct {
	net     *simnet.Net
	p       *Processor
	home    string // home's simulated host
	hosts   []string
	clients []*codb.Client
}

func newMemberCallFixture(t *testing.T, n int, homeOpts orb.Options) *memberCallFixture {
	t.Helper()
	snet := simnet.New(1)
	t.Cleanup(func() { snet.Close() })
	serve := func(ep *simnet.Endpoint, name string, opts orb.Options) (*orb.ORB, *orb.IOR) {
		opts.Transport = ep
		opts.DisableColocation = true
		o := orb.New(opts)
		if err := o.Listen(":0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(o.Shutdown)
		ior, err := o.Activate("CoDatabase/"+name, codb.NewServant(codb.New(name)))
		if err != nil {
			t.Fatal(err)
		}
		return o, ior
	}
	homeEP := snet.Endpoint("home")
	homeORB, homeIOR := serve(homeEP, "Home", homeOpts)
	p, err := New(Config{ORB: homeORB, Home: "Home", Local: codb.NewClient(homeORB.Resolve(homeIOR))})
	if err != nil {
		t.Fatal(err)
	}
	f := &memberCallFixture{net: snet, p: p, home: homeEP.Host()}
	for i := 0; i < n; i++ {
		ep := snet.Endpoint(fmt.Sprintf("m%d", i))
		_, ior := serve(ep, fmt.Sprintf("M%d", i), orb.Options{})
		f.hosts = append(f.hosts, ep.Host())
		f.clients = append(f.clients, codb.NewClient(homeORB.Resolve(ior)))
	}
	return f
}

func (f *memberCallFixture) statuses() []MemberStatus {
	out := make([]MemberStatus, len(f.clients))
	for i := range out {
		out[i] = notDispatched(fmt.Sprintf("M%d", i), "")
	}
	return out
}

// version is the plain member call of these tests: one idempotent (hence
// retried) round trip to member i's co-database.
func (f *memberCallFixture) version() *memberFan {
	return &memberFan{span: "test.call:", call: func(ctx context.Context, i int, _ *trace.Span) error {
		_, err := f.clients[i].Version(ctx)
		return err
	}}
}

// TestCallMemberOutcomes pins what the member-call primitive records for
// every way a member call can end.
func TestCallMemberOutcomes(t *testing.T) {
	const attempts = 3
	cases := []struct {
		name         string
		opts         orb.Options
		memberTO     time.Duration
		arrange      func(f *memberCallFixture)
		fan          func(f *memberCallFixture) *memberFan
		wantClass    string
		wantAttempts int
	}{
		{name: "answer", wantClass: "", wantAttempts: 1},
		{
			name:      "member deadline",
			memberTO:  100 * time.Millisecond,
			arrange:   func(f *memberCallFixture) { f.net.Blackhole(f.home, f.hosts[0]) },
			wantClass: "timeout", wantAttempts: 1,
		},
		{
			name:      "reset, retried to the ORB's limit",
			opts:      orb.Options{Retry: orb.RetryPolicy{MaxAttempts: attempts}},
			arrange:   func(f *memberCallFixture) { f.net.Partition(f.home, f.hosts[0]) },
			wantClass: "comm", wantAttempts: attempts,
		},
		{
			name: "open breaker",
			opts: orb.Options{Breaker: orb.BreakerPolicy{Threshold: 1, Cooldown: time.Hour}},
			arrange: func(f *memberCallFixture) {
				f.net.Partition(f.home, f.hosts[0])
				f.clients[0].Version(context.Background()) // the failure that opens the breaker
			},
			wantClass: "breaker", wantAttempts: 1,
		},
		{
			name: "user exception",
			fan: func(f *memberCallFixture) *memberFan {
				return &memberFan{span: "test.call:", call: func(ctx context.Context, i int, _ *trace.Span) error {
					_, err := f.clients[i].AccessInfo(ctx, "no such source")
					return err
				}}
			},
			wantClass: "user", wantAttempts: 1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f := newMemberCallFixture(t, 1, tc.opts)
			f.p.SetMemberPolicy(1, tc.memberTO)
			if tc.arrange != nil {
				tc.arrange(f)
			}
			fan := f.version()
			if tc.fan != nil {
				fan = tc.fan(f)
			}
			statuses := f.statuses()
			f.p.callMembers(context.Background(), statuses, fan)
			st := statuses[0]
			if st.ErrClass != tc.wantClass {
				t.Errorf("ErrClass = %q (%s), want %q", st.ErrClass, st.Err, tc.wantClass)
			}
			if st.OK() != (st.Err == "") {
				t.Errorf("ErrClass %q with Err %q", st.ErrClass, st.Err)
			}
			if st.Attempts != tc.wantAttempts {
				t.Errorf("Attempts = %d, want %d", st.Attempts, tc.wantAttempts)
			}
			if st.Latency <= 0 {
				t.Errorf("Latency = %v, want it measured", st.Latency)
			}
		})
	}
}

// TestCallMembersNotDispatched: members the pool never reaches because the
// context ended keep their initial status, and their call never runs.
func TestCallMembersNotDispatched(t *testing.T) {
	f := newMemberCallFixture(t, 3, orb.Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, width := range []int{1, 0} { // serial loop and worker pool
		f.p.SetFanOut(width)
		statuses := f.statuses()
		f.p.callMembers(ctx, statuses, &memberFan{span: "test.call:",
			call: func(context.Context, int, *trace.Span) error {
				t.Error("call ran under a context that had already ended")
				return nil
			}})
		for _, st := range statuses {
			if st.ErrClass != "skipped" || st.Err != "not dispatched" || st.Attempts != 0 {
				t.Errorf("width %d: %+v, want skipped/not dispatched", width, st)
			}
		}
	}
}

// TestCallMemberMergeCancelIsNotFailure: when the fan-out's owner cancels it
// on purpose, whatever the cancel did to a call in flight is not a member
// failure; the same error under a caller's cancel is.
func TestCallMemberMergeCancelIsNotFailure(t *testing.T) {
	f := newMemberCallFixture(t, 1, orb.Options{})
	for _, tc := range []struct {
		cause     error
		wantClass string
	}{
		{errLimitSatisfied, ""},
		{errStreamClosed, ""},
		{nil, "timeout"}, // a plain cancel: the caller gave up on the member
	} {
		ctx, cancel := context.WithCancelCause(context.Background())
		statuses := f.statuses()
		f.p.callMembers(ctx, statuses, &memberFan{span: "test.call:",
			call: func(ctx context.Context, _ int, _ *trace.Span) error {
				cancel(tc.cause) // lands while the call is in flight
				<-ctx.Done()
				return ctx.Err()
			}})
		if st := statuses[0]; st.ErrClass != tc.wantClass || st.OK() != (st.Err == "") {
			t.Errorf("cause %v: ErrClass = %q, Err = %q; want class %q", tc.cause, st.ErrClass, st.Err, tc.wantClass)
		}
	}
}

// TestCallSomeAndBudget: callSome touches only the listed statuses, and a
// fan's budget multiplies the member timeout.
func TestCallSomeAndBudget(t *testing.T) {
	f := newMemberCallFixture(t, 3, orb.Options{})
	f.p.SetMemberPolicy(1, 50*time.Millisecond)
	statuses := f.statuses()
	var deadlines [3]time.Duration
	f.p.callSome(context.Background(), statuses, []int{2, 0}, &memberFan{span: "test.call:", budget: 4,
		call: func(ctx context.Context, i int, _ *trace.Span) error {
			d, _ := ctx.Deadline()
			deadlines[i] = time.Until(d)
			return nil
		}})
	if !statuses[0].OK() || !statuses[2].OK() || statuses[1].ErrClass != "skipped" {
		t.Errorf("statuses = %+v", statuses)
	}
	for _, i := range []int{0, 2} {
		if deadlines[i] <= 150*time.Millisecond || deadlines[i] > 200*time.Millisecond {
			t.Errorf("member %d budget = %v, want 4 x 50ms", i, deadlines[i])
		}
	}
}
