package query

import (
	"context"
	"errors"
	"fmt"
	"io"
	"strings"

	"repro/internal/gateway"
	"repro/internal/orb"
)

// isCapabilityRejection reports whether a member error looks like the engine
// rejecting a clause the planner pushed (dialect gate or grammar error)
// rather than a transport or data failure. Engine errors cross the ISI
// boundary as plain messages (UserException bodies), so a shape match covers
// both local and remote members:
//
//	relational: mSQL does not support LIKE
//	oodb: unexpected "LIMIT" after query
func isCapabilityRejection(err error) bool {
	if err == nil {
		return false
	}
	var se *orb.SystemException
	if errors.As(err, &se) {
		return false
	}
	msg := err.Error()
	return strings.Contains(msg, "does not support") || strings.Contains(msg, "unexpected")
}

// fragmentRun is runFragment's report. It is filled as the run proceeds, so
// it stands when the run fails, and Column is set before the first batch
// reaches the consumer (the streaming merge names its result from it).
type fragmentRun struct {
	Column   string // name of the result column
	Moved    int    // rows pulled from the source, before compensation
	Pages    int    // batches pulled: round trips, for a remote source
	Bytes    int    // encoded size of those pages (0 for an in-process source)
	Fallback bool   // a pushed clause was rejected and mp.Bare ran instead
}

// runFragment executes one fragment on one source and hands the consumer the
// compensated batches — the one way the query layer reads a function's rows,
// whether the source stands alone or is a coalition member. The fragment
// opens through the gateway cursor protocol with the given first-page size
// (0: the whole result in the opening round trip). When the source rejects a
// clause the planner pushed (its descriptor's engine claim was stale) the run
// retries once with mp.Bare and full coordinator-side compensation. Every
// row pulled counts as moved; each batch is narrowed to the rows passing ex's
// residual conjuncts, and what is left (column 0 is the result column) goes
// to emit, which owns the batch from then on and returns false to stop the
// run early (not an error). ex is mp.Exec or a per-statement rendering of it.
func (s *Session) runFragment(ctx context.Context, conn gateway.Conn, mp *memberPlan, ex *fragmentExec, batch int, run *fragmentRun, emit func(b *gateway.Batch) bool) error {
	it, err := conn.QueryCursor(ctx, ex.Native, batch)
	if err != nil && (ex.Pushed > 0 || ex.LimitPushed || ex.InPushed) && isCapabilityRejection(err) && ctx.Err() == nil {
		s.tracef("data", "source %s rejected pushed fragment (%v); retrying with full compensation", mp.D.Name, err)
		run.Fallback = true
		ex = &mp.Bare
		it, err = conn.QueryCursor(ctx, ex.Native, batch)
	}
	if err != nil {
		return fmt.Errorf("query: %s: %w", mp.D.Name, err)
	}
	defer it.Close()
	run.Column = mp.Fn.ResultColumn
	if cols := it.Columns(); len(cols) > 0 {
		run.Column = cols[0]
	}
	for {
		b, err := it.Next(ctx)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return fmt.Errorf("query: %s: %w", mp.D.Name, err)
		}
		run.Moved += b.Len()
		run.Pages++
		run.Bytes += b.WireBytes()
		for k := range ex.Residual {
			ex.Residual[k].keep(b)
		}
		if b.Cols() == 0 || b.Len() == 0 {
			b.Release()
			continue
		}
		if !emit(b) {
			return nil
		}
	}
}
