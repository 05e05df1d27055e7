package relational

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// This file implements the expression half of the batched executor:
// expressions are compiled once per statement execution into a tree of vexpr
// nodes that evaluate over column vectors with a selection vector, instead
// of re-walking the AST (and re-resolving column names) for every tuple.
// Operator semantics are shared with the row interpreter through
// applyBinary/applyUnary/applyScalarFunc, so the two engines cannot drift.

// vecChunk is the batch granularity: scans, filters, projections and
// aggregations process at most this many rows per call, so scratch buffers
// stay cache-sized and are reused across chunks via vctx.
const vecChunk = 1024

// vbatch is the columnar input to compiled expressions: one value vector per
// visible column binding. Vectors may alias table storage and are never
// written to. Vectors for columns that no expression references may be nil.
type vbatch struct {
	vecs [][]Value
}

// vctx holds reusable scratch state for one statement execution: free lists
// of chunk-sized value and selection buffers. A vctx is not safe for
// concurrent use; each query execution takes its own from a pool.
type vctx struct {
	vals  [][]Value
	sels  [][]int
	clean int // vals[:clean] have not been handed out since the last release
	dirty int // no buffer handed out since the last release was written past dirty
}

var vctxPool = sync.Pool{New: func() any { return &vctx{} }}

func getVctx() *vctx { return vctxPool.Get().(*vctx) }

// release clears payload references out of the cached buffers that were
// used (so pooled memory does not retain query strings) and returns the vctx
// to the pool. Only the prefix written is cleared: a one-row page costs a
// few values, not 1 024 per buffer.
func (c *vctx) release() {
	for _, b := range c.vals[c.clean:] {
		clear(b[:c.dirty])
	}
	c.clean, c.dirty = len(c.vals), 0
	vctxPool.Put(c)
}

func (c *vctx) getVals() []Value {
	if n := len(c.vals); n > 0 {
		b := c.vals[n-1]
		c.vals = c.vals[:n-1]
		c.clean = min(c.clean, n-1)
		return b
	}
	return make([]Value, vecChunk)
}

// putVals takes back a buffer getVals handed out, sliced to the prefix the
// caller wrote.
func (c *vctx) putVals(b []Value) {
	c.dirty = max(c.dirty, len(b))
	c.vals = append(c.vals, b[:vecChunk])
}

func (c *vctx) getSel() []int {
	if n := len(c.sels); n > 0 {
		b := c.sels[n-1]
		c.sels = c.sels[:n-1]
		return b[:0]
	}
	return make([]int, 0, vecChunk)
}

func (c *vctx) putSel(b []int) { c.sels = append(c.sels, b) }

// vexpr is one compiled expression node. eval computes the expression for
// the rows named by sel (indices into the batch's column vectors), writing
// the value for row sel[k] into out[k]. len(sel) never exceeds vecChunk.
type vexpr interface {
	eval(c *vctx, b *vbatch, sel []int, out []Value) error
}

// compileExpr compiles an expression against a binding list. Compilation
// never fails: unresolvable references compile to a node that reports the
// interpreter's error when (and only when) at least one row is evaluated,
// matching the row engine, which never evaluates expressions over empty
// input.
func compileExpr(e Expr, cols []colBinding) vexpr {
	switch x := e.(type) {
	case *Literal:
		return &vLit{v: x.Val}
	case *ColRef:
		ord, err := (&evalEnv{cols: cols}).resolve(x)
		if err != nil {
			return &vErr{err: err}
		}
		return &vCol{ord: ord}
	case *Unary:
		return &vUnary{op: x.Op, x: compileExpr(x.X, cols)}
	case *Binary:
		switch x.Op {
		case "AND":
			return &vAnd{l: compileExpr(x.L, cols), r: compileExpr(x.R, cols)}
		case "OR":
			return &vOr{l: compileExpr(x.L, cols), r: compileExpr(x.R, cols)}
		}
		// Fused column-vs-literal fast path: one pass over the column
		// vector, no operand buffers.
		if cr, ok := x.L.(*ColRef); ok {
			if lit, ok2 := x.R.(*Literal); ok2 {
				if ord, err := (&evalEnv{cols: cols}).resolve(cr); err == nil {
					return &vColLitOp{op: x.Op, ord: ord, lit: lit.Val, cmpOp: cmpOpCode(x.Op)}
				}
			}
		}
		if lit, ok := x.L.(*Literal); ok {
			if cr, ok2 := x.R.(*ColRef); ok2 {
				if ord, err := (&evalEnv{cols: cols}).resolve(cr); err == nil {
					return &vColLitOp{op: x.Op, ord: ord, lit: lit.Val, litLeft: true, cmpOp: cmpOpCode(x.Op)}
				}
			}
		}
		return &vBinary{op: x.Op, l: compileExpr(x.L, cols), r: compileExpr(x.R, cols)}
	case *IsNull:
		return &vIsNull{x: compileExpr(x.X, cols), negate: x.Negate}
	case *Between:
		return &vBetween{
			x:      compileExpr(x.X, cols),
			lo:     compileExpr(x.Lo, cols),
			hi:     compileExpr(x.Hi, cols),
			negate: x.Negate,
		}
	case *InList:
		// The interpreter evaluates list items lazily (stopping at the
		// first match), so only all-literal lists — which cannot error —
		// are compiled eagerly; anything else falls back to the
		// interpreter per row.
		vals := make([]Value, 0, len(x.List))
		for _, item := range x.List {
			lit, ok := item.(*Literal)
			if !ok {
				return &vRowFallback{e: e, cols: cols}
			}
			vals = append(vals, lit.Val)
		}
		return newInList(compileExpr(x.X, cols), vals, x.Negate)
	case *FuncCall:
		if x.IsAggregate() {
			return &vErr{err: fmt.Errorf("sql: aggregate %s used outside aggregation context", x.Name)}
		}
		args := make([]vexpr, len(x.Args))
		for i, a := range x.Args {
			args[i] = compileExpr(a, cols)
		}
		return &vFunc{f: x, args: args}
	case *Subquery:
		return &vErr{err: fmt.Errorf("sql: unresolved subquery (internal error)")}
	case nil:
		return &vErr{err: fmt.Errorf("sql: cannot evaluate <nil>")}
	}
	// Unknown node shapes defer to the row interpreter for identical
	// semantics (including its error text).
	return &vRowFallback{e: e, cols: cols}
}

type vLit struct{ v Value }

func (n *vLit) eval(_ *vctx, _ *vbatch, sel []int, out []Value) error {
	for k := range sel {
		out[k] = n.v
	}
	return nil
}

type vCol struct{ ord int }

func (n *vCol) eval(_ *vctx, b *vbatch, sel []int, out []Value) error {
	vec := b.vecs[n.ord]
	for k, r := range sel {
		out[k] = vec[r]
	}
	return nil
}

// vErr defers a compile-time resolution error to evaluation time, raising it
// only when at least one row is evaluated (the row engine's behaviour).
type vErr struct{ err error }

func (n *vErr) eval(_ *vctx, _ *vbatch, sel []int, _ []Value) error {
	if len(sel) == 0 {
		return nil
	}
	return n.err
}

type vUnary struct {
	op string
	x  vexpr
}

func (n *vUnary) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	if err := n.x.eval(c, b, sel, out); err != nil {
		return err
	}
	for k := range sel {
		v, err := applyUnary(n.op, out[k])
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

type vBinary struct {
	op   string
	l, r vexpr
}

func (n *vBinary) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	lbuf := c.getVals()
	defer c.putVals(lbuf[:len(sel)])
	if err := n.l.eval(c, b, sel, lbuf); err != nil {
		return err
	}
	if err := n.r.eval(c, b, sel, out); err != nil {
		return err
	}
	for k := range sel {
		v, err := applyBinary(n.op, lbuf[k], out[k])
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

// vColLitOp is the fused `column <op> literal` (or swapped) node covering
// every non-logical binary operator: a single pass over the column vector.
// Comparison operators against a non-NULL numeric or string literal take a
// typed loop that mirrors Compare's ordering (numerics compare as float64,
// same-kind strings bytewise) without its per-row struct traffic.
type vColLitOp struct {
	op      string
	ord     int
	lit     Value
	litLeft bool
	cmpOp   int // cmpOpCode(op); 0 when op is not a comparison
}

// Comparison opcodes for vColLitOp's typed loops.
const (
	cmpNone = iota
	cmpEQ
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

func cmpOpCode(op string) int {
	switch op {
	case "=":
		return cmpEQ
	case "<>":
		return cmpNE
	case "<":
		return cmpLT
	case "<=":
		return cmpLE
	case ">":
		return cmpGT
	case ">=":
		return cmpGE
	}
	return cmpNone
}

func cmpBool(code, c int) Value {
	switch code {
	case cmpEQ:
		return BoolValue(c == 0)
	case cmpNE:
		return BoolValue(c != 0)
	case cmpLT:
		return BoolValue(c < 0)
	case cmpLE:
		return BoolValue(c <= 0)
	case cmpGT:
		return BoolValue(c > 0)
	default:
		return BoolValue(c >= 0)
	}
}

func (n *vColLitOp) eval(_ *vctx, b *vbatch, sel []int, out []Value) error {
	vec := b.vecs[n.ord]
	if n.cmpOp != cmpNone && !n.lit.Null {
		switch n.lit.Kind {
		case TypeInt, TypeFloat:
			bf, _ := n.lit.AsFloat()
			for k, r := range sel {
				v := vec[r]
				if v.Null {
					out[k] = NullValue()
					continue
				}
				var cr int
				switch v.Kind {
				case TypeInt:
					// Same ordering as Compare: numerics compare as float64.
					switch af := float64(v.Int); {
					case af < bf:
						cr = -1
					case af > bf:
						cr = 1
					}
				case TypeFloat:
					switch {
					case v.Float < bf:
						cr = -1
					case v.Float > bf:
						cr = 1
					}
				default:
					cr = Compare(v, n.lit)
				}
				if n.litLeft {
					cr = -cr
				}
				out[k] = cmpBool(n.cmpOp, cr)
			}
			return nil
		case TypeText, TypeDate:
			for k, r := range sel {
				v := vec[r]
				if v.Null {
					out[k] = NullValue()
					continue
				}
				var cr int
				if v.Kind == n.lit.Kind {
					cr = strings.Compare(v.Str, n.lit.Str)
				} else {
					cr = Compare(v, n.lit)
				}
				if n.litLeft {
					cr = -cr
				}
				out[k] = cmpBool(n.cmpOp, cr)
			}
			return nil
		}
	}
	for k, r := range sel {
		var v Value
		var err error
		if n.litLeft {
			v, err = applyBinary(n.op, n.lit, vec[r])
		} else {
			v, err = applyBinary(n.op, vec[r], n.lit)
		}
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

// vAnd implements three-valued AND. The right side is evaluated only for
// rows the left side did not decide FALSE, preserving the interpreter's
// short-circuit — including its error behaviour (e.g. `x <> 0 AND 1/x > 0`
// never divides by zero).
type vAnd struct{ l, r vexpr }

func (n *vAnd) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	if err := n.l.eval(c, b, sel, out); err != nil {
		return err
	}
	sub := c.getSel()
	defer c.putSel(sub)
	pos := c.getSel()
	defer c.putSel(pos)
	for k, r := range sel {
		lb, lok := out[k].Truthy()
		if lok && !lb {
			out[k] = BoolValue(false)
			continue
		}
		sub = append(sub, r)
		pos = append(pos, k)
	}
	if len(sub) == 0 {
		return nil
	}
	rbuf := c.getVals()
	defer c.putVals(rbuf[:len(sub)])
	if err := n.r.eval(c, b, sub, rbuf); err != nil {
		return err
	}
	for j, k := range pos {
		lb, lok := out[k].Truthy()
		rb, rok := rbuf[j].Truthy()
		switch {
		case rok && !rb:
			out[k] = BoolValue(false)
		case lok && rok:
			out[k] = BoolValue(lb && rb)
		default:
			out[k] = NullValue()
		}
	}
	return nil
}

// vOr mirrors vAnd for three-valued OR.
type vOr struct{ l, r vexpr }

func (n *vOr) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	if err := n.l.eval(c, b, sel, out); err != nil {
		return err
	}
	sub := c.getSel()
	defer c.putSel(sub)
	pos := c.getSel()
	defer c.putSel(pos)
	for k, r := range sel {
		lb, lok := out[k].Truthy()
		if lok && lb {
			out[k] = BoolValue(true)
			continue
		}
		sub = append(sub, r)
		pos = append(pos, k)
	}
	if len(sub) == 0 {
		return nil
	}
	rbuf := c.getVals()
	defer c.putVals(rbuf[:len(sub)])
	if err := n.r.eval(c, b, sub, rbuf); err != nil {
		return err
	}
	for j, k := range pos {
		lb, lok := out[k].Truthy()
		rb, rok := rbuf[j].Truthy()
		switch {
		case rok && rb:
			out[k] = BoolValue(true)
		case lok && rok:
			out[k] = BoolValue(lb || rb)
		default:
			out[k] = NullValue()
		}
	}
	return nil
}

type vIsNull struct {
	x      vexpr
	negate bool
}

func (n *vIsNull) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	if err := n.x.eval(c, b, sel, out); err != nil {
		return err
	}
	for k := range sel {
		if n.negate {
			out[k] = BoolValue(!out[k].Null)
		} else {
			out[k] = BoolValue(out[k].Null)
		}
	}
	return nil
}

type vBetween struct {
	x, lo, hi vexpr
	negate    bool
}

func (n *vBetween) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	lobuf := c.getVals()
	defer c.putVals(lobuf[:len(sel)])
	hibuf := c.getVals()
	defer c.putVals(hibuf[:len(sel)])
	if err := n.x.eval(c, b, sel, out); err != nil {
		return err
	}
	if err := n.lo.eval(c, b, sel, lobuf); err != nil {
		return err
	}
	if err := n.hi.eval(c, b, sel, hibuf); err != nil {
		return err
	}
	for k := range sel {
		v, lo, hi := out[k], lobuf[k], hibuf[k]
		if v.Null || lo.Null || hi.Null {
			out[k] = NullValue()
			continue
		}
		in := Compare(v, lo) >= 0 && Compare(v, hi) <= 0
		if n.negate {
			in = !in
		}
		out[k] = BoolValue(in)
	}
	return nil
}

// vInList handles IN lists whose items are all literals, with the
// interpreter's semantics — a value is in the list when it compares equal to
// an item; not found with a NULL item in the list is NULL — through sets
// built once per compile instead of a Compare per item per row. Numeric
// items are keyed by value, so 5 finds 5.0; the others by their rendering,
// which is how Compare equates any two values that are not both numbers.
type vInList struct {
	x      vexpr
	vals   []Value
	nums   map[float64]struct{} // numeric items
	strs   map[string]struct{}  // the other non-NULL items, rendered
	null   bool                 // the list holds a NULL
	linear bool                 // a NaN item, which Compare finds equal to every number
	negate bool
}

func newInList(x vexpr, vals []Value, negate bool) *vInList {
	n := &vInList{x: x, vals: vals, negate: negate}
	for _, v := range vals {
		switch f, num := v.AsFloat(); {
		case v.Null:
			n.null = true
		case num:
			if n.nums == nil {
				n.nums = make(map[float64]struct{}, len(vals))
			}
			n.nums[f] = struct{}{}
			n.linear = n.linear || f != f
		default:
			if n.strs == nil {
				n.strs = make(map[string]struct{}, len(vals))
			}
			n.strs[v.String()] = struct{}{}
		}
	}
	return n
}

// has reports whether the non-NULL value v compares equal to an item.
func (n *vInList) has(v Value) bool {
	if !n.linear {
		if f, num := v.AsFloat(); num && f == f {
			if _, hit := n.nums[f]; hit || len(n.strs) == 0 {
				return hit
			}
			_, hit := n.strs[v.String()]
			return hit
		}
		// Not a number (or NaN): equal to an item when the renderings are,
		// which the numeric items are tested for below.
		if _, hit := n.strs[v.String()]; hit || len(n.nums) == 0 {
			return hit
		}
	}
	for _, iv := range n.vals {
		if !iv.Null && Compare(v, iv) == 0 {
			return true
		}
	}
	return false
}

func (n *vInList) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	if err := n.x.eval(c, b, sel, out); err != nil {
		return err
	}
	for k := range sel {
		switch v := out[k]; {
		case v.Null:
			out[k] = NullValue()
		case n.has(v):
			out[k] = BoolValue(!n.negate)
		case n.null:
			out[k] = NullValue()
		default:
			out[k] = BoolValue(n.negate)
		}
	}
	return nil
}

type vFunc struct {
	f    *FuncCall
	args []vexpr
}

func (n *vFunc) eval(c *vctx, b *vbatch, sel []int, out []Value) error {
	bufs := make([][]Value, len(n.args))
	for i := range n.args {
		bufs[i] = c.getVals()
		defer c.putVals(bufs[i][:len(sel)])
		if err := n.args[i].eval(c, b, sel, bufs[i]); err != nil {
			return err
		}
	}
	argv := make([]Value, len(n.args))
	for k := range sel {
		for i := range bufs {
			argv[i] = bufs[i][k]
		}
		v, err := applyScalarFunc(n.f, argv)
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

// vRowFallback evaluates the original expression with the row interpreter,
// one selected row at a time. It is the compiler's safety valve for shapes
// it does not vectorise; semantics are identical by construction.
type vRowFallback struct {
	e    Expr
	cols []colBinding
}

func (n *vRowFallback) eval(_ *vctx, b *vbatch, sel []int, out []Value) error {
	env := &evalEnv{cols: n.cols}
	row := make(Row, len(b.vecs))
	for k, r := range sel {
		for cix, vec := range b.vecs {
			if vec == nil {
				row[cix] = NullValue() // unreferenced column, never resolved
			} else {
				row[cix] = vec[r]
			}
		}
		env.row = row
		v, err := eval(n.e, env)
		if err != nil {
			return err
		}
		out[k] = v
	}
	return nil
}

// appendKeyValue renders one value into a hash key buffer with the same byte
// layout as encodeKey, but without per-row string allocation (integer and
// float payloads are appended with strconv).
func appendKeyValue(dst []byte, v Value) []byte {
	if v.Null {
		return append(dst, "\x00N|"...)
	}
	dst = append(dst, byte(v.Kind)+'0')
	switch v.Kind {
	case TypeInt:
		dst = strconv.AppendInt(dst, v.Int, 10)
	case TypeFloat:
		dst = strconv.AppendFloat(dst, v.Float, 'g', -1, 64)
	case TypeText, TypeDate:
		dst = append(dst, v.Str...)
	case TypeBool:
		if v.Bool {
			dst = append(dst, "TRUE"...)
		} else {
			dst = append(dst, "FALSE"...)
		}
	default:
		dst = append(dst, '?')
	}
	return append(dst, '|')
}
