package relational

import (
	"slices"
	"strconv"
	"strings"

	"repro/internal/freelist"
)

// This file implements the expression half of the batched executor, the
// engine's one expression evaluator: expressions are compiled once per
// statement execution into a tree of vexpr nodes that evaluate over column
// vectors with a selection vector, instead of re-walking the AST (and
// re-resolving column names) for every tuple. What the parser admits is a
// conjunction of comparisons and LIKEs of a column (or an aggregate call)
// against a literal and of IN lists of literals, and the plan resolves every
// name before anything is compiled (planFrom), so no node fails on a row.

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

// vctxPool holds released contexts: as many as statements run at once in a
// busy process.
var vctxPool = freelist.New(8, func() *vctx { return &vctx{} })

func getVctx() *vctx { return vctxPool.Get() }

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
	eval(c *vctx, b *vbatch, sel []int, out []Value)
}

// compileExpr compiles an expression against a binding list, every name in
// which the plan has resolved (planFrom). An aggregate call reads the column
// bound to it (aggBinding), which only the grouped finalisation's relation
// has.
func compileExpr(e Expr, cols []colBinding) vexpr {
	switch x := e.(type) {
	case *Literal:
		return &vLit{v: x.Val}
	case *ColRef, *FuncCall:
		return &vCol{ord: ordinal(e, cols)}
	case *Binary:
		if x.Op == "AND" {
			return &vAnd{l: compileExpr(x.L, cols), r: compileExpr(x.R, cols)}
		}
		// A comparison or LIKE of a column and a literal (the parser admits
		// no other): one pass over the column vector, no operand buffers.
		n := &vColLitOp{op: x.Op, cmpOp: cmpOpCode(x.Op)}
		if lit, ok := x.R.(*Literal); ok {
			n.ord, n.lit = ordinal(x.L, cols), lit.Val
		} else {
			n.ord, n.lit, n.litLeft = ordinal(x.R, cols), x.L.(*Literal).Val, true
		}
		return n
	case *InList:
		vals := make([]Value, len(x.List))
		for i, item := range x.List {
			vals[i] = item.(*Literal).Val
		}
		return newInList(compileExpr(x.X, cols), vals)
	}
	panic("relational: cannot compile " + e.String())
}

// ordinal is the position in cols of a resolved column reference or of an
// aggregate call's column.
func ordinal(e Expr, cols []colBinding) int {
	if f, ok := e.(*FuncCall); ok {
		return slices.Index(cols, aggBinding(f))
	}
	ord, _ := resolveCol(cols, e.(*ColRef)) // resolved at plan time
	return ord
}

// aggBinding is the binding of an aggregate call's column in the grouped
// finalisation's relation: no qualifier, and the call's rendering as its name.
// A column reference never resolves to it: references are lower-cased, and
// the rendering starts with the upper-case aggregate name.
func aggBinding(f *FuncCall) colBinding { return colBinding{name: f.String()} }

type vLit struct{ v Value }

func (n *vLit) eval(_ *vctx, _ *vbatch, sel []int, out []Value) {
	for k := range sel {
		out[k] = n.v
	}
}

type vCol struct{ ord int }

func (n *vCol) eval(_ *vctx, b *vbatch, sel []int, out []Value) {
	vec := b.vecs[n.ord]
	for k, r := range sel {
		out[k] = vec[r]
	}
}

// vColLitOp is the fused `column <op> literal` (or swapped) node covering
// comparisons and LIKE: a single pass over the column vector.
// Comparison operators against a non-NULL numeric or string literal take a
// typed loop that mirrors Compare's ordering (numerics compare as float64,
// same-kind strings bytewise) without its per-row struct traffic, and so does
// `column LIKE pattern`, which calls MatchLike on each value.
type vColLitOp struct {
	op      string
	ord     int
	lit     Value
	litLeft bool
	cmpOp   uint8 // cmpOpCode(op); 0 when op is not a comparison
}

// Comparison opcodes for vColLitOp's typed loops.
const (
	cmpNone uint8 = iota
	cmpEQ
	cmpNE
	cmpLT
	cmpLE
	cmpGT
	cmpGE
)

func cmpOpCode(op string) uint8 {
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

func cmpBool(code uint8, c int) Value {
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

func (n *vColLitOp) eval(_ *vctx, b *vbatch, sel []int, out []Value) {
	vec := b.vecs[n.ord]
	if n.op == "LIKE" && !n.litLeft && !n.lit.Null {
		// MatchLike(v.String(), pattern), as applyBinary has it: a text or
		// date is its own rendering.
		pat := n.lit.String()
		for k, r := range sel {
			switch v := vec[r]; {
			case v.Null:
				out[k] = NullValue()
			case v.Kind == TypeText || v.Kind == TypeDate:
				out[k] = BoolValue(MatchLike(v.Str, pat))
			default:
				out[k] = BoolValue(MatchLike(v.String(), pat))
			}
		}
		return
	}
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
			return
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
			return
		}
	}
	for k, r := range sel {
		if n.litLeft {
			out[k] = applyBinary(n.op, n.lit, vec[r])
		} else {
			out[k] = applyBinary(n.op, vec[r], n.lit)
		}
	}
}

// vAnd implements three-valued AND. The right side is evaluated only for
// rows the left side did not decide FALSE.
type vAnd struct{ l, r vexpr }

func (n *vAnd) eval(c *vctx, b *vbatch, sel []int, out []Value) {
	n.l.eval(c, b, sel, out)
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
		return
	}
	rbuf := c.getVals()
	defer c.putVals(rbuf[:len(sub)])
	n.r.eval(c, b, sub, rbuf)
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
}

// vInList is an IN list — a value is in the list when it compares equal to
// an item; not found with a NULL item in the list is NULL — through sets
// built once per compile instead of a Compare per item per row. Numeric items are keyed by value, so 5 finds 5.0; the others
// by their rendering, which is how Compare equates any two values that are
// not both numbers.
type vInList struct {
	x      vexpr
	vals   []Value
	nums   map[float64]struct{} // numeric items
	strs   map[string]struct{}  // the other non-NULL items, rendered
	null   bool                 // the list holds a NULL
	linear bool                 // a NaN item, which Compare finds equal to every number
}

func newInList(x vexpr, vals []Value) *vInList {
	n := &vInList{x: x, vals: vals}
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

func (n *vInList) eval(c *vctx, b *vbatch, sel []int, out []Value) {
	n.x.eval(c, b, sel, out)
	for k := range sel {
		switch v := out[k]; {
		case v.Null:
			out[k] = NullValue()
		case n.has(v):
			out[k] = BoolValue(true)
		case n.null:
			out[k] = NullValue()
		default:
			out[k] = BoolValue(false)
		}
	}
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
