package relational

import "slices"

// btree is an in-memory B-tree mapping index keys (Values, ordered by
// Compare) to sets of row IDs. It backs ordered (range-capable) secondary
// indexes and primary keys. Duplicate keys are allowed; each key holds the
// list of row IDs carrying it. Every node knows how many row entries its
// subtree holds, so the rows in a key range are counted in O(log n) without
// visiting them.

const btreeDegree = 32 // max children per internal node

type btreeItem struct {
	key  Value
	rows []int64
}

type btreeNode struct {
	items    []btreeItem
	children []*btreeNode // nil for leaves
	count    int          // row entries in this subtree
}

func (n *btreeNode) leaf() bool { return len(n.children) == 0 }

// sum recounts the node's row entries from its items and its children's
// counts.
func (n *btreeNode) sum() int {
	s := 0
	for _, it := range n.items {
		s += len(it.rows)
	}
	for _, c := range n.children {
		s += c.count
	}
	return s
}

// btree is the tree root plus element counts.
type btree struct {
	root  *btreeNode
	keys  int // distinct live keys
	rows  int // total row entries
	items int // keys in the tree, tombstones (keys with no rows left) included
}

func newBTree() *btree {
	return &btree{root: &btreeNode{}}
}

// search returns the position of key in items and whether it was found.
func search(items []btreeItem, key Value) (int, bool) {
	lo, hi := 0, len(items)
	for lo < hi {
		mid := (lo + hi) / 2
		switch Compare(items[mid].key, key) {
		case -1:
			lo = mid + 1
		case 1:
			hi = mid
		default:
			return mid, true
		}
	}
	return lo, false
}

// Insert adds rowID under key.
func (t *btree) Insert(key Value, rowID int64) {
	if len(t.root.items) >= 2*btreeDegree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}, count: old.count}
		t.root.splitChild(0)
	}
	t.insertNonFull(t.root, key, rowID)
	t.rows++
}

func (t *btree) insertNonFull(n *btreeNode, key Value, rowID int64) {
	for {
		n.count++
		i, found := search(n.items, key)
		if found {
			t.addRow(&n.items[i], rowID)
			return
		}
		if n.leaf() {
			n.items = slices.Insert(n.items, i, btreeItem{key: key, rows: []int64{rowID}})
			t.keys++
			t.items++
			return
		}
		if len(n.children[i].items) >= 2*btreeDegree-1 {
			n.splitChild(i)
			switch Compare(n.items[i].key, key) {
			case -1:
				i++
			case 0:
				t.addRow(&n.items[i], rowID)
				return
			}
		}
		n = n.children[i]
	}
}

// addRow appends rowID to a key already in the tree, reviving it if it was a
// tombstone.
func (t *btree) addRow(it *btreeItem, rowID int64) {
	if len(it.rows) == 0 {
		t.keys++
	}
	it.rows = append(it.rows, rowID)
}

// splitChild splits the full child at index i, promoting its median item.
func (n *btreeNode) splitChild(i int) {
	child := n.children[i]
	mid := btreeDegree - 1
	median := child.items[mid]
	right := &btreeNode{
		items: append([]btreeItem(nil), child.items[mid+1:]...),
	}
	if !child.leaf() {
		right.children = append([]*btreeNode(nil), child.children[mid+1:]...)
		child.children = child.children[:mid+1]
	}
	child.items = child.items[:mid]
	child.count, right.count = child.sum(), right.sum()

	n.items = slices.Insert(n.items, i, median)
	n.children = slices.Insert(n.children, i+1, right)
}

// Lookup returns the row IDs stored under key (nil if none). The returned
// slice must not be modified.
func (t *btree) Lookup(key Value) []int64 {
	n := t.root
	for {
		i, found := search(n.items, key)
		if found {
			return n.items[i].rows
		}
		if n.leaf() {
			return nil
		}
		n = n.children[i]
	}
}

// Delete removes rowID from under key. A key whose row list empties stays in
// the tree as a tombstone; the tree is rebuilt without them once they
// outnumber the live keys.
func (t *btree) Delete(key Value, rowID int64) bool {
	n := t.root
	i, found := search(n.items, key)
	for !found {
		if n.leaf() {
			return false
		}
		n = n.children[i]
		i, found = search(n.items, key)
	}
	it := &n.items[i]
	j := slices.Index(it.rows, rowID)
	if j < 0 {
		return false
	}
	it.rows = slices.Delete(it.rows, j, j+1)
	t.rows--
	if len(it.rows) == 0 {
		t.keys--
	}
	// Every node on the way down to n holds one row entry fewer.
	for m := t.root; ; {
		m.count--
		if m == n {
			break
		}
		k, _ := search(m.items, key)
		m = m.children[k]
	}
	t.maybeCompact()
	return true
}

// maybeCompact rebuilds the tree when tombstones dominate.
func (t *btree) maybeCompact() {
	if t.items < 16 || t.keys*2 >= t.items {
		return
	}
	nt := newBTree()
	t.Ascend(func(key Value, rows []int64) bool {
		for _, id := range rows {
			nt.Insert(key, id)
		}
		return true
	})
	*t = *nt
}

// Ascend visits all live items in key order; fn returns false to stop.
func (t *btree) Ascend(fn func(key Value, rows []int64) bool) {
	t.Range(nil, nil, true, true, fn)
}

// Range visits live items with lo <= key <= hi (nil bounds are open); the
// inclusive flags control boundary handling. It seeks to lo, so a call costs
// O(log n) plus the items it visits. fn returns false to stop.
func (t *btree) Range(lo, hi *Value, loIncl, hiIncl bool, fn func(key Value, rows []int64) bool) {
	rangeNode(t.root, lo, hi, loIncl, hiIncl, fn)
}

// rangeNode is Range over n's subtree; it returns false once the walk is
// over (fn stopped it, or a key is past hi).
func rangeNode(n *btreeNode, lo, hi *Value, loIncl, hiIncl bool, fn func(key Value, rows []int64) bool) bool {
	i := 0
	if lo != nil {
		i, _ = search(n.items, *lo) // the items and children before i sort below lo
	}
	for ; ; i++ {
		if !n.leaf() && !rangeNode(n.children[i], lo, hi, loIncl, hiIncl, fn) {
			return false
		}
		if i == len(n.items) {
			return true
		}
		it := &n.items[i]
		if lo != nil && !loIncl && Compare(it.key, *lo) == 0 {
			continue
		}
		if hi != nil {
			if c := Compare(it.key, *hi); c > 0 || c == 0 && !hiIncl {
				return false
			}
		}
		if len(it.rows) > 0 && !fn(it.key, it.rows) {
			return false
		}
	}
}

// count is the number of row entries Range(lo, hi, loIncl, hiIncl) would
// visit, found in O(log n) from the subtree counts without visiting them.
func (t *btree) count(lo, hi *Value, loIncl, hiIncl bool) int {
	n := t.rows
	if hi != nil {
		n = t.rank(*hi, hiIncl)
	}
	if lo != nil {
		n -= t.rank(*lo, !loIncl)
	}
	return max(n, 0)
}

// rank counts the row entries whose key sorts below key (at or below it when
// incl).
func (t *btree) rank(key Value, incl bool) int {
	total := 0
	for n := t.root; ; {
		i, found := search(n.items, key)
		for _, it := range n.items[:i] {
			total += len(it.rows)
		}
		if !n.leaf() {
			for _, c := range n.children[:i] {
				total += c.count
			}
		}
		if found {
			if !n.leaf() {
				total += n.children[i].count
			}
			if incl {
				total += len(n.items[i].rows)
			}
			return total
		}
		if n.leaf() {
			return total
		}
		n = n.children[i]
	}
}

// Len reports the number of live row entries in the tree.
func (t *btree) Len() int { return t.rows }

// Keys reports the number of distinct live keys.
func (t *btree) Keys() int { return t.keys }

// depth reports the tree height (for invariant tests).
func (t *btree) depth() int {
	d := 1
	for n := t.root; !n.leaf(); n = n.children[0] {
		d++
	}
	return d
}

// checkInvariants verifies B-tree structural invariants and the counts kept
// beside them; used by property tests. It returns an error description or ""
// when valid.
func (t *btree) checkInvariants() string {
	var prev *Value
	ok := ""
	depth := -1
	items, keys, rows := 0, 0, 0
	var walk func(n *btreeNode, d int) bool
	walk = func(n *btreeNode, d int) bool {
		if n != t.root && len(n.items) == 0 {
			// Our insert-only splitting keeps nodes at least half full except
			// the root; tombstone compaction rebuilds preserve this.
			ok = "empty non-root node"
			return false
		}
		if n.leaf() {
			if depth == -1 {
				depth = d
			} else if depth != d {
				ok = "leaves at different depths"
				return false
			}
		} else if len(n.children) != len(n.items)+1 {
			ok = "child count mismatch"
			return false
		}
		for i, it := range n.items {
			if !n.leaf() && !walk(n.children[i], d+1) {
				return false
			}
			if prev != nil && Compare(*prev, it.key) >= 0 {
				ok = "keys out of order"
				return false
			}
			k := it.key
			prev = &k
			items++
			rows += len(it.rows)
			if len(it.rows) > 0 {
				keys++
			}
		}
		if !n.leaf() && !walk(n.children[len(n.items)], d+1) {
			return false
		}
		if n.count != n.sum() {
			ok = "subtree row count mismatch"
			return false
		}
		return true
	}
	if !walk(t.root, 0) {
		return ok
	}
	switch {
	case items != t.items:
		return "item count mismatch"
	case keys != t.keys:
		return "key count mismatch"
	case rows != t.rows:
		return "row count mismatch"
	}
	return ""
}
