package relational

import "slices"

// btree is an in-memory B-tree mapping index keys (Values, ordered by
// Compare) to the table slots holding them. It backs ordered (range-capable)
// secondary indexes and primary keys. Duplicate keys are allowed; each key
// holds the list of slots carrying it, ascending, since rows are only ever
// appended. Every node knows how many row entries its subtree holds, so the
// rows in a key range are counted in O(log n) without visiting them.

const btreeDegree = 32 // max children per internal node

type btreeItem struct {
	key  Value
	rows []int
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
	root *btreeNode
	keys int // distinct keys
	rows int // total row entries
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

// Insert adds slot under key.
func (t *btree) Insert(key Value, slot int) {
	if len(t.root.items) >= 2*btreeDegree-1 {
		old := t.root
		t.root = &btreeNode{children: []*btreeNode{old}, count: old.count}
		t.root.splitChild(0)
	}
	t.insertNonFull(t.root, key, slot)
	t.rows++
}

func (t *btree) insertNonFull(n *btreeNode, key Value, slot int) {
	for {
		n.count++
		i, found := search(n.items, key)
		if found {
			n.items[i].rows = append(n.items[i].rows, slot)
			return
		}
		if n.leaf() {
			n.items = slices.Insert(n.items, i, btreeItem{key: key, rows: []int{slot}})
			t.keys++
			return
		}
		if len(n.children[i].items) >= 2*btreeDegree-1 {
			n.splitChild(i)
			switch Compare(n.items[i].key, key) {
			case -1:
				i++
			case 0:
				n.items[i].rows = append(n.items[i].rows, slot)
				return
			}
		}
		n = n.children[i]
	}
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

// Lookup returns the slots stored under key (nil if none). The returned
// slice must not be modified.
func (t *btree) Lookup(key Value) []int {
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

// Range visits items with lo <= key <= hi (nil bounds are open); the
// inclusive flags control boundary handling. It seeks to lo, so a call costs
// O(log n) plus the items it visits. fn returns false to stop.
func (t *btree) Range(lo, hi *Value, loIncl, hiIncl bool, fn func(key Value, rows []int) bool) {
	rangeNode(t.root, lo, hi, loIncl, hiIncl, fn)
}

// rangeNode is Range over n's subtree; it returns false once the walk is
// over (fn stopped it, or a key is past hi).
func rangeNode(n *btreeNode, lo, hi *Value, loIncl, hiIncl bool, fn func(key Value, rows []int) bool) bool {
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
		if !fn(it.key, it.rows) {
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
