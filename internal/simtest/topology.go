package simtest

import (
	"fmt"
	"math/rand"
	"sort"
)

// genTopology draws the named-coalition membership map ("c0"…) from the
// topology stream: overlapping windows of size members laid over a seeded
// permutation ring, one window every size/2 positions. Any two consecutive
// windows share half their members and the last window wraps onto the
// first, so the coalition graph is one connected chain: gossip seeded only
// with co-members still reaches everyone, in O(log N) rounds, without any
// node holding global membership at boot. Six nodes in windows of four make
// three coalitions.
func genTopology(rng *rand.Rand, nodes, size int) map[string][]int {
	if size > nodes {
		size = nodes
	}
	perm := rng.Perm(nodes)
	stride := size / 2
	if stride < 1 {
		stride = 1
	}
	count := (nodes + stride - 1) / stride
	if size == nodes {
		count = 1
	}
	out := map[string][]int{}
	for w := 0; w < count; w++ {
		members := make([]int, size)
		for k := 0; k < size; k++ {
			members[k] = perm[(w*stride+k)%nodes]
		}
		sort.Ints(members)
		out[fmt.Sprintf("c%d", w)] = members
	}
	return out
}
