// Package partition implements the data-parallel graph rewrite: given a
// query graph and a shard count P, it replicates every partitionable
// stateful operator (hash/equi window join, grouped aggregate, TSM union)
// into P shards, inserts a hash-partitioning Split on each input arc, and
// re-joins the shard outputs through a min-watermark Merge, so that
// downstream consumers see the same timestamp-ordered, punctuation-correct
// stream as the unsharded operator.
//
// The rewrite is semantics-preserving because of three invariants:
//
//  1. Key co-location: a Split routes a data tuple by hashing the operator's
//     partition key for that input, so every set of tuples that can produce
//     joint output (equal join keys, same group) meets in exactly one shard,
//     and each shard's state is the restriction of the global operator's
//     state to its key slice.
//  2. Punctuation broadcast: a Split copies every punctuation to all shards,
//     so each shard's TSM registers advance exactly as the unsharded
//     operator's would, and no shard idle-waits on a key-skewed input.
//  3. Min-watermark merge: the Merge forwards a punctuation only once every
//     shard's register has passed it (the TSM union's min-register rule), so
//     the merged stream never carries a bound some shard could still
//     contradict, and data pops in global timestamp order.
//
// Operators opt in via ops.Partitionable; anything else (reorder and other
// order-sensitive ops, opaque join predicates, row-count windows, global
// aggregates) passes through unchanged.
package partition

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/graph"
	"repro/internal/ops"
)

// Sharded records how one operator was partitioned, in new-graph node ids.
type Sharded struct {
	// Name is the original operator's name.
	Name string
	// Shards is the replication factor.
	Shards int
	// Splitters holds the Split node per input port.
	Splitters []graph.NodeID
	// ShardIDs holds the P shard nodes.
	ShardIDs []graph.NodeID
	// Merge is the min-watermark fan-in standing in for the original node.
	Merge graph.NodeID
}

// Plan describes a completed rewrite.
type Plan struct {
	// Shards is the requested replication factor.
	Shards int
	// Ops lists the partitioned operators in topological order.
	Ops []Sharded
}

func (p *Plan) String() string {
	if p == nil || len(p.Ops) == 0 {
		return "partition: none"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "partition: %d shards:", p.Shards)
	for _, s := range p.Ops {
		fmt.Fprintf(&b, " %s", s.Name)
	}
	return b.String()
}

// partitionable reports the node's partition capability, requiring a
// non-source, non-sink operator whose PartitionKeys accept.
func partitionable(n *graph.Node) (ops.Partitionable, []int, bool) {
	if len(n.Preds) == 0 || len(n.Out) == 0 {
		// A source has nothing upstream to split; a terminal node's output
		// never re-merges, so sharding it would change what the sink sees.
		return nil, nil, false
	}
	pa, ok := n.Op.(ops.Partitionable)
	if !ok {
		return nil, nil, false
	}
	keys, ok := pa.PartitionKeys()
	if !ok || len(keys) != n.Op.NumInputs() {
		return nil, nil, false
	}
	return pa, keys, true
}

// Rewrite expands every partitionable operator of g into shards replicas.
// With shards < 2, or when no operator is partitionable, it returns g
// unchanged and a nil Plan. Otherwise it returns a fresh graph (sharing the
// surviving operator instances with g — the input graph is consumed) and the
// plan describing the expansion.
func Rewrite(g *graph.Graph, shards int) (*graph.Graph, *Plan) {
	if shards < 2 {
		return g, nil
	}
	any := false
	for _, n := range g.Nodes() {
		if _, _, ok := partitionable(n); ok {
			any = true
			break
		}
	}
	if !any {
		return g, nil
	}

	r := graph.NewRewriter(g, g.Name()+"/sharded")
	plan := &Plan{Shards: shards}
	for _, id := range g.TopoOrder() {
		n := g.Node(id)
		pa, keys, ok := partitionable(n)
		if !ok {
			r.Keep(id)
			continue
		}
		sh := Sharded{Name: n.Op.Name(), Shards: shards}
		// One splitter per input port, fed by the image of that port's
		// producer; the splitter carries the producer's output schema.
		for port, pred := range n.Preds {
			split := ops.NewSplit(
				fmt.Sprintf("split:%s.%d", n.Op.Name(), port),
				g.Node(pred).Op.OutSchema(), shards, keys[port])
			sh.Splitters = append(sh.Splitters, r.Add(split, r.Map(pred)))
		}
		// P shard replicas, each consuming port i from splitter i. Shards
		// are added in index order, so splitter i's out-arc s is the arc to
		// shard s — the invariant Split.Exec's EmitTo(s, ·) relies on.
		for s := 0; s < shards; s++ {
			sh.ShardIDs = append(sh.ShardIDs, r.Add(pa.NewShard(s, shards), sh.Splitters...))
		}
		// The min-watermark merge stands in for the original node.
		merge := ops.NewMerge("merge:"+n.Op.Name(), n.Op.OutSchema(), shards)
		sh.Merge = r.Add(merge, sh.ShardIDs...)
		r.SetMap(id, sh.Merge)
		plan.Ops = append(plan.Ops, sh)
	}
	return r.Graph(), plan
}

// Skew summarizes routing imbalance over a per-shard tuple vector (the
// rollup Engine.ShardTuples produces): (max − mean) / mean, so 0 means
// perfectly balanced and 1 means the hottest shard carries twice the mean.
// The observability snapshot reports it as the one-number skew diagnostic.
func Skew(counts []uint64) float64 {
	if len(counts) == 0 {
		return 0
	}
	var total, max uint64
	for _, c := range counts {
		total += c
		if c > max {
			max = c
		}
	}
	if total == 0 {
		return 0
	}
	mean := float64(total) / float64(len(counts))
	return (float64(max) - mean) / mean
}

// Balance computes a bucket→shard assignment over observed per-bucket loads
// using the longest-processing-time greedy: buckets are placed heaviest
// first onto the currently lightest shard, which is within 4/3 of optimal
// makespan and deterministic (ties break toward the lower shard index, equal
// loads toward the lower bucket index). Buckets with zero observed load keep
// the canonical bucket%shards mapping, so cold key groups are not shuffled
// by a rebalance they contributed nothing to. The result is what
// ops.Split.Retarget swaps in at a punctuation barrier.
//
// shards < 1 or an empty load vector returns nil.
func Balance(load []uint64, shards int) []int32 {
	if shards < 1 || len(load) == 0 {
		return nil
	}
	assign := make([]int32, len(load))
	order := make([]int, 0, len(load))
	for b := range load {
		if load[b] == 0 {
			assign[b] = int32(b % shards)
			continue
		}
		order = append(order, b)
	}
	// Heaviest first, bucket index as the deterministic tie-break.
	sort.Slice(order, func(i, j int) bool {
		bi, bj := order[i], order[j]
		if load[bi] != load[bj] {
			return load[bi] > load[bj]
		}
		return bi < bj
	})
	totals := make([]uint64, shards)
	for _, b := range order {
		best := 0
		for s := 1; s < shards; s++ {
			if totals[s] < totals[best] {
				best = s
			}
		}
		assign[b] = int32(best)
		totals[best] += load[b]
	}
	return assign
}
