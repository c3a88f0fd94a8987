package ops

import (
	"fmt"

	"repro/internal/window"
)

// Partitionable is the opt-in capability for hash-partitioned execution.
// The partition rewrite (internal/partition) replicates a partitionable
// operator into P shards, each holding 1/P of the key space, with a Split
// router per input and a min-watermark Merge at the fan-out.
//
// An operator should implement Partitionable only when sharding by the
// returned keys preserves its semantics: every pair (or group) of tuples
// that can produce joint output must land in the same shard, and per-shard
// state must equal the restriction of global state to the shard's keys.
// Order-sensitive operators (reorder) and operators whose state is not
// key-decomposable (global aggregates, row-count windows) must not.
type Partitionable interface {
	Operator
	// PartitionKeys reports, for each input port, the column index whose
	// value hash-routes a tuple to a shard, with -1 meaning any shard may
	// take the tuple (round-robin). The bool is false when the operator is
	// not partitionable in its current configuration — e.g. an opaque join
	// predicate, a row-count window, or a non-TSM execution mode.
	PartitionKeys() ([]int, bool)
	// NewShard returns shard s of p: a fresh operator with the same
	// configuration and empty state. Shards are named "<name>#<s>".
	NewShard(s, p int) Operator
}

// timePartitionable reports whether a window spec's state decomposes by key:
// only pure time-span windows do. A row-count window keeps the newest K
// tuples *globally*; per-shard row windows would keep the newest K per shard,
// which is a different (larger) state, so sharding would change results.
func timePartitionable(spec window.Spec) bool {
	return spec.Span > 0 && spec.Rows == 0
}

// shardName names shard s of a partitioned operator.
func shardName(name string, s int) string { return fmt.Sprintf("%s#%d", name, s) }

// PartitionKeys: a TSM union is key-agnostic — any shard can merge any
// tuple — so every input routes round-robin. Basic mode would idle-wait per
// shard and latent mode is order-sensitive (arrival order), so only TSM
// unions partition.
func (u *Union) PartitionKeys() ([]int, bool) {
	if u.mode != TSM {
		return nil, false
	}
	keys := make([]int, u.inputs)
	for i := range keys {
		keys[i] = -1
	}
	return keys, true
}

// NewShard returns an empty-state TSM union shard.
func (u *Union) NewShard(s, p int) Operator {
	sh := NewUnion(shardName(u.name, s), u.schema, u.inputs, u.mode)
	sh.DedupPunct = u.DedupPunct
	return sh
}

// PartitionKeys: a window equi-join partitions by its key columns when they
// are known (hash or explicit equi-join construction), execution is TSM, and
// both windows are pure time-span — matching key values co-locate, so every
// joinable pair meets in exactly one shard.
func (j *WindowJoin) PartitionKeys() ([]int, bool) {
	if !j.hasKeys || j.mode != TSM {
		return nil, false
	}
	specL, specR := j.specs()
	if !timePartitionable(specL) || !timePartitionable(specR) {
		return nil, false
	}
	return []int{j.keyCols[0], j.keyCols[1]}, true
}

// specs recovers the construction-time window specs from either store kind.
func (j *WindowJoin) specs() (window.Spec, window.Spec) {
	if j.hashed {
		return j.hwin[0].Spec(), j.hwin[1].Spec()
	}
	return j.win[0].Spec(), j.win[1].Spec()
}

// NewShard returns an empty-state join shard of the same store kind.
func (j *WindowJoin) NewShard(s, p int) Operator {
	specL, specR := j.specs()
	name := shardName(j.name, s)
	var sh *WindowJoin
	if j.hashed {
		sh = NewHashWindowJoin(name, j.schema, specL, specR, j.keyCols[0], j.keyCols[1], j.mode)
	} else {
		sh = NewEquiWindowJoin(name, j.schema, specL, specR, j.keyCols[0], j.keyCols[1], j.mode)
	}
	sh.DedupPunct = j.DedupPunct
	return sh
}

// PartitionKeys: a grouped aggregate partitions by its group column — each
// group's accumulators live wholly in one shard, so per-shard results equal
// the global results restricted to the shard's groups. A global aggregate
// (groupCol < 0) would need a cross-shard combine step and is not
// partitionable.
func (a *Aggregate) PartitionKeys() ([]int, bool) {
	if a.groupCol < 0 {
		return nil, false
	}
	return []int{a.groupCol}, true
}

// NewShard returns an empty-state aggregate shard.
func (a *Aggregate) NewShard(s, p int) Operator {
	return NewSlidingAggregate(shardName(a.name, s), a.schema, a.width, a.slide, a.groupCol, a.aggs...)
}
