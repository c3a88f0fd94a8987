package ops

import (
	"testing"

	"repro/internal/tuple"
)

func shardOf(h *splitHarness, key int64) int {
	for k := range h.arcs {
		h.arcs[k] = nil
	}
	h.in.Push(tuple.NewData(h.s.MaxTs()+1, tuple.Int(key)))
	h.run()
	for k, arc := range h.arcs {
		if len(arc) > 0 {
			return k
		}
	}
	return -1
}

func TestSplitRetargetAppliesAtBarrier(t *testing.T) {
	s := NewSplit("sp", nil, 4, 0)
	h := newSplitHarness(s)

	const key = 7
	before := shardOf(h, key)
	bucket := int(tuple.Int(key).Hash() % SplitBuckets)

	// Move the key's bucket to a different shard, fenced at ts 100.
	assign := s.Assignment()
	target := (before + 1) % 4
	assign[bucket] = int32(target)
	var appliedAt tuple.Time = -1
	s.OnApply(func(b tuple.Time) { appliedAt = b })
	if !s.Retarget(assign, 100) {
		t.Fatal("Retarget rejected")
	}
	if s.AssignVersion() != 0 {
		t.Fatal("retarget must not count as applied before its barrier")
	}

	// Pre-barrier tuples keep the old route.
	h.arcs[before], h.arcs[target] = nil, nil
	h.in.Push(tuple.NewData(50, tuple.Int(key)))
	h.run()
	if len(h.arcs[before]) != 1 {
		t.Fatalf("ts<barrier tuple left shard %d: %v", before, h.arcs)
	}

	// Post-barrier tuples route through the new table even before the
	// punctuation promotes it.
	h.arcs[before], h.arcs[target] = nil, nil
	h.in.Push(tuple.NewData(150, tuple.Int(key)))
	h.run()
	if len(h.arcs[target]) != 1 {
		t.Fatalf("ts>=barrier tuple not on new shard %d: %v", target, h.arcs)
	}

	// The punctuation at/above the barrier retires the old table.
	h.in.Push(tuple.NewPunct(100))
	h.run()
	if s.AssignVersion() != 1 {
		t.Fatalf("AssignVersion = %d after barrier punct, want 1", s.AssignVersion())
	}
	if appliedAt != 100 {
		t.Fatalf("OnApply barrier = %d, want 100", appliedAt)
	}
	if got := s.Assignment()[bucket]; got != int32(target) {
		t.Fatalf("promoted table bucket = %d, want %d", got, target)
	}

	h.arcs[before], h.arcs[target] = nil, nil
	h.in.Push(tuple.NewData(200, tuple.Int(key)))
	h.run()
	if len(h.arcs[target]) != 1 {
		t.Fatalf("post-promotion tuple not on new shard %d", target)
	}
}

func TestSplitRetargetRejections(t *testing.T) {
	rr := NewSplit("rr", nil, 2, -1)
	if rr.Retarget(make([]int32, SplitBuckets), 10) {
		t.Error("round-robin splitter accepted a retarget")
	}
	s := NewSplit("sp", nil, 2, 0)
	if s.Retarget(make([]int32, 10), 10) {
		t.Error("short table accepted")
	}
	bad := make([]int32, SplitBuckets)
	bad[0] = 5 // out of range for 2 shards
	if s.Retarget(bad, 10) {
		t.Error("out-of-range shard accepted")
	}
	ok := make([]int32, SplitBuckets)
	if !s.Retarget(ok, 10) {
		t.Fatal("valid retarget rejected")
	}
	if s.Retarget(ok, 20) {
		t.Error("second retarget accepted while one is pending")
	}
}

func TestSplitBucketLoadsAndMaxTs(t *testing.T) {
	s := NewSplit("sp", nil, 2, 0)
	h := newSplitHarness(s)
	for i := 0; i < 10; i++ {
		h.in.Push(tuple.NewData(tuple.Time(i), tuple.Int(7)))
	}
	h.run()
	if got := s.BucketLoads().Total(); got != 10 {
		t.Fatalf("bucket load total = %d, want 10", got)
	}
	b := int(tuple.Int(7).Hash() % SplitBuckets)
	if got := s.BucketLoads().Get(b); got != 10 {
		t.Fatalf("bucket %d load = %d, want 10", b, got)
	}
	if s.MaxTs() != 9 {
		t.Fatalf("MaxTs = %d, want 9", s.MaxTs())
	}
}
