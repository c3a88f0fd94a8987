package ops

import (
	"testing"

	"repro/internal/tuple"
	"repro/internal/window"
)

// The accept/reject matrix for the Partitionable capability: only
// configurations whose state decomposes by key may shard.
func TestPartitionKeysMatrix(t *testing.T) {
	span := window.TimeWindow(100)
	rows := window.RowWindow(10)
	cases := []struct {
		name string
		op   Operator
		want []int
		ok   bool
	}{
		{"tsm union", NewUnion("u", nil, 3, TSM), []int{-1, -1, -1}, true},
		{"basic union", NewUnion("u", nil, 2, Basic), nil, false},
		{"latent union", NewUnion("u", nil, 2, LatentMode), nil, false},
		{"hash join", NewHashWindowJoin("j", nil, span, span, 0, 1, TSM), []int{0, 1}, true},
		{"equi join", NewEquiWindowJoin("j", nil, span, span, 2, 0, TSM), []int{2, 0}, true},
		{"basic equi join", NewEquiWindowJoin("j", nil, span, span, 0, 0, Basic), nil, false},
		{"opaque-pred join", NewWindowJoin("j", nil, span, CrossJoin(), TSM), nil, false},
		{"row-window join", NewHashWindowJoin("j", nil, rows, rows, 0, 1, TSM), nil, false},
		{"grouped aggregate", NewAggregate("a", nil, 10, 1, AggSpec{Fn: Count}), []int{1}, true},
		{"global aggregate", NewAggregate("a", nil, 10, -1, AggSpec{Fn: Count}), nil, false},
	}
	for _, c := range cases {
		pa, isPa := c.op.(Partitionable)
		if !isPa {
			t.Fatalf("%s: operator does not implement Partitionable", c.name)
		}
		keys, ok := pa.PartitionKeys()
		if ok != c.ok {
			t.Errorf("%s: PartitionKeys ok=%v, want %v", c.name, ok, c.ok)
			continue
		}
		if !ok {
			continue
		}
		if len(keys) != len(c.want) {
			t.Errorf("%s: keys=%v, want %v", c.name, keys, c.want)
			continue
		}
		for i := range keys {
			if keys[i] != c.want[i] {
				t.Errorf("%s: keys=%v, want %v", c.name, keys, c.want)
				break
			}
		}
	}
}

// NewShard must produce a fresh, empty, same-configured operator.
func TestNewShardClonesConfiguration(t *testing.T) {
	span := window.TimeWindow(100)

	j := NewHashWindowJoin("j", nil, span, span, 0, 1, TSM)
	sh := j.NewShard(2, 4).(*WindowJoin)
	if sh.Name() != "j#2" {
		t.Errorf("shard name = %q", sh.Name())
	}
	if sh == j || sh.HashWindow(0) == j.HashWindow(0) {
		t.Fatal("shard shares state with the original")
	}
	if keys, ok := sh.PartitionKeys(); !ok || keys[0] != 0 || keys[1] != 1 {
		t.Errorf("shard lost partitionability: %v %v", keys, ok)
	}

	u := NewUnion("u", nil, 2, TSM)
	u.DedupPunct = false
	if us := u.NewShard(0, 2).(*Union); us.DedupPunct || us.Mode() != TSM {
		t.Errorf("union shard config: dedup=%v mode=%v", us.DedupPunct, us.Mode())
	}

	a := NewSlidingAggregate("a", nil, 10, 5, 0, AggSpec{Fn: Sum, Col: 1})
	as := a.NewShard(1, 2).(*Aggregate)
	if as.Name() != "a#1" || as.width != 10 || as.slide != 5 || as.groupCol != 0 {
		t.Errorf("aggregate shard config: %+v", as)
	}
}

// Sharding an equi-join by key must produce exactly the unsharded output:
// each key's state lives wholly in one shard.
func TestJoinShardsPartitionByKey(t *testing.T) {
	span := window.TimeWindow(1000)
	whole := NewEquiWindowJoin("j", nil, span, span, 0, 0, TSM)
	const P = 4
	shards := make([]*WindowJoin, P)
	for s := range shards {
		shards[s] = whole.NewShard(s, P).(*WindowJoin)
	}
	hw := newHarness(whole)
	hs := make([]*harness, P)
	for s := range hs {
		hs[s] = newHarness(shards[s])
	}
	route := func(key int64) int { return int(tuple.Int(key).Hash() % P) }
	for i := 0; i < 64; i++ {
		key := int64(i % 8)
		l := tuple.NewData(tuple.Time(2*i), tuple.Int(key))
		r := tuple.NewData(tuple.Time(2*i+1), tuple.Int(key))
		hw.ins[0].Push(l)
		hw.ins[1].Push(r)
		k := route(key)
		hs[k].ins[0].Push(l.Clone())
		hs[k].ins[1].Push(r.Clone())
		// Punctuation broadcasts to every shard, as the splitter would.
		for s := range hs {
			hs[s].ins[0].Push(tuple.NewPunct(tuple.Time(2*i + 1)))
			hs[s].ins[1].Push(tuple.NewPunct(tuple.Time(2*i + 1)))
		}
		hw.ins[0].Push(tuple.NewPunct(tuple.Time(2*i + 1)))
		hw.ins[1].Push(tuple.NewPunct(tuple.Time(2*i + 1)))
	}
	hw.run()
	total := 0
	for s := range hs {
		hs[s].run()
		total += len(hs[s].data())
	}
	if want := len(hw.data()); total != want || want == 0 {
		t.Fatalf("sharded join emitted %d matches, unsharded %d", total, want)
	}
}
