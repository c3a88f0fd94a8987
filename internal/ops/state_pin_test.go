package ops

import (
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/tuple"
)

// splitPin is a two-shard splitter's segment: its shape, cursor, version and
// high mark, then the default table, buckets alternating shards 0 and 1.
var splitPin = "0802000000000000000000000000000000000000000000000000000000000000000000000000000000" + strings.Repeat("0001", SplitBuckets/2)

// The checkpoint segments of the operators a cut passes through, pinned to
// ckpt.Version: a change to these bytes must bump the version (a stored
// checkpoint of the old layout would restore wrong) and update the pins.
func TestSegmentBytesPinnedToVersion(t *testing.T) {
	const version = 2
	if ckpt.Version != version {
		t.Fatalf("ckpt.Version %d: re-pin the segments below for version %d", ckpt.Version, ckpt.Version)
	}
	sch := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(tuple.External)
	src := NewSource("s", sch, 0)
	u := NewUnion("u", nil, 2, TSM)
	h := newHarness(src)
	for ts := tuple.Time(10); ts <= 30; ts += 10 {
		src.Ingest(tuple.NewData(ts, tuple.Int(int64(ts))), ts+1)
	}
	src.Offer(tuple.NewPunct(35))
	h.run()
	hu := newHarness(u)
	hu.ins[0].PushAll(h.out)
	hu.ins[1].PushAll([]*tuple.Tuple{tuple.NewData(15), tuple.NewPunct(25), tuple.NewData(40)})
	hu.run()
	sp := NewSplit("sp", nil, 2, 0)
	sp.Retarget(make([]int32, SplitBuckets), 100) // pending: not part of the segment
	for name, tc := range map[string]struct {
		op   Stateful
		want string
	}{
		"source": {src, "0100030301011e000000000000001f0000000000000001230000000000000001"},
		"union":  {u, "0301230000000000000000000000000000000402010223000000000000002800000000000000"},
		"split":  {sp, splitPin},
	} {
		var enc ckpt.Encoder
		tc.op.SaveState(&enc)
		if got := hex.EncodeToString(enc.Bytes()); got != tc.want {
			t.Errorf("%s segment %s, pinned %s", name, got, tc.want)
		}
	}
}
