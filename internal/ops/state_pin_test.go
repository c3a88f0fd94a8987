package ops

import (
	"encoding/hex"
	"strings"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/tuple"
	"repro/internal/window"
)

// splitPin is a two-shard splitter's segment: its shape, cursor, version and
// high mark, then the default table, buckets alternating shards 0 and 1.
var splitPin = "0802000000000000000000000000000000000000000000000000000000000000000000000000000000" + strings.Repeat("0001", SplitBuckets/2)

// joinPin is a TSM hash join's segment: its shape, watermark, counters and
// registers, then each side's window (spec, counters, live tuples).
var joinPin = "0401010100000000000000000000000000000000230000000000000002010202012800000000000000230000000000000014000000000000000000000000000000000000000000000002020101140000000000000000000000000000000001010200000000000000140000000000000000000000000000000000000000000000020200020f0000000000000000000000000000000001010100000000000000230000000000000000000000000000000001010200000000000000"

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
	// A TSM hash join with rows in both windows, one of them expired by the
	// right side's punctuation, and a bound conveyed downstream.
	j := NewHashWindowJoin("j", nil, window.TimeWindow(20), window.TimeWindow(20), 0, 0, TSM)
	hj := newHarness(j)
	hj.ins[0].PushAll([]*tuple.Tuple{keyed(10, 1), keyed(20, 2), tuple.NewPunct(40)})
	hj.ins[1].PushAll([]*tuple.Tuple{keyed(15, 1), tuple.NewPunct(32), keyed(35, 2)})
	hj.run()
	sp := NewSplit("sp", nil, 2, 0)
	sp.Retarget(make([]int32, SplitBuckets), 100) // pending: not part of the segment
	for name, tc := range map[string]struct {
		op   Stateful
		want string
	}{
		"source": {src, "0100030301011e000000000000001f0000000000000001230000000000000001"},
		"union":  {u, "0301230000000000000000000000000000000402010223000000000000002800000000000000"},
		"join":   {j, joinPin},
		"split":  {sp, splitPin},
	} {
		var enc ckpt.Encoder
		tc.op.SaveState(&enc)
		if got := hex.EncodeToString(enc.Bytes()); got != tc.want {
			t.Errorf("%s segment %s, pinned %s", name, got, tc.want)
		}
	}
}
