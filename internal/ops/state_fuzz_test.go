package ops

import (
	"bytes"
	"container/heap"
	"testing"

	"repro/internal/ckpt"
	"repro/internal/tuple"
	"repro/internal/window"
)

// stateFuzzPanel builds one fresh instance of every stateful operator kind,
// each carrying a little non-trivial state so the seed corpus exercises the
// interesting encoding paths (estimator history, TSM registers, open
// aggregate windows, held reorder tuples, sink hooks).
func stateFuzzPanel() []func() Stateful {
	extSchema := tuple.NewSchema("s", tuple.Field{Name: "v", Kind: tuple.IntKind}).WithTS(tuple.External)
	return []func() Stateful{
		func() Stateful {
			s := NewSource("src", extSchema, 8)
			s.seq, s.emitted, s.etsEmitted = 5, 5, 2
			s.est.SetState(100, 90, true, 99, true)
			return s
		},
		func() Stateful {
			s := NewSource("srci", nil, 0) // internal timestamps
			s.seq, s.emitted = 3, 3
			return s
		},
		func() Stateful {
			k := NewSink("snk", nil)
			val := uint64(7)
			k.StateHooks(
				func(enc *ckpt.Encoder) { enc.U64(val) },
				func(dec *ckpt.Decoder) error { val = dec.U64(); return dec.Err() },
			)
			k.received, k.punct = 3, 1
			return k
		},
		func() Stateful {
			u := NewUnion("u", nil, 2, TSM)
			u.watermark, u.dataOut, u.punctOut = 50, 4, 2
			u.regs.Set(0, 10)
			u.regs.Set(1, 20)
			return u
		},
		func() Stateful {
			u := NewUnion("ul", nil, 3, LatentMode) // no registers
			u.rr, u.dataOut = 2, 7
			return u
		},
		func() Stateful {
			j := NewWindowJoin("j", nil, window.Spec{Rows: 4}, EquiJoin(0, 0), TSM)
			j.watermark = 30
			return j
		},
		func() Stateful {
			return NewHashWindowJoin("hj", nil, window.Spec{Rows: 4}, window.Spec{Span: 16}, 0, 0, TSM)
		},
		func() Stateful {
			a := NewSlidingAggregate("agg", nil, 10, 5, 0,
				AggSpec{Fn: Sum, Col: 1}, AggSpec{Fn: Count})
			a.bound = 7
			a.buckets[2] = map[tuple.Value][]*acc{
				tuple.Int(1): {
					{n: 2, sum: 3.5, min: tuple.Int(1), max: tuple.Int(4), seen: true},
					{n: 2},
				},
			}
			return a
		},
		func() Stateful {
			r := NewReorder("r", nil, 4)
			r.high, r.released, r.out = 20, 16, 9
			r.heapq = tsHeap{
				{Ts: 18, Kind: tuple.Data, Arrived: 19, Seq: 11, Vals: []tuple.Value{tuple.Int(9)}},
				{Ts: 19, Kind: tuple.Data, Arrived: 19, Seq: 12},
			}
			heap.Init(&r.heapq)
			return r
		},
		func() Stateful {
			s := NewSplit("sp", nil, 2, 0)
			s.rr = 1
			return s
		},
	}
}

// FuzzStateRoundTrip drives every operator's RestoreState with arbitrary
// bytes: corrupt payloads must be rejected with an error — never a panic or
// an unbounded allocation — and any payload that does restore must satisfy
// the canonical-encoding contract, save → restore → save byte-identical.
func FuzzStateRoundTrip(f *testing.F) {
	for _, mk := range stateFuzzPanel() {
		var enc ckpt.Encoder
		mk().SaveState(&enc)
		f.Add(enc.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, mk := range stateFuzzPanel() {
			op := mk()
			if op.RestoreState(ckpt.NewDecoder(data)) != nil {
				continue // rejected, as corrupt input should be
			}
			var enc ckpt.Encoder
			op.SaveState(&enc)
			op2 := mk()
			dec := ckpt.NewDecoder(enc.Bytes())
			if err := op2.RestoreState(dec); err != nil {
				t.Fatalf("%T: re-restore of own save failed: %v", op, err)
			}
			if err := dec.Done(); err != nil {
				t.Fatalf("%T: save left trailing bytes: %v", op, err)
			}
			var enc2 ckpt.Encoder
			op2.SaveState(&enc2)
			if !bytes.Equal(enc.Bytes(), enc2.Bytes()) {
				t.Fatalf("%T: save → restore → save not byte-identical\n first: %x\nsecond: %x",
					op, enc.Bytes(), enc2.Bytes())
			}
		}
	})
}
