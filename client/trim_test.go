package client

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/tuple"
	"repro/internal/wire"
)

// TestApplyAckSeqTrimsByOffset trims one retained frame twice, as two
// reconnects to ever later restored servers would, and checks after each
// that the frame still decodes to exactly the tuples above the watermark.
func TestApplyAckSeqTrimsByOffset(t *testing.T) {
	s := &Stream{c: &Conn{opts: Options{Sequenced: true}}, id: 3}
	for i := 1; i <= 5; i++ {
		// Widths differ, so an offset that is off by a tuple shows.
		s.body = wire.AppendTuple(s.body, tuple.NewData(tuple.Time(i), ints(i)...))
		s.ends = append(s.ends, int32(len(s.body)))
	}
	s.seq = 5
	for _, w := range []uint64{2, 3, 3, 9} {
		s.applyAckSeq(w)
		var want []tuple.Time
		for ts := w + 1; ts <= 5; ts++ {
			want = append(want, tuple.Time(ts))
		}
		if got := decodePending(t, s); !slices.Equal(got, want) {
			t.Fatalf("after watermark %d the frame holds %v, want %v", w, got, want)
		}
	}
	if s.seq != 9 || s.acked != 9 {
		t.Fatalf("seq %d, acked %d after watermark 9, want 9 and 9", s.seq, s.acked)
	}
}

// decodePending writes the stream's pending frame and decodes it, returning
// the timestamps of tuples whose values are intact.
func decodePending(t *testing.T, s *Stream) []tuple.Time {
	t.Helper()
	if len(s.ends) == 0 {
		return nil
	}
	if int(s.ends[len(s.ends)-1]) != len(s.body) {
		t.Fatalf("last offset %d, body %d bytes", s.ends[len(s.ends)-1], len(s.body))
	}
	var buf bytes.Buffer
	w := wire.NewWriter(&buf)
	if err := w.WriteFrame(wire.Encoded{ID: s.id, N: len(s.ends), Body: s.body}); err != nil {
		t.Fatal(err)
	}
	w.Flush()
	f, err := wire.NewReader(&buf).Next()
	if err != nil {
		t.Fatal(err)
	}
	var batch []*tuple.Tuple
	switch f := f.(type) {
	case wire.Tuple:
		batch = []*tuple.Tuple{f.T}
	case wire.Tuples:
		batch = f.Batch
	}
	var got []tuple.Time
	for i, tp := range batch {
		if !slices.Equal(tp.Vals, ints(int(tp.Ts))) {
			t.Fatalf("tuple %d arrived as %v", i, tp)
		}
		// Each tuple's recorded end must be where its body ends.
		if end := wire.AppendTuple(nil, tp); !bytes.Equal(s.body[s.ends[i]-int32(len(end)):s.ends[i]], end) {
			t.Fatalf("offset %d does not end tuple %d", s.ends[i], tp.Ts)
		}
		got = append(got, tp.Ts)
	}
	return got
}

// ints returns n copies of Int(n): tuple n's values, n wide.
func ints(n int) []tuple.Value {
	vals := make([]tuple.Value, n)
	for i := range vals {
		vals[i] = tuple.Int(int64(n))
	}
	return vals
}
