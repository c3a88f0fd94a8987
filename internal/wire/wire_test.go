package wire

import (
	"bytes"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/tuple"
)

// roundTrip encodes f, decodes it back, and returns the result.
func roundTrip(t *testing.T, f Frame) Frame {
	t.Helper()
	payload := f.encode(nil)
	got, err := DecodeFrame(f.Type(), payload, nil)
	if err != nil {
		t.Fatalf("%v round trip: %v", f.Type(), err)
	}
	return got
}

func TestRoundTripControlFrames(t *testing.T) {
	frames := []Frame{
		Hello{Version: Version, Flags: 0x10, Name: "bench-client", Clock: 123456789},
		Hello{},
		HelloAck{Version: Version, Session: 42, Credits: 65536},
		Bind{ID: 7, Stream: "sensors", TS: tuple.External, Delta: 5000,
			Fields: []tuple.Field{
				{Name: "id", Kind: tuple.IntKind},
				{Name: "temp", Kind: tuple.FloatKind},
				{Name: "lab", Kind: tuple.StringKind},
			}},
		Bind{ID: 1, Stream: "empty", TS: tuple.Latent},
		BindAck{ID: 7},
		BindAck{ID: 7, Err: "unknown stream \"sensors\""},
		Punct{ID: 3, TS: tuple.External, ETS: 987654},
		Punct{ID: 3, TS: tuple.Internal, ETS: int64max()},
		Punct{ID: 3, TS: tuple.External, ETS: 987654, Trace: 0xfeed0001, Clock: 424242},
		Heartbeat{Clock: -17},
		Demand{ID: 0, Credits: 4096},
		EOS{ID: 9},
		Error{Code: ErrCodeDraining, Msg: "server draining"},
	}
	for _, f := range frames {
		got := roundTrip(t, f)
		if !reflect.DeepEqual(got, f) {
			t.Errorf("%v: got %+v, want %+v", f.Type(), got, f)
		}
	}
}

func int64max() tuple.Time { return tuple.MaxTime }

func TestRoundTripTuple(t *testing.T) {
	in := Tuple{ID: 5, T: tuple.NewData(777,
		tuple.Int(-3), tuple.Float(math.Pi), tuple.String_("héllo"),
		tuple.Bool(true), tuple.TimeVal(12345), tuple.Value{})}
	got := roundTrip(t, in).(Tuple)
	if got.ID != in.ID || got.T.Ts != in.T.Ts || len(got.T.Vals) != len(in.T.Vals) {
		t.Fatalf("got %+v", got)
	}
	for i, v := range in.T.Vals {
		if !got.T.Vals[i].Equal(v) && !(v.IsNull() && got.T.Vals[i].IsNull()) {
			t.Errorf("val %d: got %v, want %v", i, got.T.Vals[i], v)
		}
	}
}

func TestRoundTripTuples(t *testing.T) {
	in := Tuples{ID: 2}
	for i := 0; i < 100; i++ {
		in.Batch = append(in.Batch, tuple.NewData(tuple.Time(i*10), tuple.Int(int64(i)), tuple.String_("v")))
	}
	got := roundTrip(t, in).(Tuples)
	if got.ID != 2 || len(got.Batch) != 100 {
		t.Fatalf("got id=%d len=%d", got.ID, len(got.Batch))
	}
	for i, tp := range got.Batch {
		if tp.Ts != tuple.Time(i*10) || tp.Vals[0].AsInt() != int64(i) {
			t.Fatalf("tuple %d: %v", i, tp)
		}
	}
}

func TestRoundTripSpecialFloats(t *testing.T) {
	for _, f := range []float64{math.Inf(1), math.Inf(-1), math.MaxFloat64, -0.0} {
		in := Tuple{ID: 1, T: tuple.NewData(0, tuple.Float(f))}
		got := roundTrip(t, in).(Tuple)
		if math.Float64bits(got.T.Vals[0].AsFloat()) != math.Float64bits(f) {
			t.Errorf("float %v: got %v", f, got.T.Vals[0].AsFloat())
		}
	}
	// NaN round-trips bit-exact but never compares equal.
	in := Tuple{ID: 1, T: tuple.NewData(0, tuple.Float(math.NaN()))}
	got := roundTrip(t, in).(Tuple)
	if !math.IsNaN(got.T.Vals[0].AsFloat()) {
		t.Errorf("NaN decoded as %v", got.T.Vals[0].AsFloat())
	}
}

func TestDecodeRejectsTruncation(t *testing.T) {
	frames := []Frame{
		Hello{Version: 1, Name: "x", Clock: 5},
		Bind{ID: 1, Stream: "s", Fields: []tuple.Field{{Name: "a", Kind: tuple.IntKind}}},
		Tuple{ID: 1, T: tuple.NewData(9, tuple.Int(4), tuple.String_("abc"))},
		Tuples{ID: 1, Batch: []*tuple.Tuple{tuple.NewData(1, tuple.Int(1))}},
		Punct{ID: 1, TS: tuple.External, ETS: 100},
		Error{Code: 1, Msg: "boom"},
	}
	for _, f := range frames {
		payload := f.encode(nil)
		for cut := 0; cut < len(payload); cut++ {
			if _, err := DecodeFrame(f.Type(), payload[:cut], nil); err == nil {
				t.Errorf("%v truncated at %d/%d decoded without error", f.Type(), cut, len(payload))
			}
		}
	}
}

func TestDecodeRejectsTrailingBytes(t *testing.T) {
	payload := append(EOS{ID: 1}.encode(nil), 0xAA)
	if _, err := DecodeFrame(TypeEOS, payload, nil); err == nil {
		t.Error("trailing byte accepted")
	}
}

func TestDecodeRejectsUnknownType(t *testing.T) {
	if _, err := DecodeFrame(FrameType(200), nil, nil); err == nil {
		t.Error("unknown frame type accepted")
	}
}

func TestDecodeRejectsHugeCounts(t *testing.T) {
	// A corrupted arity/count must not allocate unboundedly.
	var b []byte
	b = putU32(b, 1)         // stream id
	b = putI64(b, 0)         // ts
	b = putUvarint(b, 1<<40) // absurd arity
	if _, err := DecodeFrame(TypeTuple, b, nil); err == nil {
		t.Error("absurd arity accepted")
	}
	var c []byte
	c = putU32(c, 1)
	c = putUvarint(c, 1<<40) // absurd batch count
	if _, err := DecodeFrame(TypeTuples, c, nil); err == nil {
		t.Error("absurd batch count accepted")
	}
}

func TestReaderWriter(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteMagic(); err != nil {
		t.Fatal(err)
	}
	sent := []Frame{
		Hello{Version: Version, Name: "c", Clock: 1},
		Bind{ID: 1, Stream: "s", TS: tuple.External, Delta: 10,
			Fields: []tuple.Field{{Name: "v", Kind: tuple.IntKind}}},
		Tuple{ID: 1, T: tuple.NewData(100, tuple.Int(7))},
		Tuples{ID: 1, Batch: []*tuple.Tuple{
			tuple.NewData(200, tuple.Int(8)),
			tuple.NewData(300, tuple.Int(9)),
		}},
		Punct{ID: 1, TS: tuple.External, ETS: 300},
		Heartbeat{Clock: 12345},
		EOS{ID: 1},
	}
	for _, f := range sent {
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	if w.Frames() != uint64(len(sent)) {
		t.Errorf("writer frames = %d, want %d", w.Frames(), len(sent))
	}

	r := NewReader(&buf)
	if err := r.ReadMagic(); err != nil {
		t.Fatal(err)
	}
	for i, want := range sent {
		got, err := r.Next()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got.Type() != want.Type() {
			t.Fatalf("frame %d: type %v, want %v", i, got.Type(), want.Type())
		}
	}
	if _, err := r.Next(); err != io.EOF {
		t.Fatalf("after last frame: %v, want io.EOF", err)
	}
	if r.Frames() != uint64(len(sent)) {
		t.Errorf("reader frames = %d, want %d", r.Frames(), len(sent))
	}
	if r.Bytes() != w.Bytes() {
		t.Errorf("reader bytes %d != writer bytes %d", r.Bytes(), w.Bytes())
	}
}

func TestReaderBadMagic(t *testing.T) {
	r := NewReader(strings.NewReader("ts_us,v\n100,1\n"))
	if err := r.ReadMagic(); err == nil {
		t.Error("CSV text accepted as magic")
	}
}

func TestReaderMidFrameCut(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	if err := w.WriteFrame(Tuple{ID: 1, T: tuple.NewData(1, tuple.Int(1))}); err != nil {
		t.Fatal(err)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	cut := buf.Bytes()[:buf.Len()-3]
	r := NewReader(bytes.NewReader(cut))
	if _, err := r.Next(); err != io.ErrUnexpectedEOF {
		t.Errorf("mid-frame cut: %v, want io.ErrUnexpectedEOF", err)
	}
}

func TestReaderRejectsOversizedFrame(t *testing.T) {
	var hdr [5]byte
	hdr[0], hdr[1], hdr[2], hdr[3] = 0xFF, 0xFF, 0xFF, 0x7F // ~2 GiB length
	hdr[4] = byte(TypeTuple)
	r := NewReader(bytes.NewReader(hdr[:]))
	if _, err := r.Next(); err == nil || err == io.EOF {
		t.Errorf("oversized frame: %v, want length error", err)
	}
}

// BenchmarkTupleRoundTrip measures the per-tuple encode+decode cost — the
// hot path of the netbench loopback workload.
func BenchmarkTupleRoundTrip(b *testing.B) {
	var buf []byte
	var mag tuple.Magazine
	in := Tuple{ID: 1, T: tuple.NewData(100, tuple.Int(7), tuple.Float(1.5))}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = in.encode(buf[:0])
		f, err := DecodeFrame(TypeTuple, buf, &mag)
		if err != nil {
			b.Fatal(err)
		}
		mag.Put(f.(Tuple).T)
	}
}

// TestPunctTraceCompat pins the optional-trailing-field contract: an
// untraced Punct encodes exactly as the legacy frame (legacy servers keep
// decoding it), and a legacy payload decodes with Trace==0 on a new server.
func TestPunctTraceCompat(t *testing.T) {
	legacy := Punct{ID: 9, TS: tuple.External, ETS: 1000}
	traced := Punct{ID: 9, TS: tuple.External, ETS: 1000, Trace: 77, Clock: 5}
	lp := legacy.encode(nil)
	tp := traced.encode(nil)
	if len(lp) != 4+1+8 {
		t.Fatalf("legacy punct payload = %d bytes, want 13", len(lp))
	}
	if len(tp) != len(lp)+16 {
		t.Fatalf("traced punct payload = %d bytes, want %d", len(tp), len(lp)+16)
	}
	got, err := DecodeFrame(TypePunct, lp, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p := got.(Punct); p.Trace != 0 || p.Clock != 0 || p.ETS != 1000 {
		t.Fatalf("legacy payload decoded to %+v", p)
	}
	// A truncated trailing section (trace without clock) must error, not
	// silently misparse.
	if _, err := DecodeFrame(TypePunct, tp[:len(lp)+8], nil); err == nil {
		t.Fatal("truncated trace context decoded without error")
	}
}

// TestSeqCompat pins the sequencing trailing-field contract on all three
// frames that carry it: an unsequenced frame encodes exactly as the legacy
// payload, a sequenced one appends exactly 8 bytes, and each decodes back.
func TestSeqCompat(t *testing.T) {
	mk := func() *tuple.Tuple { return tuple.NewData(7, tuple.Int(1)) }

	lt := Tuple{ID: 3, T: mk()}.encode(nil)
	st := Tuple{ID: 3, T: mk(), Seq: 41}.encode(nil)
	if len(st) != len(lt)+8 {
		t.Fatalf("sequenced TUPLE payload = %d bytes, want %d", len(st), len(lt)+8)
	}
	if f := mustDecode(t, TypeTuple, lt).(Tuple); f.Seq != 0 {
		t.Fatalf("legacy TUPLE decoded with Seq=%d", f.Seq)
	}
	if f := mustDecode(t, TypeTuple, st).(Tuple); f.Seq != 41 || f.T.Ts != 7 {
		t.Fatalf("sequenced TUPLE decoded to %+v", f)
	}

	lb := Tuples{ID: 3, Batch: []*tuple.Tuple{mk(), mk()}}.encode(nil)
	sb := Tuples{ID: 3, Batch: []*tuple.Tuple{mk(), mk()}, Seq: 90}.encode(nil)
	if len(sb) != len(lb)+8 {
		t.Fatalf("sequenced TUPLES payload = %d bytes, want %d", len(sb), len(lb)+8)
	}
	if f := mustDecode(t, TypeTuples, sb).(Tuples); f.Seq != 90 || len(f.Batch) != 2 {
		t.Fatalf("sequenced TUPLES decoded to %+v", f)
	}

	la := BindAck{ID: 3}.encode(nil)
	sa := BindAck{ID: 3, Seq: 12}.encode(nil)
	if len(sa) != len(la)+8 {
		t.Fatalf("sequenced BIND_ACK payload = %d bytes, want %d", len(sa), len(la)+8)
	}
	if f := mustDecode(t, TypeBindAck, la).(BindAck); f.Seq != 0 {
		t.Fatalf("legacy BIND_ACK decoded with Seq=%d", f.Seq)
	}
	if f := mustDecode(t, TypeBindAck, sa).(BindAck); f.Seq != 12 || f.Err != "" {
		t.Fatalf("sequenced BIND_ACK decoded to %+v", f)
	}
	// A truncated trailing Seq must error, not silently misparse.
	if _, err := DecodeFrame(TypeBindAck, sa[:len(la)+4], nil); err == nil {
		t.Fatal("truncated trailing Seq decoded without error")
	}
}

func mustDecode(t *testing.T, typ FrameType, payload []byte) Frame {
	t.Helper()
	f, err := DecodeFrame(typ, payload, nil)
	if err != nil {
		t.Fatalf("%v decode: %v", typ, err)
	}
	return f
}

// TestHelloAckFlagsCompat pins the capability handshake's backward
// compatibility: a flag-free ack encodes without the trailing field (so
// strict legacy decoders accept it), and a legacy flag-free payload decodes
// on a current endpoint as Flags == 0.
func TestHelloAckFlagsCompat(t *testing.T) {
	plain := HelloAck{Version: Version, Session: 9, Credits: 100}
	legacy := plain.encode(nil)
	withFlags := HelloAck{Version: Version, Session: 9, Credits: 100, Flags: CapSeq}.encode(nil)
	if len(withFlags) != len(legacy)+2 {
		t.Fatalf("flagged ack must append exactly one u16: %d vs %d", len(withFlags), len(legacy))
	}
	got, err := DecodeFrame(TypeHelloAck, legacy, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got.(HelloAck) != plain {
		t.Fatalf("legacy ack decoded as %+v", got)
	}
	got, err = DecodeFrame(TypeHelloAck, withFlags, nil)
	if err != nil {
		t.Fatal(err)
	}
	if ack := got.(HelloAck); ack.Flags != CapSeq {
		t.Fatalf("flags lost: %+v", ack)
	}
}

// TestEncodedMatchesTupleFrames pins the pre-encoded frame to the wire
// format: for the same tuples, Encoded puts on the wire exactly the bytes
// Tuple (one tuple) or Tuples (more) does, header and type byte included,
// with and without a sequence number, over every value kind.
func TestEncodedMatchesTupleFrames(t *testing.T) {
	vals := []tuple.Value{
		{}, tuple.Int(-3), tuple.Int(math.MaxInt64), tuple.Float(0), tuple.Float(math.Copysign(0, -1)),
		tuple.Float(math.Float64frombits(0x7ff8_0000_dead_beef)), tuple.Float(math.Inf(-1)),
		tuple.String_(""), tuple.String_("héllo"), tuple.Bool(true), tuple.Bool(false),
		tuple.TimeVal(-7), tuple.TimeVal(tuple.MaxTime),
	}
	mk := func(n int) []*tuple.Tuple {
		ts := make([]*tuple.Tuple, n)
		for i := range ts {
			// Rotate the kinds through the columns so each appears everywhere.
			row := make([]tuple.Value, len(vals))
			for j := range row {
				row[j] = vals[(i+j)%len(vals)]
			}
			ts[i] = tuple.NewData(tuple.Time(i*3-1), row[:1+i%len(vals)]...)
		}
		return ts
	}
	wireBytes := func(f Frame) []byte {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		if err := w.WriteFrame(f); err != nil {
			t.Fatal(err)
		}
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for _, n := range []int{1, 2, 256} {
		for _, seq := range []uint64{0, 1, 1 << 40} {
			ts := mk(n)
			var body []byte
			for _, tp := range ts {
				body = AppendTuple(body, tp)
			}
			var want Frame = Tuples{ID: 7, Batch: ts, Seq: seq}
			if n == 1 {
				want = Tuple{ID: 7, T: ts[0], Seq: seq}
			}
			got := Encoded{ID: 7, N: n, Body: body, Seq: seq}
			if got.Type() != want.Type() {
				t.Fatalf("n=%d: Encoded is %v, want %v", n, got.Type(), want.Type())
			}
			if g, w := wireBytes(got), wireBytes(want); !bytes.Equal(g, w) {
				t.Fatalf("n=%d seq=%d: Encoded wrote\n%x\nwant\n%x", n, seq, g, w)
			}
		}
	}
}
