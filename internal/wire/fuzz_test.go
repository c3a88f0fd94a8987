package wire

import (
	"bytes"
	"testing"

	"repro/internal/tuple"
)

// retiredFrameType is the frame type number TUPLES_COL had (see the reserved
// note beside the FrameType constants).
const retiredFrameType = 12

// FuzzDecodeFrame throws arbitrary bytes at every frame decoder. The
// properties checked:
//
//   - no panic, no unbounded allocation (the corpus runs under the fuzzer's
//     memory limit; maxArity/maxFields/MaxFrame are the guards);
//   - a payload that decodes must re-encode and decode to the same frame
//     (decode ∘ encode ∘ decode = decode — canonical form is a fixpoint);
//   - frame type 12 (the retired TUPLES_COL) never decodes, whatever the
//     payload.
func FuzzDecodeFrame(f *testing.F) {
	seedFrames := []Frame{
		Hello{Version: Version, Name: "fuzz", Clock: 99},
		HelloAck{Version: Version, Session: 7, Credits: 1024},
		Bind{ID: 1, Stream: "s", TS: tuple.External, Delta: 500,
			Fields: []tuple.Field{{Name: "v", Kind: tuple.IntKind}}},
		BindAck{ID: 1, Err: "no"},
		Tuple{ID: 1, T: tuple.NewData(10, tuple.Int(1), tuple.String_("x"))},
		Tuples{ID: 1, Batch: []*tuple.Tuple{tuple.NewData(1, tuple.Float(2.5))}},
		Encoded{ID: 2, N: 2, Seq: 9, Body: AppendTuple(
			AppendTuple(nil, tuple.NewData(3, tuple.TimeVal(4), tuple.Bool(true))),
			tuple.NewData(5, tuple.Int(-1), tuple.Value{}))},
		Punct{ID: 1, TS: tuple.Internal, ETS: 123},
		Heartbeat{Clock: -5},
		Demand{ID: 0, Credits: 10},
		EOS{ID: 3},
		Error{Code: ErrCodeProtocol, Msg: "bad"},
		PlanDeploy{Plan: 11, Spec: []byte{0x01, 0x02, 0x03}},
		PlanDeploy{Plan: 12},
		PlanAck{Plan: 11, Err: "no such stream"},
		PlanAck{Plan: 11},
		PlanStart{Plan: 11},
		PlanStop{Plan: 11},
	}
	for _, fr := range seedFrames {
		f.Add(byte(fr.Type()), fr.encode(nil))
	}
	f.Add(byte(TypeTuple), []byte{0xFF, 0xFF, 0xFF, 0xFF})
	f.Add(byte(250), []byte{})
	// A TUPLES_COL payload as the last release with the columnar plane
	// encoded it (stream 2; puncts 3 and 9 around two three-column rows).
	f.Add(byte(retiredFrameType), []byte{
		0x02, 0x00, 0x00, 0x00, 0x02, 0x02, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x02, 0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0xff, 0x01, 0x01, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xe0, 0x3f, 0x03, 0x01,
		0x01, 0x63, 0x00, 0x04, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01,
	})

	f.Fuzz(func(t *testing.T, typ byte, payload []byte) {
		fr, err := DecodeFrame(FrameType(typ), payload, nil)
		if typ == retiredFrameType && err == nil {
			t.Fatalf("retired frame type %d decoded as %T (payload %x)", typ, fr, payload)
		}
		if err != nil {
			return
		}
		re := fr.encode(nil)
		fr2, err := DecodeFrame(FrameType(typ), re, nil)
		if err != nil {
			t.Fatalf("re-decode of re-encoded frame failed: %v (payload %x)", err, re)
		}
		re2 := fr2.encode(nil)
		if !bytes.Equal(re, re2) {
			t.Fatalf("re-encode not a fixpoint:\n first %x\nsecond %x", re, re2)
		}
	})
}
