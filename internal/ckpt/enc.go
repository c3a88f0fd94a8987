// Package ckpt implements punctuation-aligned checkpointing for operator
// state. A checkpoint is a consistent cut of the query graph at one
// timestamp T: every source emits a barrier punctuation at T where its
// stream reaches T, the barrier flows the ordinary arcs (inheriting the
// shard broadcast and min-watermark merge alignment the partition rewrite
// already provides for punctuation), and each stateful operator snapshots
// its state the moment the barrier applies — no pause, no global lock,
// exactly the frontier-aligned coordination the punctuation mechanism makes
// cheap.
//
// The package has three layers:
//
//   - Encoder/Decoder: a versioned, self-describing binary codec in the
//     spirit of internal/wire, used by every operator's SaveState and
//     RestoreState. Snapshots produced by one build remain restorable by the
//     next as long as the version byte matches.
//   - Store: an on-disk checkpoint directory — per-checkpoint subdirectories
//     written to a temp name, fsynced, and atomically renamed, holding a
//     MANIFEST plus a STATE file of CRC-framed per-node segments. A crash at
//     any point leaves either a complete checkpoint or a skippable temp dir.
//   - Coordinator: the periodic trigger driving an Engine (the runtime)
//     through barrier injection, snapshot collection, and durable write.
package ckpt

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/tuple"
)

// Version is the snapshot encoding version. Bumped on any incompatible
// change to the per-operator encodings or to what they mean; Restore rejects
// mismatches rather than guessing. Version 2: Value.Hash changed, so a Split's
// saved bucket→shard table (buckets are Hash % SplitBuckets) no longer
// places a key on the shard that holds its state under version 1.
const Version = 2

// ErrCorrupt reports a snapshot that failed structural validation (bad
// magic, short payload, CRC mismatch, or an operator shape that does not
// match the restoring graph).
var ErrCorrupt = errors.New("ckpt: corrupt snapshot")

// Encoder builds one operator's state payload. The zero Encoder is ready to
// use; Bytes returns the accumulated buffer.
type Encoder struct {
	b []byte
}

// Bytes returns the encoded payload.
func (e *Encoder) Bytes() []byte { return e.b }

// Len reports the encoded size so far.
func (e *Encoder) Len() int { return len(e.b) }

// U8 appends one byte.
func (e *Encoder) U8(v uint8) { e.b = append(e.b, v) }

// U32 appends a little-endian uint32.
func (e *Encoder) U32(v uint32) { e.b = binary.LittleEndian.AppendUint32(e.b, v) }

// U64 appends a little-endian uint64.
func (e *Encoder) U64(v uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, v) }

// I64 appends a little-endian int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Uvarint appends an unsigned varint.
func (e *Encoder) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.U8(1)
	} else {
		e.U8(0)
	}
}

// Time appends a virtual-time value.
func (e *Encoder) Time(t tuple.Time) { e.I64(int64(t)) }

// String appends a length-prefixed string.
func (e *Encoder) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Value appends one tagged attribute value (kind byte + payload), the same
// shape internal/wire uses on the network.
func (e *Encoder) Value(v tuple.Value) {
	e.U8(uint8(v.Kind()))
	switch v.Kind() {
	case tuple.Null:
	case tuple.IntKind:
		e.I64(v.AsInt())
	case tuple.FloatKind:
		e.U64(math.Float64bits(v.AsFloat()))
	case tuple.StringKind:
		e.String(v.AsString())
	case tuple.BoolKind:
		e.Bool(v.AsBool())
	case tuple.TimeKind:
		e.Time(v.AsTime())
	}
}

// Tuple appends one data tuple: timestamp, arrival, seq, and values.
// Punctuation never lives in operator state, so only data tuples are
// encoded.
func (e *Encoder) Tuple(t *tuple.Tuple) {
	e.Time(t.Ts)
	e.Time(t.Arrived)
	e.Uvarint(t.Seq)
	e.Uvarint(uint64(len(t.Vals)))
	for _, v := range t.Vals {
		e.Value(v)
	}
}

// maxArity bounds decoded tuple width, matching the wire codec's guard.
const maxArity = 1 << 12

// Decoder reads back an Encoder's payload. Errors are sticky: after the
// first failure every accessor returns zero values and Err reports the
// cause, so restore code can decode straight through and check once.
type Decoder struct {
	b   []byte
	off int
	err error
}

// NewDecoder wraps an encoded payload.
func NewDecoder(b []byte) *Decoder { return &Decoder{b: b} }

// Err reports the first decoding failure, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining reports the unread byte count — the sanity bound for decoded
// element counts: every encoded element costs at least one byte, so a count
// above Remaining proves corruption before any count-sized allocation.
func (d *Decoder) Remaining() int { return len(d.b) - d.off }

// Done verifies the payload was consumed exactly.
func (d *Decoder) Done() error {
	if d.err == nil && d.off != len(d.b) {
		d.err = fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.b)-d.off)
	}
	return d.err
}

func (d *Decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("%w: short payload at offset %d", ErrCorrupt, d.off)
	}
}

// U8 reads one byte.
func (d *Decoder) U8() uint8 {
	if d.err != nil || d.off+1 > len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

// U32 reads a little-endian uint32.
func (d *Decoder) U32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

// U64 reads a little-endian uint64.
func (d *Decoder) U64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

// I64 reads a little-endian int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.b[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// Bool reads a boolean.
func (d *Decoder) Bool() bool { return d.U8() != 0 }

// Time reads a virtual-time value.
func (d *Decoder) Time() tuple.Time { return tuple.Time(d.I64()) }

// String reads a length-prefixed string.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(len(d.b)-d.off) {
		d.fail()
		return ""
	}
	s := string(d.b[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// Value reads one tagged attribute value.
func (d *Decoder) Value() tuple.Value {
	switch k := tuple.ValueKind(d.U8()); k {
	case tuple.Null:
		return tuple.Value{}
	case tuple.IntKind:
		return tuple.Int(d.I64())
	case tuple.FloatKind:
		return tuple.Float(math.Float64frombits(d.U64()))
	case tuple.StringKind:
		return tuple.String_(d.String())
	case tuple.BoolKind:
		return tuple.Bool(d.Bool())
	case tuple.TimeKind:
		return tuple.TimeVal(d.Time())
	default:
		if d.err == nil {
			d.err = fmt.Errorf("%w: unknown value kind %d", ErrCorrupt, k)
		}
		return tuple.Value{}
	}
}

// Tuple reads one data tuple, freshly allocated (restored state must not
// alias pooled tuples the runtime may recycle).
func (d *Decoder) Tuple() *tuple.Tuple {
	ts := d.Time()
	arrived := d.Time()
	seq := d.Uvarint()
	arity := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if arity > maxArity {
		d.err = fmt.Errorf("%w: tuple arity %d", ErrCorrupt, arity)
		return nil
	}
	t := &tuple.Tuple{Ts: ts, Kind: tuple.Data, Arrived: arrived, Seq: seq}
	if arity > 0 {
		t.Vals = make([]tuple.Value, arity)
		for i := range t.Vals {
			t.Vals[i] = d.Value()
		}
	}
	return t
}
