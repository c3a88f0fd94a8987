// Package wire defines the binary framing protocol of the networked
// ingestion subsystem: the on-the-wire form of tuples and — crucially — of
// the timestamp-management metadata the paper's external-timestamp rule
// needs (§5: ETS = t + τ − δ under a bounded skew δ). A transport that
// ships only data tuples silently degrades every remote stream to the
// no-ETS worst case, because punctuation, heartbeats, and skew samples
// never cross the socket; here they are first-class frame types, following
// the progress-as-transport-element argument of timestamp tokens (Lattuada
// & McSherry) and punctuation feedback (Fernández-Moctezuma et al.).
//
// # Framing
//
// A binary connection opens with the 4-byte magic "\xF5SM1" (the first byte
// is outside ASCII so a legacy CSV line can never alias it), followed by a
// stream of length-prefixed frames:
//
//	uint32  payload length N (little endian, ≤ MaxFrame)
//	uint8   frame type
//	N bytes payload
//
// Payload scalars are little-endian fixed width; strings and counts use
// uvarints. Encoding appends to a caller-supplied buffer and decoding
// slices the frame payload in place (strings are copied out, since the
// reader reuses its buffer), so the steady state allocates nothing beyond
// the tuples themselves — and those come sized from the reader's magazine,
// a slab of them at a time (see Reader).
//
// # Frame inventory
//
//	HELLO / HELLO_ACK  version + capability negotiation; HELLO carries the
//	                   sender's clock (first skew sample), HELLO_ACK the
//	                   session id and the initial tuple credit window
//	BIND / BIND_ACK    per-stream registration: name, schema, timestamp
//	                   kind, and skew bound δ, checked against the server's
//	                   catalog
//	TUPLE / TUPLES     one data tuple / a batch of data tuples
//	PUNCT              punctuation (ETS) carrying its timestamp kind — the
//	                   wire form of the paper's enabling timestamps
//	HEARTBEAT          sender clock sample for the per-connection skew
//	                   estimator (τ and δ measurement), sent on a timer
//	DEMAND             back-channel credit grant: the transport form of the
//	                   runtime's upstream demand/backpressure signal
//	EOS                end-of-stream for one bound stream
//	ERROR              terminal diagnostic (protocol violation, drain)
//	PLAN_DEPLOY / PLAN_ACK / PLAN_START / PLAN_STOP
//	                   control plane for distributed execution: a coordinator
//	                   ships serialized plan fragments to worker streamd
//	                   instances and sequences their start/stop (see
//	                   planframe.go and internal/dist)
package wire

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"

	"repro/internal/tuple"
)

// Version is the protocol version this package speaks. HELLO carries the
// sender's highest supported version; the receiver answers with min(its own,
// offered) and both sides speak that.
const Version = 1

// Magic is the 4-byte connection preamble of a binary session. Its first
// byte is deliberately non-ASCII: a server peeking at the first bytes of a
// connection can tell a binary session from a legacy CSV text feed.
var Magic = [4]byte{0xF5, 'S', 'M', '1'}

// MaxFrame bounds a frame's payload length; longer frames are a protocol
// error (a corrupted or hostile length prefix must not make the reader
// allocate gigabytes).
const MaxFrame = 1 << 24

// FrameType identifies a frame's payload shape.
type FrameType uint8

const (
	// TypeHello opens a session (client → server).
	TypeHello FrameType = 1
	// TypeHelloAck accepts a session (server → client).
	TypeHelloAck FrameType = 2
	// TypeBind registers a stream on the session (client → server).
	TypeBind FrameType = 3
	// TypeBindAck accepts or rejects a registration (server → client).
	TypeBindAck FrameType = 4
	// TypeTuple carries one data tuple.
	TypeTuple FrameType = 5
	// TypeTuples carries a batch of data tuples for one stream.
	TypeTuples FrameType = 6
	// TypePunct carries an enabling timestamp (punctuation).
	TypePunct FrameType = 7
	// TypeHeartbeat carries a sender clock sample for skew estimation.
	TypeHeartbeat FrameType = 8
	// TypeDemand is the back-channel credit grant (server → client).
	TypeDemand FrameType = 9
	// TypeEOS closes one bound stream.
	TypeEOS FrameType = 10
	// TypeError reports a terminal condition and closes the session.
	TypeError FrameType = 11
	// 12 is reserved: it was TUPLES_COL, retired with the columnar data
	// plane. It decodes as an unknown frame type and must not be reassigned.
)

func (t FrameType) String() string {
	switch t {
	case TypeHello:
		return "HELLO"
	case TypeHelloAck:
		return "HELLO_ACK"
	case TypeBind:
		return "BIND"
	case TypeBindAck:
		return "BIND_ACK"
	case TypeTuple:
		return "TUPLE"
	case TypeTuples:
		return "TUPLES"
	case TypePunct:
		return "PUNCT"
	case TypeHeartbeat:
		return "HEARTBEAT"
	case TypeDemand:
		return "DEMAND"
	case TypeEOS:
		return "EOS"
	case TypeError:
		return "ERROR"
	case TypePlanDeploy:
		return "PLAN_DEPLOY"
	case TypePlanAck:
		return "PLAN_ACK"
	case TypePlanStart:
		return "PLAN_START"
	case TypePlanStop:
		return "PLAN_STOP"
	default:
		return fmt.Sprintf("FrameType(%d)", uint8(t))
	}
}

// Error codes carried by ERROR frames.
const (
	// ErrCodeProtocol: the peer violated the protocol (bad frame, bad
	// state); the session is closed.
	ErrCodeProtocol uint16 = 1
	// ErrCodeDraining: the server is shutting down gracefully; clients
	// should stop sending and reconnect elsewhere (or later).
	ErrCodeDraining uint16 = 2
	// ErrCodeBind: a BIND failed (unknown stream, schema mismatch).
	ErrCodeBind uint16 = 3
)

// Frame is the decoded form of one wire frame.
type Frame interface {
	// Type reports the frame's wire type tag.
	Type() FrameType
	// encode appends the frame's payload (without length prefix or type
	// byte) to b.
	encode(b []byte) []byte
}

// Hello opens a session.
type Hello struct {
	// Version is the highest protocol version the client speaks.
	Version uint16
	// Flags is reserved capability bits (0 for now).
	Flags uint16
	// Name identifies the client (diagnostics, metrics labels).
	Name string
	// Clock is the client's clock in µs at send time — the session's first
	// skew sample.
	Clock int64
}

// HelloAck accepts a session.
type HelloAck struct {
	// Version is the negotiated protocol version.
	Version uint16
	// Session is the server-assigned session id.
	Session uint64
	// Credits is the initial tuple credit window: the client may send this
	// many data tuples before it must wait for a DEMAND grant.
	Credits uint32
	// Flags echoes the subset of the client's HELLO capability bits the
	// server granted (CapTrace, CapSeq). Encoded as an optional trailing
	// field only when non-zero, so version-1 decoders that reject trailing
	// bytes still accept acks from capability-free negotiations — and a
	// capability-bearing ack only ever goes to a client that asked for the
	// capability, hence understands the field.
	Flags uint16
}

// Bind registers a stream on the session. The ID is chosen by the client
// and scopes every later TUPLE/TUPLES/PUNCT/EOS frame.
type Bind struct {
	// ID is the client-chosen stream id (unique per session).
	ID uint32
	// Stream is the server-side stream name to bind to.
	Stream string
	// TS is the stream's timestamp kind as the client understands it.
	TS tuple.TSKind
	// Delta is the client's declared skew bound δ (µs, external streams).
	Delta tuple.Time
	// Fields is the schema the client will send, checked against the
	// server's catalog entry for Stream.
	Fields []tuple.Field
}

// BindAck accepts (Err == "") or rejects one Bind.
type BindAck struct {
	// ID echoes the Bind's stream id.
	ID uint32
	// Err is empty on success, else the rejection reason.
	Err string
	// Seq is the server's last-applied ingest sequence number for the
	// stream (0 = none, or sequencing not in use): the dedupe watermark a
	// reconnecting client trims its retained resend batch against, so a
	// crash-restored server tells each producer exactly where to resume.
	// Optional trailing field, encoded only when non-zero under CapSeq
	// (same scheme as HelloAck.Flags).
	Seq uint64
}

// Tuple carries one data tuple for a bound stream.
type Tuple struct {
	// ID is the bound stream id.
	ID uint32
	// T is the tuple; Ts is its external timestamp (ignored by the server
	// for internal/latent streams, which stamp on arrival).
	T *tuple.Tuple
	// Seq is the client-assigned per-stream sequence number (1-based,
	// contiguous; 0 = unsequenced). The server applies the tuple only when
	// Seq exceeds its last-applied watermark, making retained-batch resend
	// after reconnect or crash recovery idempotent. Optional trailing
	// field, encoded only when non-zero under CapSeq.
	Seq uint64
}

// Tuples carries a batch of data tuples for one bound stream.
type Tuples struct {
	// ID is the bound stream id.
	ID uint32
	// Batch holds the tuples, in send order.
	Batch []*tuple.Tuple
	// Seq is the sequence number of the first tuple in Batch; the batch
	// occupies Seq..Seq+len(Batch)-1 (client-assigned, contiguous; 0 =
	// unsequenced). Optional trailing field, encoded only when non-zero
	// under CapSeq.
	Seq uint64
}

// Encoded carries tuple bodies encoded in advance with AppendTuple: a TUPLE
// frame when N is 1 and a TUPLES frame otherwise, byte for byte what Tuple
// or Tuples writes for the same tuples. A sender that encodes each tuple as
// it arrives can recycle the tuple at once instead of holding it until the
// frame is written. It is an encoding-side frame: decoding yields Tuple or
// Tuples.
type Encoded struct {
	// ID is the bound stream id.
	ID uint32
	// N is the number of tuple bodies in Body.
	N int
	// Body holds the N tuple bodies back to back, in send order.
	Body []byte
	// Seq is the sequence number of the first tuple, as in Tuples.Seq.
	Seq uint64
}

// Punct carries an enabling timestamp: a promise that no future tuple on
// this stream will carry a timestamp below ETS.
type Punct struct {
	// ID is the bound stream id.
	ID uint32
	// TS is the timestamp kind the promise is expressed in; the server
	// applies external punctuation directly and ignores the value for
	// internal/latent streams (their bounds live on the server clock).
	TS tuple.TSKind
	// ETS is the promised lower bound (µs).
	ETS tuple.Time
	// Trace is the punctuation-propagation trace ID (0 = untraced) and
	// Clock the sender's clock at the moment of sending (µs); together
	// they let the server splice the network hop into the punctuation's
	// span timeline. Both ride as optional trailing bytes — encoded only
	// when Trace is non-zero and the session negotiated CapTrace — so
	// legacy decoders never see them (the same scheme as HelloAck.Flags).
	Trace uint64
	Clock int64
}

// Capability bit 1<<0 is reserved: it offered TUPLES_COL frames and was
// retired with the columnar data plane. A server never grants it and it must
// not be reassigned.

// CapTrace is the HELLO/HELLO_ACK capability bit for punctuation trace
// context on PUNCT frames. A client that sets it offers trace IDs; the
// server echoes it when span collection is enabled, and only then may
// either side append the trailing Trace/Clock fields.
const CapTrace uint16 = 1 << 1

// CapSeq is the HELLO/HELLO_ACK capability bit for per-stream tuple
// sequencing: TUPLE/TUPLES frames carry a trailing client-assigned sequence
// number, BIND_ACK carries the server's last-applied watermark, and the
// server suppresses duplicates below it. Together with the client's
// retained-batch resend this upgrades reconnect and crash-restore replay
// from at-least-once to effectively exactly-once.
const CapSeq uint16 = 1 << 2

// Heartbeat carries a sender clock sample. The receiver records
// (senderClock, receiveClock) pairs; the spread of their differences bounds
// the connection's skew δ and the elapsed time since the last sample is the
// τ of the paper's ETS rule.
type Heartbeat struct {
	// Clock is the sender's clock in µs at send time.
	Clock int64
}

// Demand is the back-channel credit grant: the wire form of the runtime's
// upstream demand signal, doubling as flow control. Credits are additive.
type Demand struct {
	// ID is the bound stream id the demand concerns (0 = whole session).
	ID uint32
	// Credits is the number of additional data tuples the client may send.
	Credits uint32
}

// EOS closes one bound stream: no further frames for this id will follow.
type EOS struct {
	// ID is the bound stream id.
	ID uint32
}

// Error reports a terminal condition.
type Error struct {
	// Code classifies the error (ErrCode*).
	Code uint16
	// Msg is a human-readable diagnostic.
	Msg string
}

// Type implementations.

// Type reports TypeHello.
func (Hello) Type() FrameType { return TypeHello }

// Type reports TypeHelloAck.
func (HelloAck) Type() FrameType { return TypeHelloAck }

// Type reports TypeBind.
func (Bind) Type() FrameType { return TypeBind }

// Type reports TypeBindAck.
func (BindAck) Type() FrameType { return TypeBindAck }

// Type reports TypeTuple.
func (Tuple) Type() FrameType { return TypeTuple }

// Type reports TypeTuples.
func (Tuples) Type() FrameType { return TypeTuples }

// Type reports TypeTuple for one tuple body and TypeTuples otherwise.
func (f Encoded) Type() FrameType {
	if f.N == 1 {
		return TypeTuple
	}
	return TypeTuples
}

// Type reports TypePunct.
func (Punct) Type() FrameType { return TypePunct }

// Type reports TypeHeartbeat.
func (Heartbeat) Type() FrameType { return TypeHeartbeat }

// Type reports TypeDemand.
func (Demand) Type() FrameType { return TypeDemand }

// Type reports TypeEOS.
func (EOS) Type() FrameType { return TypeEOS }

// Type reports TypeError.
func (Error) Type() FrameType { return TypeError }

// --- encoding primitives ---

func putU16(b []byte, v uint16) []byte {
	return append(b, byte(v), byte(v>>8))
}

func putU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func putU64(b []byte, v uint64) []byte {
	return append(b,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

func putI64(b []byte, v int64) []byte { return putU64(b, uint64(v)) }

func putUvarint(b []byte, v uint64) []byte {
	return binary.AppendUvarint(b, v)
}

func putString(b []byte, s string) []byte {
	b = putUvarint(b, uint64(len(s)))
	return append(b, s...)
}

// decoder walks one frame payload. Scalar reads fail by setting err once;
// callers check it after the last read (the payload is bounded, so a
// truncated frame cannot over-read — every get* checks remaining length).
type decoder struct {
	b   []byte
	off int
	err error
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = fmt.Errorf("wire: truncated frame payload at offset %d", d.off)
	}
}

func (d *decoder) u16() uint16 {
	if d.err != nil || d.off+2 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint16(d.b[d.off:])
	d.off += 2
	return v
}

func (d *decoder) u32() uint32 {
	if d.err != nil || d.off+4 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint32(d.b[d.off:])
	d.off += 4
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.b) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.b[d.off:])
	d.off += 8
	return v
}

func (d *decoder) i64() int64 { return int64(d.u64()) }

func (d *decoder) byte() byte {
	if d.err != nil || d.off >= len(d.b) {
		d.fail()
		return 0
	}
	v := d.b[d.off]
	d.off++
	return v
}

func (d *decoder) uvarint() uint64 {
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

// str copies the string out of the payload: the reader's buffer is reused
// across frames, so decoded frames must not alias it.
func (d *decoder) str() string {
	n := d.uvarint()
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

// remaining reports the unconsumed payload length — the allocation bound
// for count-prefixed sections (a hostile count must not out-allocate the
// bytes actually on the wire).
func (d *decoder) remaining() int { return len(d.b) - d.off }

// done verifies the whole payload was consumed; trailing bytes are a
// protocol error (they would mask version-skew bugs silently otherwise).
func (d *decoder) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.b) {
		return fmt.Errorf("wire: %d trailing bytes in frame payload", len(d.b)-d.off)
	}
	return nil
}

// --- value codec ---

// appendValue encodes one attribute value: a kind tag then the payload.
func appendValue(b []byte, v tuple.Value) []byte {
	b = append(b, byte(v.Kind()))
	switch v.Kind() {
	case tuple.Null:
	case tuple.IntKind:
		b = putI64(b, v.AsInt())
	case tuple.FloatKind:
		b = putU64(b, math.Float64bits(v.AsFloat()))
	case tuple.StringKind:
		b = putString(b, v.AsString())
	case tuple.BoolKind:
		if v.AsBool() {
			b = append(b, 1)
		} else {
			b = append(b, 0)
		}
	case tuple.TimeKind:
		b = putI64(b, int64(v.AsTime()))
	}
	return b
}

func (d *decoder) value() tuple.Value {
	switch tuple.ValueKind(d.byte()) {
	case tuple.Null:
		return tuple.Value{}
	case tuple.IntKind:
		return tuple.Int(d.i64())
	case tuple.FloatKind:
		return tuple.Float(math.Float64frombits(d.u64()))
	case tuple.StringKind:
		return tuple.String_(d.str())
	case tuple.BoolKind:
		return tuple.Bool(d.byte() != 0)
	case tuple.TimeKind:
		return tuple.TimeVal(tuple.Time(d.i64()))
	default:
		if d.err == nil {
			d.err = fmt.Errorf("wire: unknown value kind at offset %d", d.off-1)
		}
		return tuple.Value{}
	}
}

// AppendTuple appends a data tuple's body, its timestamp then its values, as
// TUPLE and TUPLES frames carry it; Encoded frames are built from these.
func AppendTuple(b []byte, t *tuple.Tuple) []byte {
	b = putI64(b, int64(t.Ts))
	b = putUvarint(b, uint64(len(t.Vals)))
	for _, v := range t.Vals {
		b = appendValue(b, v)
	}
	return b
}

// maxArity bounds the per-tuple value count a decoder accepts; a corrupted
// count must not turn into an enormous allocation.
const maxArity = 1 << 12

// carveArity is the widest tuple the decoder carves from the magazine's
// slabs. A value slab is MagazineSize arrays of the arity asked for, so a
// 4 KB frame claiming maxArity values would make the reader allocate some
// 10 MB; above this arity the tuple gets one array of exactly its size. 32
// columns is wider than any stream this repository declares and keeps a
// slab at or under 80 KiB.
const carveArity = 32

// tuple decodes one data tuple body. The arity is known before the first
// value is read, so the tuple and its value array come sized from the
// magazine (carved from its slabs when nothing recycled is at hand) and the
// values are assigned by index.
func (d *decoder) tuple(mag *tuple.Magazine) *tuple.Tuple {
	ts := tuple.Time(d.i64())
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > maxArity || n > uint64(len(d.b)-d.off) {
		d.fail()
		return nil
	}
	var t *tuple.Tuple
	switch {
	case mag == nil:
		t = tuple.GetData(ts, int(n))
	case n <= carveArity:
		t = mag.GetData(ts, int(n))
	default:
		t = mag.Get()
		t.Ts = ts
		t.Vals = slices.Grow(t.Vals, int(n))[:n]
	}
	for i := range t.Vals {
		// A fixed-width value, a tag and 8 bytes, takes one bounds check.
		// Every other kind, and a payload too short for one, goes through
		// value's checked reads, which report truncation and unknown kinds.
		if p := d.b[d.off:]; len(p) >= 9 {
			u := binary.LittleEndian.Uint64(p[1:9])
			switch tuple.ValueKind(p[0]) {
			case tuple.IntKind:
				t.Vals[i] = tuple.Int(int64(u))
				d.off += 9
				continue
			case tuple.FloatKind:
				t.Vals[i] = tuple.Float(math.Float64frombits(u))
				d.off += 9
				continue
			case tuple.TimeKind:
				t.Vals[i] = tuple.TimeVal(tuple.Time(u))
				d.off += 9
				continue
			}
		}
		t.Vals[i] = d.value()
	}
	if d.err != nil {
		putTuple(mag, t)
		return nil
	}
	return t
}

// putTuple returns a tuple the decoder drew to where it came from.
func putTuple(mag *tuple.Magazine, t *tuple.Tuple) {
	if mag != nil {
		mag.Put(t)
	} else {
		tuple.Put(t)
	}
}

// --- per-frame payload codecs ---

func (f Hello) encode(b []byte) []byte {
	b = putU16(b, f.Version)
	b = putU16(b, f.Flags)
	b = putString(b, f.Name)
	return putI64(b, f.Clock)
}

func (f HelloAck) encode(b []byte) []byte {
	b = putU16(b, f.Version)
	b = putU64(b, f.Session)
	b = putU32(b, f.Credits)
	if f.Flags != 0 {
		b = putU16(b, f.Flags)
	}
	return b
}

func (f Bind) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	b = putString(b, f.Stream)
	b = append(b, byte(f.TS))
	b = putI64(b, int64(f.Delta))
	b = putUvarint(b, uint64(len(f.Fields)))
	for _, fd := range f.Fields {
		b = putString(b, fd.Name)
		b = append(b, byte(fd.Kind))
	}
	return b
}

func (f BindAck) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	b = putString(b, f.Err)
	if f.Seq != 0 {
		b = putU64(b, f.Seq)
	}
	return b
}

func (f Tuple) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	b = AppendTuple(b, f.T)
	return putSeq(b, f.Seq)
}

func (f Tuples) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	b = putUvarint(b, uint64(len(f.Batch)))
	for _, t := range f.Batch {
		b = AppendTuple(b, t)
	}
	return putSeq(b, f.Seq)
}

func (f Encoded) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	if f.N != 1 {
		b = putUvarint(b, uint64(f.N))
	}
	b = append(b, f.Body...)
	return putSeq(b, f.Seq)
}

// putSeq appends a data frame's optional trailing sequence number.
func putSeq(b []byte, seq uint64) []byte {
	if seq != 0 {
		b = putU64(b, seq)
	}
	return b
}

func (f Punct) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	b = append(b, byte(f.TS))
	b = putI64(b, int64(f.ETS))
	if f.Trace != 0 {
		b = putU64(b, f.Trace)
		b = putI64(b, f.Clock)
	}
	return b
}

func (f Heartbeat) encode(b []byte) []byte { return putI64(b, f.Clock) }

func (f Demand) encode(b []byte) []byte {
	b = putU32(b, f.ID)
	return putU32(b, f.Credits)
}

func (f EOS) encode(b []byte) []byte { return putU32(b, f.ID) }

func (f Error) encode(b []byte) []byte {
	b = putU16(b, f.Code)
	return putString(b, f.Msg)
}

// maxFields bounds the schema arity a BIND may declare.
const maxFields = 1 << 10

// DecodeFrame decodes one frame payload. Tuple-carrying frames draw their
// tuples from mag when non-nil (the reader's magazine), else from the shared
// tuple pool. The payload may be reused by the caller after DecodeFrame
// returns — nothing in the result aliases it.
func DecodeFrame(typ FrameType, payload []byte, mag *tuple.Magazine) (Frame, error) {
	return decodeFrame(typ, payload, mag, nil)
}

// decodeFrame is DecodeFrame with a batch slice to reuse: a TUPLES frame's
// Batch is appended to batch[:0].
func decodeFrame(typ FrameType, payload []byte, mag *tuple.Magazine, batch []*tuple.Tuple) (Frame, error) {
	d := &decoder{b: payload}
	switch typ {
	case TypeHello:
		f := Hello{Version: d.u16(), Flags: d.u16(), Name: d.str(), Clock: d.i64()}
		return f, d.done()
	case TypeHelloAck:
		f := HelloAck{Version: d.u16(), Session: d.u64(), Credits: d.u32()}
		if d.err == nil && d.off < len(d.b) {
			f.Flags = d.u16() // optional capability echo (see HelloAck.Flags)
		}
		return f, d.done()
	case TypeBind:
		f := Bind{ID: d.u32(), Stream: d.str(), TS: tuple.TSKind(d.byte()), Delta: tuple.Time(d.i64())}
		n := d.uvarint()
		if d.err == nil && (n > maxFields || n > uint64(len(payload))) {
			d.fail()
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			f.Fields = append(f.Fields, tuple.Field{Name: d.str(), Kind: tuple.ValueKind(d.byte())})
		}
		return f, d.done()
	case TypeBindAck:
		f := BindAck{ID: d.u32(), Err: d.str()}
		if d.err == nil && d.off < len(d.b) {
			f.Seq = d.u64() // optional dedupe watermark (see BindAck.Seq)
		}
		return f, d.done()
	case TypeTuple:
		f := Tuple{ID: d.u32()}
		f.T = d.tuple(mag)
		if d.err == nil && d.off < len(d.b) {
			f.Seq = d.u64() // optional sequence number (see Tuple.Seq)
		}
		return f, d.done()
	case TypeTuples:
		f := Tuples{ID: d.u32(), Batch: batch[:0]}
		n := d.uvarint()
		if d.err == nil && n > uint64(len(payload)) {
			d.fail()
		}
		for i := uint64(0); i < n && d.err == nil; i++ {
			if t := d.tuple(mag); t != nil {
				f.Batch = append(f.Batch, t)
			}
		}
		if d.err == nil && d.off < len(d.b) {
			f.Seq = d.u64() // optional first-tuple sequence (see Tuples.Seq)
		}
		if err := d.done(); err != nil {
			// Return already-decoded tuples to their pool: the frame is
			// rejected whole, nothing downstream will consume them.
			for _, t := range f.Batch {
				putTuple(mag, t)
			}
			return nil, err
		}
		return f, nil
	case TypePunct:
		f := Punct{ID: d.u32(), TS: tuple.TSKind(d.byte()), ETS: tuple.Time(d.i64())}
		if d.err == nil && d.off < len(d.b) {
			f.Trace = d.u64() // optional trace context (see Punct.Trace)
			f.Clock = d.i64()
		}
		return f, d.done()
	case TypeHeartbeat:
		f := Heartbeat{Clock: d.i64()}
		return f, d.done()
	case TypeDemand:
		f := Demand{ID: d.u32(), Credits: d.u32()}
		return f, d.done()
	case TypeEOS:
		f := EOS{ID: d.u32()}
		return f, d.done()
	case TypeError:
		f := Error{Code: d.u16(), Msg: d.str()}
		return f, d.done()
	case TypePlanDeploy:
		f := PlanDeploy{Plan: d.u64(), Spec: d.specBytes()}
		return f, d.done()
	case TypePlanAck:
		f := PlanAck{Plan: d.u64(), Err: d.str()}
		return f, d.done()
	case TypePlanStart:
		f := PlanStart{Plan: d.u64()}
		return f, d.done()
	case TypePlanStop:
		f := PlanStop{Plan: d.u64()}
		return f, d.done()
	default:
		return nil, fmt.Errorf("wire: unknown frame type %d", typ)
	}
}
