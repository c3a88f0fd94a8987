package ops

import (
	"container/heap"
	"fmt"
	"math"
	"sort"

	"repro/internal/ckpt"
	"repro/internal/tuple"
)

// Checkpoint encodings (ops.Stateful) for the stateful operators. Every
// payload starts with an operator-kind byte followed by the operator's shape
// (constructor arguments); RestoreState validates the shape against the
// rebuilt graph before touching any state, so a snapshot only ever restores
// into the plan that produced it. Encodings are canonical — map-backed state
// is written in sorted order — so save → restore → save is byte-identical,
// which the fuzz round-trip test relies on.
//
// Neither an armed fence nor a multi-input operator's barrier count is
// checkpointed: a snapshot is taken as its own cut completes, and a pending
// retarget is post-barrier information the controller reissues.

// Operator-kind tags, the first byte of every payload.
const (
	stateSource uint8 = 1 + iota
	stateSink
	stateUnion
	stateJoin
	_ // retired: the n-way join's segment
	stateAggregate
	stateReorder
	stateSplit
)

func shapeErr(format string, args ...any) error {
	return fmt.Errorf("%w: "+format, append([]any{ckpt.ErrCorrupt}, args...)...)
}

// --- Source ---

// SaveState encodes the source's emission cut: the sequence watermark (the
// exactly-once replay boundary), the counters, and the ETS estimator's
// promise history.
func (s *Source) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateSource)
	enc.U8(uint8(s.tsKind))
	enc.Uvarint(s.seq)
	enc.Uvarint(s.emitted)
	enc.Uvarint(s.etsEmitted)
	enc.Bool(s.est != nil)
	if s.est != nil {
		lastTs, lastArrival, seen, lastETS, hasETS := s.est.State()
		enc.Time(lastTs)
		enc.Time(lastArrival)
		enc.Bool(seen)
		enc.Time(lastETS)
		enc.Bool(hasETS)
	}
}

// RestoreState rebuilds the source's cut from dec.
func (s *Source) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateSource {
		return shapeErr("source %s: payload kind %d", s.name, k)
	}
	if kind := tuple.TSKind(dec.U8()); dec.Err() == nil && kind != s.tsKind {
		return shapeErr("source %s: saved ts kind %v, have %v", s.name, kind, s.tsKind)
	}
	seq := dec.Uvarint()
	emitted := dec.Uvarint()
	etsEmitted := dec.Uvarint()
	hasEst := dec.Bool()
	if dec.Err() == nil && hasEst != (s.est != nil) {
		return shapeErr("source %s: estimator presence mismatch", s.name)
	}
	if hasEst {
		lastTs := dec.Time()
		lastArrival := dec.Time()
		seen := dec.Bool()
		lastETS := dec.Time()
		hasETS := dec.Bool()
		if err := dec.Err(); err != nil {
			return err
		}
		s.est.SetState(lastTs, lastArrival, seen, lastETS, hasETS)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	s.seq, s.emitted, s.etsEmitted = seq, emitted, etsEmitted
	return nil
}

// --- Sink ---

// SaveState encodes the sink's counters and, when StateHooks is installed,
// the application payload.
func (s *Sink) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateSink)
	enc.Uvarint(s.received)
	enc.Uvarint(s.punct)
	enc.Bool(s.saveHook != nil)
	if s.saveHook != nil {
		s.saveHook(enc)
	}
}

// RestoreState rebuilds the sink (and its application hook's state) from dec.
func (s *Sink) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateSink {
		return shapeErr("sink %s: payload kind %d", s.name, k)
	}
	received := dec.Uvarint()
	punct := dec.Uvarint()
	hasHook := dec.Bool()
	if err := dec.Err(); err != nil {
		return err
	}
	if hasHook != (s.restoreHook != nil) {
		return shapeErr("sink %s: state-hook presence mismatch", s.name)
	}
	if hasHook {
		if err := s.restoreHook(dec); err != nil {
			return err
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	s.received, s.punct = received, punct
	return nil
}

// --- Union (and Merge, via embedding) ---

// SaveState encodes the union's watermark, counters, and TSM registers.
func (u *Union) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateUnion)
	enc.U8(uint8(u.mode))
	enc.Time(u.watermark)
	enc.I64(int64(u.rr))
	enc.Uvarint(u.dataOut)
	enc.Uvarint(u.punctOut)
	enc.Bool(u.regs != nil)
	if u.regs != nil {
		enc.Uvarint(uint64(u.regs.Len()))
		for i := 0; i < u.regs.Len(); i++ {
			enc.Time(u.regs.Get(i))
		}
	}
}

// RestoreState rebuilds the union from dec.
func (u *Union) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateUnion {
		return shapeErr("union %s: payload kind %d", u.name, k)
	}
	if m := IWPMode(dec.U8()); dec.Err() == nil && m != u.mode {
		return shapeErr("union %s: saved mode %v, have %v", u.name, m, u.mode)
	}
	watermark := dec.Time()
	rr := dec.I64()
	dataOut := dec.Uvarint()
	punctOut := dec.Uvarint()
	hasRegs := dec.Bool()
	if dec.Err() == nil && hasRegs != (u.regs != nil) {
		return shapeErr("union %s: register presence mismatch", u.name)
	}
	if hasRegs {
		if n := dec.Uvarint(); dec.Err() == nil && n != uint64(u.regs.Len()) {
			return shapeErr("union %s: saved %d registers, have %d", u.name, n, u.regs.Len())
		}
		for i := 0; i < u.regs.Len(); i++ {
			u.regs.Set(i, dec.Time())
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	u.watermark, u.rr = watermark, int(rr)
	u.dataOut, u.punctOut = dataOut, punctOut
	return nil
}

// --- WindowJoin ---

// SaveState encodes the join's shape, watermark, counters, registers, and
// both window stores.
func (j *WindowJoin) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateJoin)
	enc.U8(uint8(j.mode))
	enc.Bool(j.hashed)
	enc.Bool(j.hasKeys)
	enc.I64(int64(j.keyCols[0]))
	enc.I64(int64(j.keyCols[1]))
	enc.Time(j.watermark)
	enc.Uvarint(j.dataOut)
	enc.Uvarint(j.punctOut)
	enc.Uvarint(j.consumed[0])
	enc.Uvarint(j.consumed[1])
	enc.Bool(j.regs != nil)
	if j.regs != nil {
		enc.Time(j.regs.Get(0))
		enc.Time(j.regs.Get(1))
	}
	for i := 0; i < 2; i++ {
		if j.hashed {
			j.hwin[i].SaveState(enc)
		} else {
			j.win[i].SaveState(enc)
		}
	}
}

// RestoreState rebuilds the join from dec.
func (j *WindowJoin) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateJoin {
		return shapeErr("join %s: payload kind %d", j.name, k)
	}
	m := IWPMode(dec.U8())
	hashed := dec.Bool()
	hasKeys := dec.Bool()
	kc0 := dec.I64()
	kc1 := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if m != j.mode || hashed != j.hashed || hasKeys != j.hasKeys ||
		kc0 != int64(j.keyCols[0]) || kc1 != int64(j.keyCols[1]) {
		return shapeErr("join %s: shape mismatch", j.name)
	}
	watermark := dec.Time()
	dataOut := dec.Uvarint()
	punctOut := dec.Uvarint()
	consumed0 := dec.Uvarint()
	consumed1 := dec.Uvarint()
	hasRegs := dec.Bool()
	if dec.Err() == nil && hasRegs != (j.regs != nil) {
		return shapeErr("join %s: register presence mismatch", j.name)
	}
	if hasRegs {
		j.regs.Set(0, dec.Time())
		j.regs.Set(1, dec.Time())
	}
	for i := 0; i < 2; i++ {
		var err error
		if j.hashed {
			err = j.hwin[i].RestoreState(dec)
		} else {
			err = j.win[i].RestoreState(dec)
		}
		if err != nil {
			return err
		}
	}
	if err := dec.Err(); err != nil {
		return err
	}
	j.watermark = watermark
	j.dataOut, j.punctOut = dataOut, punctOut
	j.consumed[0], j.consumed[1] = consumed0, consumed1
	return nil
}

// --- Aggregate ---

// sortedValues returns m's keys in a canonical total order: Compare first,
// then kind (Int(1) and Float(1) compare equal but are distinct keys), then
// hash as the last resort (NaNs of distinct bit patterns, which Compare
// orders equal; NaNs of one bit pattern are one key).
func sortedValues[V any](m map[tuple.Value]V) []tuple.Value {
	keys := make([]tuple.Value, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(a, b int) bool {
		if c := keys[a].Compare(keys[b]); c != 0 {
			return c < 0
		}
		if keys[a].Kind() != keys[b].Kind() {
			return keys[a].Kind() < keys[b].Kind()
		}
		return keys[a].Hash() < keys[b].Hash()
	})
	return keys
}

// SaveState encodes the aggregate's shape, bound, counters, and every open
// window's accumulators (windows and group keys in canonical order).
func (a *Aggregate) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateAggregate)
	enc.Time(a.width)
	enc.Time(a.slide)
	enc.I64(int64(a.groupCol))
	enc.Uvarint(uint64(len(a.aggs)))
	for _, sp := range a.aggs {
		enc.U8(uint8(sp.Fn))
		enc.I64(int64(sp.Col))
	}
	enc.Time(a.bound)
	enc.Uvarint(a.rowsOut)
	enc.Uvarint(a.punctOut)
	windows := make([]int64, 0, len(a.buckets))
	for w := range a.buckets {
		windows = append(windows, w)
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i] < windows[j] })
	enc.Uvarint(uint64(len(windows)))
	for _, w := range windows {
		groups := a.buckets[w]
		enc.I64(w)
		enc.Uvarint(uint64(len(groups)))
		for _, key := range sortedValues(groups) {
			enc.Value(key)
			for _, ac := range groups[key] {
				enc.I64(ac.n)
				enc.U64(math.Float64bits(ac.sum))
				enc.Value(ac.min)
				enc.Value(ac.max)
				enc.Bool(ac.seen)
			}
		}
	}
}

// RestoreState rebuilds the aggregate from dec.
func (a *Aggregate) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateAggregate {
		return shapeErr("aggregate %s: payload kind %d", a.name, k)
	}
	width := dec.Time()
	slide := dec.Time()
	groupCol := dec.I64()
	nAggs := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if width != a.width || slide != a.slide || groupCol != int64(a.groupCol) || nAggs != uint64(len(a.aggs)) {
		return shapeErr("aggregate %s: shape mismatch", a.name)
	}
	for _, sp := range a.aggs {
		fn := dec.U8()
		col := dec.I64()
		if dec.Err() == nil && (fn != uint8(sp.Fn) || col != int64(sp.Col)) {
			return shapeErr("aggregate %s: aggregate spec mismatch", a.name)
		}
	}
	bound := dec.Time()
	rowsOut := dec.Uvarint()
	punctOut := dec.Uvarint()
	nWindows := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if nWindows > uint64(dec.Remaining()) {
		return shapeErr("aggregate %s: %d windows in %d bytes", a.name, nWindows, dec.Remaining())
	}
	buckets := make(map[int64]map[tuple.Value][]*acc, nWindows)
	for wi := uint64(0); wi < nWindows; wi++ {
		w := dec.I64()
		nGroups := dec.Uvarint()
		if err := dec.Err(); err != nil {
			return err
		}
		if nGroups > uint64(dec.Remaining()) {
			return shapeErr("aggregate %s: %d groups in %d bytes", a.name, nGroups, dec.Remaining())
		}
		groups := make(map[tuple.Value][]*acc, nGroups)
		for gi := uint64(0); gi < nGroups; gi++ {
			key := dec.Value()
			accs := make([]*acc, len(a.aggs))
			for i := range accs {
				ac := &acc{}
				ac.n = dec.I64()
				ac.sum = math.Float64frombits(dec.U64())
				ac.min = dec.Value()
				ac.max = dec.Value()
				ac.seen = dec.Bool()
				accs[i] = ac
			}
			if err := dec.Err(); err != nil {
				return err
			}
			groups[key] = accs
		}
		buckets[w] = groups
	}
	if err := dec.Err(); err != nil {
		return err
	}
	a.buckets = buckets
	a.bound = bound
	a.rowsOut, a.punctOut = rowsOut, punctOut
	return nil
}

// --- Reorder ---

// SaveState encodes the reorder buffer: the marks, the counters, and the
// held-back tuples in canonical (Ts, Seq, Arrived) order.
func (r *Reorder) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateReorder)
	enc.Time(r.Slack)
	enc.Time(r.high)
	enc.Time(r.released)
	enc.Uvarint(r.dropped)
	enc.Uvarint(r.out)
	held := append([]*tuple.Tuple(nil), r.heapq...)
	sort.Slice(held, func(i, j int) bool {
		if held[i].Ts != held[j].Ts {
			return held[i].Ts < held[j].Ts
		}
		if held[i].Seq != held[j].Seq {
			return held[i].Seq < held[j].Seq
		}
		return held[i].Arrived < held[j].Arrived
	})
	enc.Uvarint(uint64(len(held)))
	for _, t := range held {
		enc.Tuple(t)
	}
}

// RestoreState rebuilds the reorder buffer from dec.
func (r *Reorder) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateReorder {
		return shapeErr("reorder %s: payload kind %d", r.name, k)
	}
	if slack := dec.Time(); dec.Err() == nil && slack != r.Slack {
		return shapeErr("reorder %s: saved slack %v, have %v", r.name, slack, r.Slack)
	}
	high := dec.Time()
	released := dec.Time()
	dropped := dec.Uvarint()
	out := dec.Uvarint()
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if n > uint64(dec.Remaining()) {
		return shapeErr("reorder %s: %d held tuples in %d bytes", r.name, n, dec.Remaining())
	}
	held := make(tsHeap, 0, n)
	for i := uint64(0); i < n; i++ {
		t := dec.Tuple()
		if t == nil {
			return dec.Err()
		}
		held = append(held, t)
	}
	heap.Init(&held)
	r.heapq = held
	r.high, r.released = high, released
	r.dropped, r.out = dropped, out
	return nil
}

// --- Split ---

// SaveState encodes the splitter's routing state: the live bucket→shard
// table, its version, the round-robin cursor, and the timestamp high mark. A
// pending retarget is deliberately dropped — its fence is post-barrier and
// the controller reissues it.
func (s *Split) SaveState(enc *ckpt.Encoder) {
	enc.U8(stateSplit)
	enc.I64(int64(s.shards))
	enc.I64(int64(s.key))
	enc.I64(int64(s.rr))
	enc.U64(s.version.Load())
	enc.I64(s.maxTs.Load())
	for _, sh := range *s.cur.Load() {
		enc.Uvarint(uint64(sh))
	}
}

// RestoreState rebuilds the splitter's routing state from dec.
func (s *Split) RestoreState(dec *ckpt.Decoder) error {
	if k := dec.U8(); k != stateSplit {
		return shapeErr("split %s: payload kind %d", s.name, k)
	}
	shards := dec.I64()
	key := dec.I64()
	if err := dec.Err(); err != nil {
		return err
	}
	if shards != int64(s.shards) || key != int64(s.key) {
		return shapeErr("split %s: shape mismatch", s.name)
	}
	rr := dec.I64()
	version := dec.U64()
	maxTs := dec.I64()
	assign := make([]int32, SplitBuckets)
	for b := range assign {
		sh := dec.Uvarint()
		if dec.Err() == nil && sh >= uint64(s.shards) {
			return shapeErr("split %s: bucket %d routed to shard %d of %d", s.name, b, sh, s.shards)
		}
		assign[b] = int32(sh)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	s.rr = int(rr)
	s.version.Store(version)
	s.maxTs.Store(maxTs)
	s.cur.Store(&assign)
	return nil
}
