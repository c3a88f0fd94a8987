package window

import (
	"errors"
	"fmt"

	"repro/internal/ckpt"
	"repro/internal/tuple"
)

// Checkpoint encodings for the window stores. A snapshot records the spec
// (restore validates it against the rebuilt graph's spec — state is only
// portable across identical plans), the lifetime counters, and the live
// tuples in insertion order. Restore replays the tuples through Insert,
// which rebuilds the ring (and, for HashStore, the key index) exactly:
// re-inserting an already-live set under the same spec expires nothing,
// because every saved tuple survived at least as aggressive a bound before
// the save.

// SaveState appends the store's state to enc.
func (w *Store) SaveState(enc *ckpt.Encoder) {
	saveWindow(enc, w.spec, -1, w.peak, w.inserted, w.expired, w.n, w.Each)
}

// errRestoreNonEmpty rejects a restore into a store that holds tuples: the
// saved ones would join the live ones instead of replacing them.
var errRestoreNonEmpty = errors.New("window: restore into a store that holds tuples")

// RestoreState rebuilds the store from dec. The store must be empty and
// built with the same spec as at save time.
func (w *Store) RestoreState(dec *ckpt.Decoder) error {
	if w.n > 0 {
		return errRestoreNonEmpty
	}
	return restoreWindow(dec, w.spec, -1, &w.peak, &w.inserted, &w.expired, w.Insert)
}

// SaveState appends the hash store's state to enc.
func (w *HashStore) SaveState(enc *ckpt.Encoder) {
	saveWindow(enc, w.spec, w.keyCol, w.peak, w.inserted, w.expired, w.n, w.each)
}

// RestoreState rebuilds the hash store (ring and key index) from dec, under
// the same conditions as Store.RestoreState.
func (w *HashStore) RestoreState(dec *ckpt.Decoder) error {
	if w.n > 0 {
		return errRestoreNonEmpty
	}
	return restoreWindow(dec, w.spec, w.keyCol, &w.peak, &w.inserted, &w.expired, w.Insert)
}

// stateTuple aliases the tuple type so the shared helpers read naturally.
type stateTuple = tuple.Tuple

func saveWindow(enc *ckpt.Encoder, spec Spec, keyCol, peak int, inserted, expired uint64, n int, each func(func(*stateTuple))) {
	enc.Time(spec.Span)
	enc.I64(int64(spec.Rows))
	enc.I64(int64(keyCol))
	enc.Uvarint(uint64(peak))
	enc.Uvarint(inserted)
	enc.Uvarint(expired)
	enc.Uvarint(uint64(n))
	each(func(t *stateTuple) { enc.Tuple(t) })
}

func restoreWindow(dec *ckpt.Decoder, spec Spec, keyCol int, peak *int, inserted, expired *uint64, insert func(*stateTuple)) error {
	span := dec.Time()
	rows := dec.I64()
	kc := dec.I64()
	pk := dec.Uvarint()
	ins := dec.Uvarint()
	exp := dec.Uvarint()
	n := dec.Uvarint()
	if err := dec.Err(); err != nil {
		return err
	}
	if span != spec.Span || rows != int64(spec.Rows) || kc != int64(keyCol) {
		return fmt.Errorf("%w: window shape mismatch (saved span=%v rows=%d key=%d, have %v/%d/%d)",
			ckpt.ErrCorrupt, span, rows, kc, spec.Span, spec.Rows, keyCol)
	}
	for i := uint64(0); i < n; i++ {
		t := dec.Tuple()
		if t == nil {
			return dec.Err()
		}
		if keyCol >= 0 && len(t.Vals) <= keyCol {
			return fmt.Errorf("%w: window tuple arity %d lacks key column %d",
				ckpt.ErrCorrupt, len(t.Vals), keyCol)
		}
		insert(t)
	}
	if err := dec.Err(); err != nil {
		return err
	}
	// Insert bumped the lifetime counters; the saved values are the truth.
	*peak = int(pk)
	*inserted = ins
	*expired = exp
	return nil
}
