package ckpt

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/tuple"
)

func testSnap(id uint64) *Snapshot {
	return &Snapshot{
		ID:      id,
		Barrier: tuple.Time(int64(id) * 100),
		When:    int64(id) * 1_000_000,
		Segments: []Segment{
			{Name: "src", Payload: []byte{1, 2, 3}},
			{Name: "agg", Payload: []byte("window state")},
			{Name: "empty", Payload: nil},
		},
	}
}

func sameSnap(t *testing.T, got, want *Snapshot) {
	t.Helper()
	if got.ID != want.ID || got.Barrier != want.Barrier || got.When != want.When {
		t.Fatalf("header mismatch: got %+v, want %+v", got, want)
	}
	if len(got.Segments) != len(want.Segments) {
		t.Fatalf("got %d segments, want %d", len(got.Segments), len(want.Segments))
	}
	for i, seg := range want.Segments {
		if got.Segments[i].Name != seg.Name || string(got.Segments[i].Payload) != string(seg.Payload) {
			t.Fatalf("segment %d: got %q/%x, want %q/%x",
				i, got.Segments[i].Name, got.Segments[i].Payload, seg.Name, seg.Payload)
		}
	}
}

func TestStoreRoundTrip(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	want := testSnap(7)
	if _, err := st.Write(want); err != nil {
		t.Fatal(err)
	}
	got, err := st.Load(7)
	if err != nil {
		t.Fatal(err)
	}
	sameSnap(t, got, want)
	if p := got.Segment("agg"); string(p) != "window state" {
		t.Fatalf("Segment(agg) = %q", p)
	}
	if p := got.Segment("missing"); p != nil {
		t.Fatalf("Segment(missing) = %x, want nil", p)
	}
}

func TestStoreLatestEmpty(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	snap, err := st.Latest()
	if err != nil || snap != nil {
		t.Fatalf("Latest on empty store = %v, %v; want nil, nil", snap, err)
	}
}

func TestStoreLatestSkipsCorrupt(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 3; id++ {
		if _, err := st.Write(testSnap(id)); err != nil {
			t.Fatal(err)
		}
	}

	// Flip one payload byte in the newest checkpoint's STATE file: its
	// segment CRC must fail and Latest must fall back to checkpoint 2.
	statePath := filepath.Join(dir, "ckpt-0000000000000003", "STATE")
	b, err := os.ReadFile(statePath)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)-10] ^= 0xff
	if err := os.WriteFile(statePath, b, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, err := st.Load(3); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Load(corrupt) = %v, want ErrCorrupt", err)
	}
	snap, err := st.Latest()
	if err != nil {
		t.Fatal(err)
	}
	if snap == nil || snap.ID != 2 {
		t.Fatalf("Latest = %+v, want checkpoint 2", snap)
	}
}

func TestStoreIgnoresTempDirs(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(testSnap(1)); err != nil {
		t.Fatal(err)
	}
	// A crash mid-write leaves a temp directory; List/Latest must skip it
	// and Prune must sweep it.
	if err := os.MkdirAll(filepath.Join(dir, ".tmp-0000000000000009"), 0o755); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != 1 {
		t.Fatalf("List = %v, want [1]", ids)
	}
	if err := st.Prune(3); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-0000000000000009")); !os.IsNotExist(err) {
		t.Fatalf("temp dir survived Prune: %v", err)
	}
}

func TestStorePruneKeepsNewest(t *testing.T) {
	st, err := NewStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	for id := uint64(1); id <= 5; id++ {
		if _, err := st.Write(testSnap(id)); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Prune(2); err != nil {
		t.Fatal(err)
	}
	ids, err := st.List()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || ids[0] != 4 || ids[1] != 5 {
		t.Fatalf("List after Prune(2) = %v, want [4 5]", ids)
	}
	snap, err := st.Latest()
	if err != nil || snap == nil || snap.ID != 5 {
		t.Fatalf("Latest = %+v, %v; want checkpoint 5", snap, err)
	}
}

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var enc Encoder
	enc.U8(7)
	enc.U32(0xdeadbeef)
	enc.U64(1 << 60)
	enc.I64(-42)
	enc.Uvarint(300)
	enc.Bool(true)
	enc.Time(12345)
	enc.String("hello")
	enc.Value(tuple.Float(1.5))
	enc.Tuple(&tuple.Tuple{Ts: 9, Arrived: 10, Seq: 11, Vals: []tuple.Value{tuple.Int(3), tuple.String_("x")}})

	dec := NewDecoder(enc.Bytes())
	if v := dec.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := dec.U32(); v != 0xdeadbeef {
		t.Fatalf("U32 = %x", v)
	}
	if v := dec.U64(); v != 1<<60 {
		t.Fatalf("U64 = %d", v)
	}
	if v := dec.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := dec.Uvarint(); v != 300 {
		t.Fatalf("Uvarint = %d", v)
	}
	if !dec.Bool() {
		t.Fatal("Bool = false")
	}
	if v := dec.Time(); v != 12345 {
		t.Fatalf("Time = %d", v)
	}
	if v := dec.String(); v != "hello" {
		t.Fatalf("String = %q", v)
	}
	if v := dec.Value(); v.AsFloat() != 1.5 {
		t.Fatalf("Value = %v", v)
	}
	tp := dec.Tuple()
	if tp == nil || tp.Ts != 9 || tp.Arrived != 10 || tp.Seq != 11 ||
		len(tp.Vals) != 2 || tp.Vals[0].AsInt() != 3 || tp.Vals[1].AsString() != "x" {
		t.Fatalf("Tuple = %+v", tp)
	}
	if err := dec.Done(); err != nil {
		t.Fatal(err)
	}
}

func TestDecoderShortPayload(t *testing.T) {
	dec := NewDecoder([]byte{1, 2})
	if v := dec.U64(); v != 0 {
		t.Fatalf("short U64 = %d, want 0", v)
	}
	if !errors.Is(dec.Err(), ErrCorrupt) {
		t.Fatalf("Err = %v, want ErrCorrupt", dec.Err())
	}
	// Errors are sticky: later reads keep failing without panicking.
	if v := dec.String(); v != "" {
		t.Fatalf("String after error = %q", v)
	}
	if dec.Remaining() != 2 {
		t.Fatalf("Remaining = %d", dec.Remaining())
	}
}

func TestDecoderTrailingBytes(t *testing.T) {
	var enc Encoder
	enc.U8(1)
	enc.U8(2)
	dec := NewDecoder(enc.Bytes())
	dec.U8()
	if err := dec.Done(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Done with trailing byte = %v, want ErrCorrupt", err)
	}
}

// TestStoreRejectsOldVersion rewrites a stored checkpoint's manifest to the
// previous version (CRC resealed, so only the version is wrong): Load refuses
// it and Latest finds nothing to restore.
func TestStoreRejectsOldVersion(t *testing.T) {
	if Version < 2 {
		t.Fatalf("Version %d: version-1 split tables route by the old Value.Hash", Version)
	}
	dir := t.TempDir()
	st, err := NewStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Write(testSnap(1)); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, ckptDirName(1), manifestName)
	mf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	body := mf[:len(mf)-4]
	body[4] = Version - 1
	if err := os.WriteFile(path, binary.LittleEndian.AppendUint32(body, crc32.ChecksumIEEE(body)), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Load(1); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("Load of a version-%d snapshot: err %v, want a version error", Version-1, err)
	}
	if snap, err := st.Latest(); err != nil || snap != nil {
		t.Fatalf("Latest = %v, %v; want nil, nil", snap, err)
	}
}
