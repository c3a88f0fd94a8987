package ops

import (
	"math"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/tuple"
	"repro/internal/window"
)

func TestHashJoinValidation(t *testing.T) {
	for name, fn := range map[string]func(){
		"bad left window":  func() { NewHashWindowJoin("j", nil, window.Spec{}, window.TimeWindow(1), 0, 0, TSM) },
		"bad right window": func() { NewHashWindowJoin("j", nil, window.TimeWindow(1), window.Spec{}, 0, 0, TSM) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s accepted", name)
				}
			}()
			fn()
		}()
	}
}

func TestHashJoinBasicMatch(t *testing.T) {
	j := NewHashWindowJoin("j", nil, window.TimeWindow(100), window.TimeWindow(100), 0, 0, TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(1, 7))
	h.ins[0].Push(tuple.EOS())
	h.ins[1].Push(keyed(2, 7))
	h.ins[1].Push(keyed(3, 8))
	h.ins[1].Push(tuple.EOS())
	h.run()
	d := h.data()
	if len(d) != 1 || d[0].Ts != 2 {
		t.Fatalf("hash join = %v", d)
	}
	if j.HashWindow(0) == nil || j.Window(0) != nil {
		t.Error("store accessors wrong for hash join")
	}
	// EOS expired both windows (nothing can join again).
	if j.WindowLen(0) != 0 || j.HashWindow(0).Inserted() != 1 {
		t.Errorf("WindowLen(0) = %d, inserted = %d", j.WindowLen(0), j.HashWindow(0).Inserted())
	}
}

func TestHashJoinAsymmetricWindows(t *testing.T) {
	// Left window 5µs, right window 1000µs: a right tuple can reach far
	// back; a left tuple only joins very recent right tuples... per KNV
	// semantics each side expires the OPPOSITE window with its own spec?
	// In this implementation each side's own store has its own extent, so
	// a left tuple at ts joins right tuples within the right store (long)
	// and right tuples joins lefts surviving in the short left store.
	j := NewHashWindowJoin("j", nil, window.TimeWindow(5), window.TimeWindow(1000), 0, 0, TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(0, 7))
	h.ins[0].Push(tuple.EOS())
	h.ins[1].Push(keyed(100, 7)) // left tuple long expired from its 5µs window
	h.ins[1].Push(tuple.EOS())
	h.run()
	if len(h.data()) != 0 {
		t.Fatalf("expired left tuple joined: %v", h.data())
	}

	j2 := NewHashWindowJoin("j2", nil, window.TimeWindow(1000), window.TimeWindow(5), 0, 0, TSM)
	h2 := newHarness(j2)
	h2.ins[0].Push(keyed(0, 7))
	h2.ins[0].Push(tuple.EOS())
	h2.ins[1].Push(keyed(100, 7)) // left store is long: still joinable
	h2.ins[1].Push(tuple.EOS())
	h2.run()
	if len(h2.data()) != 1 {
		t.Fatalf("long left window did not join: %v", h2.data())
	}
}

func TestHashJoinPunctExpires(t *testing.T) {
	j := NewHashWindowJoin("j", nil, window.TimeWindow(10), window.TimeWindow(10), 0, 0, TSM)
	h := newHarness(j)
	h.ins[0].Push(keyed(0, 1))
	h.ins[1].Push(tuple.NewPunct(0))
	h.run()
	if j.WindowLen(0) != 1 {
		t.Fatalf("left window = %d", j.WindowLen(0))
	}
	h.ins[0].Push(tuple.NewPunct(100))
	h.ins[1].Push(tuple.NewPunct(100))
	h.run()
	if j.WindowLen(0) != 0 {
		t.Fatalf("punct failed to expire hash window: %d live", j.WindowLen(0))
	}
}

// Property: the hash join emits exactly the same multiset of pairs as the
// nested-loop join on identical inputs.
func TestHashJoinMatchesNestedLoop(t *testing.T) {
	f := func(aOps, bOps []uint8, spanRaw uint8) bool {
		span := tuple.Time(spanRaw%20 + 1)
		nl := NewWindowJoin("nl", nil, window.TimeWindow(span), EquiJoin(0, 0), TSM)
		hj := NewHashWindowJoin("hj", nil, window.TimeWindow(span), window.TimeWindow(span), 0, 0, TSM)
		feed := func(h *harness, ops []uint8, side int) {
			ts := tuple.Time(0)
			for _, op := range ops {
				ts += tuple.Time(op % 4)
				h.ins[side].Push(keyed(ts, int64(op%3)))
			}
			h.ins[side].Push(tuple.EOS())
		}
		h1 := newHarness(nl)
		h2 := newHarness(hj)
		feed(h1, aOps, 0)
		feed(h1, bOps, 1)
		feed(h2, aOps, 0)
		feed(h2, bOps, 1)
		h1.run()
		h2.run()
		d1, d2 := h1.data(), h2.data()
		if len(d1) != len(d2) {
			return false
		}
		count := func(ds []*tuple.Tuple) map[string]int {
			m := map[string]int{}
			for _, d := range ds {
				m[d.String()]++
			}
			return m
		}
		c1, c2 := count(d1), count(d2)
		for k, v := range c1 {
			if c2[k] != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// The hash join must pair what the nested-loop equi-join pairs: numeric keys
// are equal by value across kinds (Int(1), Float(1), TimeVal(1); −0.0 and 0),
// not by representation. The map index this store replaced compared keys
// with ==, so mixed-kind pairs never met.
func TestHashJoinMixedKindKeysMatchEquiJoin(t *testing.T) {
	keys := []tuple.Value{
		tuple.Int(1), tuple.Float(1), tuple.TimeVal(1),
		tuple.Int(0), tuple.Float(0), tuple.Float(math.Copysign(0, -1)),
		tuple.Float(1.5), tuple.Int(2), tuple.String_("1"), tuple.Bool(true), {},
	}
	span := window.TimeWindow(1000)
	run := func(j *WindowJoin) []string {
		h := newHarness(j)
		for side := 0; side < 2; side++ {
			for i, k := range keys {
				h.ins[side].Push(tuple.NewData(tuple.Time(i), k, tuple.Int(int64(side))))
			}
			h.ins[side].Push(tuple.EOS())
		}
		h.run()
		var rows []string
		for _, d := range h.data() {
			rows = append(rows, d.String())
		}
		sort.Strings(rows)
		return rows
	}
	hash := run(NewHashWindowJoin("hj", nil, span, span, 0, 0, TSM))
	equi := run(NewEquiWindowJoin("ej", nil, span, span, 0, 0, TSM))
	// Three numeric 1s and three zeros pair 9 ways each; the other five keys
	// meet only themselves.
	if want := 9 + 9 + 5; len(equi) != want {
		t.Fatalf("equi-join emitted %d rows, want %d", len(equi), want)
	}
	if len(hash) != len(equi) {
		t.Fatalf("hash join emitted %d rows, nested-loop equi-join %d", len(hash), len(equi))
	}
	for i := range equi {
		if hash[i] != equi[i] {
			t.Fatalf("row %d: hash join %s, equi-join %s", i, hash[i], equi[i])
		}
	}
}
