package ops

import (
	"fmt"

	"repro/internal/tsm"
	"repro/internal/tuple"
)

// Union merges n input streams into one output stream ordered by timestamp.
// It is the canonical Idle-Waiting-Prone operator: a sort-merge that cannot
// emit while any input's future is unbounded.
//
// Modes:
//
//   - Basic (Figure 1): runs only when every input buffer is non-empty;
//     emits the head with minimal timestamp. Punctuation is treated as an
//     opaque bound-carrier: it refreshes nothing and is dropped on
//     consumption (Basic predates punctuation-awareness; dropping keeps the
//     comparison fair on tuple counts).
//   - TSM (Figures 5–6): per-input Time-Stamp Memory registers and the
//     relaxed more condition; punctuation updates the registers, unblocks
//     the operator, and is propagated (deduplicated by default).
//   - LatentMode: emits tuples in arrival order with no timestamp checks.
type Union struct {
	base
	mode IWPMode
	regs *tsm.Registers

	// DedupPunct suppresses output punctuation that does not advance the
	// operator's output watermark. Disabling it (ablation AB2) forwards
	// every consumed punctuation tuple.
	DedupPunct bool

	watermark tuple.Time // highest output bound already conveyed downstream
	rr        int        // round-robin cursor for latent mode
	al        aligner    // checkpoint-barrier alignment (TSM mode)

	dataOut  uint64
	punctOut uint64
}

// NewUnion builds an n-way union in the given mode.
func NewUnion(name string, schema *tuple.Schema, n int, mode IWPMode) *Union {
	if n < 2 {
		panic(fmt.Sprintf("union %s: need at least 2 inputs, got %d", name, n))
	}
	u := &Union{
		base:       base{name: name, inputs: n, schema: schema},
		mode:       mode,
		DedupPunct: true,
		watermark:  tuple.MinTime,
	}
	if mode == TSM {
		u.regs = tsm.New(n)
	}
	return u
}

// Mode reports the union's execution mode.
func (u *Union) Mode() IWPMode { return u.mode }

// Registers exposes the TSM register bank (nil unless mode is TSM).
func (u *Union) Registers() *tsm.Registers { return u.regs }

// DataEmitted reports the number of data tuples emitted.
func (u *Union) DataEmitted() uint64 { return u.dataOut }

// PunctEmitted reports the number of punctuation tuples emitted.
func (u *Union) PunctEmitted() uint64 { return u.punctOut }

// Watermark reports the highest output bound conveyed downstream so far
// (MinTime before the first punctuation) — the overlay's live progress mark.
func (u *Union) Watermark() tuple.Time { return u.watermark }

// More implements the mode's `more` condition.
func (u *Union) More(ctx *Ctx) bool {
	switch u.mode {
	case Basic:
		return allNonEmpty(ctx.Ins)
	case TSM:
		u.regs.Observe(ctx.Ins)
		if u.al.ready(ctx.Ins) >= 0 {
			return true
		}
		ok, _, _ := u.regs.More(ctx.Ins)
		return ok
	default: // LatentMode
		return anyNonEmpty(ctx.Ins) >= 0
	}
}

// BlockingInput identifies the input to backtrack into when More is false.
func (u *Union) BlockingInput(ctx *Ctx) int {
	switch u.mode {
	case Basic:
		return firstEmpty(ctx.Ins)
	case TSM:
		u.regs.Observe(ctx.Ins)
		if u.al.ready(ctx.Ins) >= 0 {
			return -1
		}
		if ok, _, _ := u.regs.More(ctx.Ins); ok {
			return -1
		}
		return u.regs.BlockingInput(ctx.Ins)
	default:
		return -1 // latent unions are never blocked while tuples exist
	}
}

// Exec performs one production/consumption step per the mode's rules.
func (u *Union) Exec(ctx *Ctx) bool {
	switch u.mode {
	case Basic:
		return u.execBasic(ctx)
	case TSM:
		return u.execTSM(ctx)
	default:
		return u.execLatent(ctx)
	}
}

func (u *Union) execBasic(ctx *Ctx) bool {
	if !allNonEmpty(ctx.Ins) {
		return false
	}
	// Select the input whose head has the least timestamp (Figure 1).
	arg := 0
	min := ctx.Ins[0].Peek().Ts
	for i := 1; i < len(ctx.Ins); i++ {
		if ts := ctx.Ins[i].Peek().Ts; ts < min {
			min, arg = ts, i
		}
	}
	t := ctx.Ins[arg].Pop()
	if t.IsPunct() {
		return false
	}
	u.dataOut++
	ctx.Emit(t)
	return true
}

func (u *Union) execTSM(ctx *Ctx) bool {
	u.regs.Observe(ctx.Ins)
	var t *tuple.Tuple
	τ := tuple.MinTime
	input := u.al.ready(ctx.Ins)
	if input >= 0 {
		// A checkpoint barrier at the head of an unaligned input is
		// consumable regardless of τ (see barrier.go).
		t = ctx.Ins[input].Pop()
	} else {
		ok, in, bound := u.regs.More(ctx.Ins)
		if !ok {
			return false
		}
		input, τ = in, bound
		t = ctx.Ins[input].Pop()
	}
	if handled, yield := handleBarrier(&u.al, u, ctx, input, t); handled {
		return yield
	}
	if !t.IsPunct() {
		// Data tuple at τ: deliver it (Figure 6). The tuple itself
		// carries the bound τ downstream.
		if τ > u.watermark {
			u.watermark = τ
		}
		u.replayData(ctx, input, t)
		return true
	}
	return u.punctStep(ctx, t)
}

// punctStep runs the TSM punctuation rule for a consumed punctuation:
// re-observe, compute the merged bound, forward/dedup/absorb.
func (u *Union) punctStep(ctx *Ctx, t *tuple.Tuple) bool {
	u.regs.Observe(ctx.Ins)
	bound, _ := u.regs.Min()
	if !u.DedupPunct {
		u.punctOut++
		ctx.Emit(t)
		return true
	}
	if bound > u.watermark && bound != tuple.MaxTime {
		u.watermark = bound
		u.punctOut++
		ctx.Emit(tuple.GetPunct(bound))
		return true
	}
	if t.IsEOS() && u.allEOS(ctx) {
		u.punctOut++
		ctx.Emit(tuple.EOS())
		return true
	}
	return false // absorbed: the bound did not advance
}

// barrierHost hooks (see barrier.go).

func (u *Union) replayData(ctx *Ctx, _ int, t *tuple.Tuple) {
	u.dataOut++
	ctx.Emit(t)
}

func (u *Union) replayPunct(ctx *Ctx, _ int, t *tuple.Tuple) {
	u.punctStep(ctx, t)
}

func (u *Union) barrierBound(ctx *Ctx) tuple.Time {
	u.regs.Observe(ctx.Ins)
	bound, _ := u.regs.Min()
	return bound
}

func (u *Union) emitBarrier(ctx *Ctx, id uint64, bound tuple.Time) {
	if bound > u.watermark && bound != tuple.MaxTime {
		u.watermark = bound
	}
	u.punctOut++
	ctx.barrier(id, bound)
	p := tuple.GetPunct(bound)
	p.Ckpt = id
	ctx.Emit(p)
}

// allEOS reports whether every register has reached end-of-stream.
func (u *Union) allEOS(ctx *Ctx) bool {
	for i := 0; i < u.regs.Len(); i++ {
		if u.regs.Get(i) != tuple.MaxTime {
			return false
		}
	}
	return true
}

func (u *Union) execLatent(ctx *Ctx) bool {
	// Round-robin across non-empty inputs so no stream starves.
	n := len(ctx.Ins)
	for k := 0; k < n; k++ {
		i := (u.rr + k) % n
		if ctx.Ins[i].Empty() {
			continue
		}
		u.rr = (i + 1) % n
		t := ctx.Ins[i].Pop()
		if t.IsPunct() {
			return false // latent streams need no punctuation
		}
		u.dataOut++
		ctx.Emit(t)
		return true
	}
	return false
}
