package ops

import (
	"repro/internal/tsm"
	"repro/internal/tuple"
)

// iwp is the timestamp management an Idle-Waiting-Prone operator shares
// with every other: the mode's `more` condition and blocking input, the
// Basic (Figure 1) and TSM (Figures 5–6) consumption step, checkpoint
// barriers, and punctuation that unblocks the operator and propagates. An
// operator embeds it and adds what is its own: what it produces from a
// popped data tuple, and its latent-mode step.
type iwp struct {
	mode IWPMode
	regs *tsm.Registers // nil unless mode is TSM

	// DedupPunct suppresses output punctuation that does not advance the
	// operator's output watermark. Disabling it (ablation AB2) forwards
	// every consumed punctuation tuple.
	DedupPunct bool

	watermark tuple.Time // highest output bound already conveyed downstream
	cut       cut        // checkpoint barriers popped so far (TSM mode)

	dataOut  uint64
	punctOut uint64

	// onPunct, when set, runs on a punctuation consumed from input in under
	// TSM rules, after a completed barrier's snapshot and before the bound
	// propagates. Bound once, at construction.
	onPunct func(in int, ts tuple.Time)
}

func newIWP(inputs int, mode IWPMode) iwp {
	c := iwp{mode: mode, DedupPunct: true, watermark: tuple.MinTime}
	if mode == TSM {
		c.regs = tsm.New(inputs)
	}
	return c
}

// Mode reports the operator's execution mode.
func (c *iwp) Mode() IWPMode { return c.mode }

// Registers exposes the TSM register bank (nil unless mode is TSM).
func (c *iwp) Registers() *tsm.Registers { return c.regs }

// DataEmitted reports the number of data tuples emitted.
func (c *iwp) DataEmitted() uint64 { return c.dataOut }

// PunctEmitted reports the number of punctuation tuples emitted.
func (c *iwp) PunctEmitted() uint64 { return c.punctOut }

// Watermark reports the highest output bound conveyed downstream so far
// (MinTime before the first punctuation) — the overlay's live progress mark.
func (c *iwp) Watermark() tuple.Time { return c.watermark }

// RaiseBound raises input in's TSM register to ts, as consuming a
// punctuation at ts from that input would, and reports whether it advanced.
// An advance has the punctuation's effects, in punctStep's order: the
// operator's punctuation hook (a join expires the opposite window), then the
// punctuation rule, unless the operator can now run — its next step pops a
// tuple at exactly the merged bound, which conveys it. Like a consumed
// punctuation it can only raise: a bound that lands below the register later
// is absorbed. Outside TSM mode there are no registers to raise.
func (c *iwp) RaiseBound(ctx *Ctx, in int, ts tuple.Time) bool {
	if c.regs == nil || !c.regs.Update(in, ts) {
		return false
	}
	if c.onPunct != nil {
		c.onPunct(in, ts)
	}
	if !c.More(ctx) {
		c.punctStep(ctx, nil, ts)
	}
	return true
}

// EndOfStream emits the end of stream for an operator whose every input has
// ended and drained, where its mode swallowed the inputs' EOS: latent mode
// consumes punctuation, EOS included. TSM forwards EOS itself (punctStep).
func (c *iwp) EndOfStream(ctx *Ctx) {
	if c.mode == LatentMode {
		ctx.Emit(tuple.EOS())
	}
}

// More implements the mode's `more` condition.
func (c *iwp) More(ctx *Ctx) bool {
	switch c.mode {
	case Basic:
		return allNonEmpty(ctx.Ins)
	case TSM:
		c.regs.Observe(ctx.Ins)
		ok, _, _ := c.regs.More(ctx.Ins)
		return ok
	default: // LatentMode
		return anyNonEmpty(ctx.Ins) >= 0
	}
}

// BlockingInput identifies the input to backtrack into when More is false.
func (c *iwp) BlockingInput(ctx *Ctx) int {
	switch c.mode {
	case Basic:
		return firstEmpty(ctx.Ins)
	case TSM:
		c.regs.Observe(ctx.Ins)
		if ok, _, _ := c.regs.More(ctx.Ins); ok {
			return -1
		}
		return c.regs.BlockingInput(ctx.Ins)
	default:
		return -1 // latent operators are never blocked while tuples exist
	}
}

// step runs one Basic or TSM execution step up to production. It pops the
// input the mode's rules select and returns a data tuple, with its input,
// for the operator to produce from. A punctuation it handles itself and
// returns nil and whether it emitted: Basic drops it (Basic predates
// punctuation-awareness; dropping keeps the comparison fair on tuple
// counts); TSM passes checkpoint barriers and propagates the bound.
func (c *iwp) step(ctx *Ctx) (t *tuple.Tuple, in int, yield bool) {
	if c.mode == Basic {
		if !allNonEmpty(ctx.Ins) {
			return nil, -1, false
		}
		// The input whose head has the least timestamp, ties to the
		// lowest input (Figure 1; the paper leaves the order of
		// simultaneous tuples open).
		min := ctx.Ins[0].Peek().Ts
		for i := 1; i < len(ctx.Ins); i++ {
			if ts := ctx.Ins[i].Peek().Ts; ts < min {
				min, in = ts, i
			}
		}
		if t = ctx.Ins[in].Pop(); t.IsPunct() {
			return nil, in, false
		}
		return t, in, false
	}
	c.regs.Observe(ctx.Ins)
	ok, in, τ := c.regs.More(ctx.Ins)
	if !ok {
		return nil, -1, false
	}
	t = ctx.Ins[in].Pop()
	if !t.IsPunct() {
		// Data at τ: the tuple itself carries the bound τ downstream
		// (Figure 6).
		if τ > c.watermark {
			c.watermark = τ
		}
		return t, in, false
	}
	yield = c.passBarrier(ctx, t)
	if c.onPunct != nil {
		c.onPunct(in, t.Ts)
	}
	return nil, in, c.punctStep(ctx, t, t.Ts) || yield
}

// punctStep runs the TSM punctuation rule for a bound ts consumed from an
// input, as the punctuation t or, with t nil, as a read bound (RaiseBound):
// re-observe, compute the merged bound, forward/dedup/absorb.
func (c *iwp) punctStep(ctx *Ctx, t *tuple.Tuple, ts tuple.Time) bool {
	c.regs.Observe(ctx.Ins)
	bound, _ := c.regs.Min()
	if !c.DedupPunct {
		c.punctOut++
		if t == nil {
			ctx.Emit(tuple.GetPunct(ts))
		} else {
			ctx.Emit(plainPunct(t))
		}
		return true
	}
	if bound > c.watermark && bound != tuple.MaxTime {
		c.watermark = bound
		c.punctOut++
		ctx.Emit(tuple.GetPunct(bound))
		return true
	}
	if t != nil && t.IsEOS() && bound == tuple.MaxTime { // every input has ended
		c.punctOut++
		ctx.Emit(tuple.EOS())
		return true
	}
	return false // absorbed: the bound did not advance
}

// cut counts one checkpoint's barriers at a multi-input TSM operator. That
// is all alignment takes: every barrier of a checkpoint carries the same T,
// nothing after a barrier on its arc is below T, and tsm.Registers.More
// takes a barrier before data at an equal timestamp, so τ-order consumes
// every input's pre-cut tuples, then the barriers, then the post-cut ones.
type cut struct {
	id uint64
	n  int
}

// arrive counts a barrier popped from one of inputs inputs and reports
// whether it was the checkpoint's last. A newer id restarts the count (the
// older checkpoint was abandoned); an older id's barrier counts for nothing.
func (c *cut) arrive(id uint64, inputs int) bool {
	switch {
	case id > c.id:
		c.id, c.n = id, 0
	case id < c.id:
		return false
	}
	c.n++
	return c.n == inputs
}

// passBarrier handles a popped punctuation t: when t is the last barrier of
// its checkpoint it snapshots the operator (Ctx.OnBarrier) with its
// registers capped at t.Ts (tsm.Registers.Cap) and forwards one barrier at
// t.Ts, raising the output watermark and punctuation count. It reports
// whether it emitted.
func (c *iwp) passBarrier(ctx *Ctx, t *tuple.Tuple) bool {
	if t.Ckpt == 0 || !c.cut.arrive(t.Ckpt, len(ctx.Ins)) {
		return false
	}
	c.regs.Cap(t.Ts)
	if t.Ts > c.watermark {
		c.watermark = t.Ts
	}
	c.punctOut++
	ctx.barrier(t.Ckpt, t.Ts)
	p := tuple.GetPunct(t.Ts)
	p.Ckpt = t.Ckpt
	ctx.Emit(p)
	return true
}

// plainPunct returns t untagged, for an operator forwarding consumed
// punctuation as is (DedupPunct off): its one barrier leaves by passBarrier.
// It copies rather than clears the tag, since another arc may share t.
func plainPunct(t *tuple.Tuple) *tuple.Tuple {
	if t.Ckpt == 0 {
		return t
	}
	return tuple.GetPunct(t.Ts)
}
