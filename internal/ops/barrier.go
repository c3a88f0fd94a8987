package ops

import (
	"repro/internal/buffer"
	"repro/internal/tuple"
)

// Checkpoint-barrier alignment for multi-input TSM operators.
//
// A barrier is a punctuation whose Ckpt field carries a checkpoint ID. It is
// injected at the sources and flows the arcs like any other punctuation, so
// it inherits shard broadcast and ordering for free. A multi-input operator
// must apply the barrier to a *consistent cut*: once the barrier has been
// consumed from one input, nothing that arrived behind it on that input may
// mutate operator state until the barrier has arrived on every input.
//
// Classic alignment blocks the barriered inputs. Here that would deadlock:
// the relaxed more condition consumes by global τ order, and a blocked input
// stops feeding its TSM register. Instead the operator keeps consuming by the
// normal rules and *stashes verbatim* everything popped from an
// already-barriered input — data and punctuation alike (stashing data only
// would let a post-barrier punctuation expire the opposite window before
// lower-timestamped stashed data replays: a missed join). Registers keep
// advancing because Observe peeks queue heads before they are popped.
//
// One exception to τ-gating: a barrier at the head of a *not yet barriered*
// input is consumable immediately, even above τ. This is safe — everything
// that preceded the barrier on that input was already consumed, the
// barrier's own promise justifies whatever its eventual merged punctuation
// claims, and popping a head never reorders an arc — and it is necessary,
// because a barrier's timestamp (the source's standing bound) can sit above
// τ indefinitely while another input lags.
//
// When the last input's barrier arrives the operator snapshots (Ctx.barrier),
// emits a single merged barrier punctuation downstream, and replays the stash
// in original pop order through the op's replay hooks.

// stashed is one tuple withheld during alignment, with the input it came
// from (joins need the side to replay correctly).
type stashed struct {
	input int
	t     *tuple.Tuple
}

// aligner tracks at most one in-flight barrier for a multi-input operator.
// The zero value is ready to use.
type aligner struct {
	id    uint64 // current barrier ID; 0 = no barrier in flight
	seen  []bool // inputs whose barrier has been consumed
	nseen int
	stash []stashed
}

func (a *aligner) active() bool { return a.id != 0 }

// ready returns the index of an input whose head is a barrier punctuation
// this aligner still needs — the τ-exemption described above — or -1.
func (a *aligner) ready(ins []*buffer.Queue) int {
	for i, q := range ins {
		h := q.Peek()
		if h == nil || !h.IsPunct() || h.Ckpt == 0 {
			continue
		}
		if !a.active() || !a.seen[i] || h.Ckpt != a.id {
			return i
		}
	}
	return -1
}

func (a *aligner) begin(id uint64, n int) {
	a.id = id
	if cap(a.seen) < n {
		a.seen = make([]bool, n)
	} else {
		a.seen = a.seen[:n]
		for i := range a.seen {
			a.seen[i] = false
		}
	}
	a.nseen = 0
}

func (a *aligner) mark(i int) {
	if !a.seen[i] {
		a.seen[i] = true
		a.nseen++
	}
}

func (a *aligner) complete() bool { return a.nseen == len(a.seen) }

func (a *aligner) put(i int, t *tuple.Tuple) {
	a.stash = append(a.stash, stashed{input: i, t: t})
}

// take returns the stash and resets the aligner to inactive.
func (a *aligner) take() []stashed {
	s := a.stash
	a.stash = nil
	a.id = 0
	a.nseen = 0
	return s
}

// barrierHost is the per-operator surface the shared alignment logic drives.
// All three multi-input TSM operators (union, window join, multiway join)
// implement it.
type barrierHost interface {
	// replayData processes one stashed data tuple exactly as the normal
	// execution step would have (without re-consulting τ — the tuple was
	// already admitted once).
	replayData(ctx *Ctx, input int, t *tuple.Tuple)
	// replayPunct processes one stashed punctuation exactly as the normal
	// punctuation step would have.
	replayPunct(ctx *Ctx, input int, t *tuple.Tuple)
	// barrierBound returns the operator's merged output bound at the cut —
	// min over the TSM registers, after observing current heads.
	barrierBound(ctx *Ctx) tuple.Time
	// emitBarrier snapshots the operator (via ctx.barrier) and emits the
	// single merged barrier punctuation downstream.
	emitBarrier(ctx *Ctx, id uint64, bound tuple.Time)
}

// handleBarrier performs barrier bookkeeping for one popped tuple. It
// reports handled=true when the tuple was consumed by the barrier machinery
// (stashed, absorbed, or it completed the cut) — the caller's execution step
// is then done; yield reports whether output was produced.
func handleBarrier(a *aligner, host barrierHost, ctx *Ctx, input int, t *tuple.Tuple) (handled, yield bool) {
	if t.IsPunct() && t.Ckpt != 0 && a.active() && t.Ckpt != a.id {
		// A newer barrier arrived before the old cut aligned — the old
		// checkpoint was abandoned (timeout). Release its stash as if the
		// old barrier never existed, then fall through to start the new cut.
		yield = replayStash(a, host, ctx) || yield
	}
	if a.active() && a.seen[input] {
		// Post-barrier traffic on an aligned input: withhold verbatim.
		a.put(input, t)
		return true, yield
	}
	if !t.IsPunct() || t.Ckpt == 0 {
		return false, yield
	}
	if !a.active() {
		a.begin(t.Ckpt, len(ctx.Ins))
	}
	a.mark(input)
	id := a.id
	if !a.complete() {
		return true, yield
	}
	// Cut complete. The merged bound is min over the registers, lowered to
	// any stashed data tuple it would otherwise contradict (a stashed tuple
	// replays *after* the merged punctuation is emitted).
	bound := host.barrierBound(ctx)
	for _, s := range a.stash {
		if !s.t.IsPunct() && s.t.Ts < bound {
			bound = s.t.Ts
		}
	}
	if bound == tuple.MaxTime {
		// Never let a barrier impersonate EOS downstream.
		bound = tuple.MinTime
	}
	host.emitBarrier(ctx, id, bound)
	replayStash(a, host, ctx)
	return true, true
}

// replayStash drains the stash in original pop order through the host's
// replay hooks and resets the aligner. It reports whether output was
// produced.
func replayStash(a *aligner, host barrierHost, ctx *Ctx) bool {
	stash := a.take()
	for _, s := range stash {
		if s.t.IsPunct() {
			if s.t.Ckpt != 0 {
				// Defensive: a duplicate barrier rode into the stash.
				// Replay it as a plain bound; copy rather than mutate,
				// because the original may be shared across arcs.
				s.t = tuple.GetPunct(s.t.Ts)
			}
			host.replayPunct(ctx, s.input, s.t)
		} else {
			host.replayData(ctx, s.input, s.t)
		}
	}
	return len(stash) > 0
}
