package ops

import (
	"fmt"

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
	iwp
	rr int // round-robin cursor for latent mode
}

// NewUnion builds an n-way union in the given mode.
func NewUnion(name string, schema *tuple.Schema, n int, mode IWPMode) *Union {
	if n < 2 {
		panic(fmt.Sprintf("union %s: need at least 2 inputs, got %d", name, n))
	}
	return &Union{
		base: base{name: name, inputs: n, schema: schema},
		iwp:  newIWP(n, mode),
	}
}

// Exec performs one production/consumption step per the mode's rules.
func (u *Union) Exec(ctx *Ctx) bool {
	if u.mode == LatentMode {
		return u.execLatent(ctx)
	}
	t, _, yield := u.step(ctx)
	if t == nil {
		return yield
	}
	u.dataOut++
	ctx.Emit(t)
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
