package dist

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/ops"
	"repro/internal/tuple"
)

// LinkSender is the transport half of an egress node: where its tuples go.
// client.Stream satisfies it directly. Send transfers tuple ownership to the
// sender; Punct conveys an ETS bound; CloseSend ends the link (the receiving
// server turns it into EOS on the remote ingress source).
type LinkSender interface {
	Send(t *tuple.Tuple) error
	Punct(ets tuple.Time) error
	CloseSend() error
}

// Egress is the producer-side boundary operator of a cut arc. It occupies
// the position of the remote consumer in the local fragment: it consumes the
// severed arc's traffic and forwards it over a LinkSender instead of a local
// buffer. ops.Sink cannot serve here — sinks eliminate punctuation, and a
// link must carry it (the remote ingress source's ETS progress *is* the
// forwarded punctuation).
//
// Egress is a terminal node (no output arcs), so the runtime retires its
// goroutine once all inputs hit EOS and drain — which means Exec must keep
// consuming even after a transport failure. After the first send error the
// operator swallows traffic locally (recording the error and a drop count)
// so the fragment still drains instead of wedging behind a dead link.
//
// The sender is installed at plan start, after deploy builds the fragment:
// Bind(nil→sender) flips an atomic, so installation needs no lock against a
// running engine. More is false while unbound — the node simply waits.
type Egress struct {
	name string
	// schema is the link schema (external-timestamp clone of the producer's
	// output schema).
	schema *tuple.Schema

	sender atomic.Pointer[senderBox]

	mu      sync.Mutex
	sendErr error

	sent    uint64
	puncts  uint64
	dropped uint64
	closed  bool
}

// senderBox wraps the interface so atomic.Pointer has a concrete type.
type senderBox struct{ s LinkSender }

// NewEgress returns an egress node for one cut arc.
func NewEgress(ca *CutArc) *Egress {
	return &Egress{name: "egress:" + ca.Name, schema: ca.Schema}
}

// Bind installs the transport. Call once, between deploy and start.
func (e *Egress) Bind(s LinkSender) { e.sender.Store(&senderBox{s: s}) }

// Err reports the first transport failure, if any.
func (e *Egress) Err() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sendErr
}

// Stats reports tuples forwarded, punctuation forwarded, and tuples dropped
// after a transport failure.
func (e *Egress) Stats() (sent, puncts, dropped uint64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.sent, e.puncts, e.dropped
}

func (e *Egress) Name() string             { return e.name }
func (e *Egress) NumInputs() int           { return 1 }
func (e *Egress) OutSchema() *tuple.Schema { return e.schema }

// More reports progress is possible: input held and transport bound.
func (e *Egress) More(ctx *ops.Ctx) bool {
	return e.sender.Load() != nil && !ctx.Ins[0].Empty()
}

// BlockingInput points upstream when the input is empty.
func (e *Egress) BlockingInput(ctx *ops.Ctx) int {
	if ctx.Ins[0].Empty() {
		return 0
	}
	return -1
}

// Exec forwards one tuple over the link. Egress never yields locally.
func (e *Egress) Exec(ctx *ops.Ctx) bool {
	box := e.sender.Load()
	if box == nil {
		return false
	}
	t := ctx.Ins[0].Pop()
	if t == nil {
		return false
	}
	e.mu.Lock()
	dead := e.sendErr != nil
	e.mu.Unlock()
	if dead {
		e.mu.Lock()
		e.dropped++
		e.mu.Unlock()
		return false
	}
	switch {
	case t.IsEOS():
		// A barrier may ride the EOS punctuation; report it locally before
		// the link closes.
		if t.Ckpt != 0 {
			reportBarrier(ctx, t.Ckpt, t.Ts)
		}
		err := box.s.CloseSend()
		e.fail(err)
		e.mu.Lock()
		e.closed = true
		e.mu.Unlock()
	case t.IsPunct():
		// Checkpoint barriers are node-local: the egress aligns the local
		// snapshot cut (acting as this fragment's sink for the barrier) and
		// forwards a plain ETS punctuation — cross-node barrier coordination
		// is out of scope (DESIGN §15).
		if t.Ckpt != 0 {
			reportBarrier(ctx, t.Ckpt, t.Ts)
		}
		e.fail(box.s.Punct(t.Ts))
		e.mu.Lock()
		e.puncts++
		e.mu.Unlock()
	default:
		// Send takes ownership: it encodes the tuple and returns it to the
		// pool at once, which clears it. This operator does not own t
		// exclusively — on a fan-out graph the same pointer rides sibling
		// arcs (possibly into another egress) — so ship a pooled copy; the
		// original is the collector's.
		cp := tuple.GetData(t.Ts, len(t.Vals))
		copy(cp.Vals, t.Vals)
		e.fail(box.s.Send(cp))
		e.mu.Lock()
		e.sent++
		e.mu.Unlock()
	}
	return false
}

// reportBarrier notifies the engine of a fully applied checkpoint barrier.
func reportBarrier(ctx *ops.Ctx, id uint64, bound tuple.Time) {
	if ctx.OnBarrier != nil {
		ctx.OnBarrier(id, bound)
	}
}

// fail records the first transport error.
func (e *Egress) fail(err error) {
	if err == nil {
		return
	}
	e.mu.Lock()
	if e.sendErr == nil {
		e.sendErr = fmt.Errorf("dist: %s: %w", e.name, err)
	}
	e.mu.Unlock()
}

func (e *Egress) String() string {
	sent, puncts, dropped := e.Stats()
	return fmt.Sprintf("%s (sent=%d puncts=%d dropped=%d)", e.name, sent, puncts, dropped)
}
