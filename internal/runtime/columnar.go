// Columnar data plane for the concurrent runtime. With Options.Columnar,
// arcs whose consumer has a columnar fast path (ops.ColOperator) carry
// tuple.ColBatch — contiguous typed columns with punctuation as metadata
// marks — end to end; every other arc stays on row batches with lossless
// conversion at the boundary. The four flush rules of the batched data
// plane (punctuation / demand / idle / delay) apply to columnar pending
// batches identically: a batch acquiring a punctuation mark flushes
// immediately, so ETS latency is unchanged, and pendCount/pendSince cover
// both pending kinds so the demand, idle and delay triggers need no new
// code paths.
package runtime

import (
	"time"

	"repro/internal/metrics"
	"repro/internal/ops"
	"repro/internal/tuple"
)

// IngestColBatch delivers a columnar batch of raw data rows to the given
// source node in one channel operation — the columnar analogue of
// IngestBatch. Ownership of b transfers to the engine; timestamping (per
// the stream's timestamp kind), sequence numbering and estimator feeding
// happen inside the source's goroutine, exactly as for row ingest.
//
// Batches should carry data rows only. Punctuation belongs on the row
// paths (Ingest / CloseStream / a wrapper's GetPunct) so its ordering
// against queued inbox tuples is exact; marks found in an ingested batch
// are tolerated but re-routed through the inbox, which may delay them
// relative to the batch's own rows (never the reverse — an early data
// tuple cannot violate a bound, an early bound could).
//
// Safe for concurrent use; blocks when the source's channel is full.
func (e *Engine) IngestColBatch(src *ops.Source, b *tuple.ColBatch) {
	if b == nil || b.Empty() {
		tuple.PutColBatch(b)
		return
	}
	n := e.srcNode[src]
	if n == nil {
		panic("runtime: IngestColBatch on a source not in this graph")
	}
	select {
	case n.in <- portBatch{port: 0, col: b}:
	case <-e.stop:
		tuple.PutColBatch(b)
	}
}

// deliverCol handles one columnar arc delivery on the receiving node's
// goroutine: source batches are stamped and emitted inline (columnar
// batches bypass the inbox queue), columnar-capable operators execute the
// batch directly, and row operators get a lossless row conversion into
// their input queue.
func (e *Engine) deliverCol(n *node, ctx *ops.Ctx, colCtx *ops.ColCtx, pb portBatch) {
	b := pb.col
	op := n.gn.Op
	n.obs.tuplesIn.Add(uint64(b.Len() + len(b.Puncts)))
	if src := n.gn.Source(); src != nil {
		e.noteSourceActivity(n)
		// Run the source dry first so anything already queued in the inbox
		// (row ingests, watchdog heartbeats) is emitted before this batch:
		// per-call arrival order is preserved across the two ingest paths.
		for op.More(ctx) {
			op.Exec(ctx)
		}
		if len(b.Puncts) > 0 {
			for _, p := range b.Puncts {
				if p.Ts == tuple.MaxTime {
					n.srcDone = true
				}
				pt := tuple.GetPunct(p.Ts)
				pt.Ckpt = p.Ckpt
				src.Offer(pt)
			}
			b.Puncts = b.Puncts[:0]
		}
		if e.fault != nil && b.Len() > 0 {
			// Chaos tuple-drop applies per row, as on the row ingest path.
			kept := tuple.GetColBatch(b.NumCols())
			for r := 0; r < b.Len(); r++ {
				if e.fault.DropTuple(n.name) {
					continue
				}
				kept.AppendRowFrom(b, r)
			}
			tuple.PutColBatch(b)
			b = kept
		}
		if b.Len() == 0 {
			tuple.PutColBatch(b)
			return
		}
		src.IngestCol(b, e.now())
		e.emitCol(n, b)
		return
	}
	// Late accounting uses the arc's watermark as of before this delivery,
	// as on the row path: a batch's own marks bound future batches, not the
	// rows travelling with them.
	wmPre := n.obs.arcWm[pb.port].Load()
	if wmPre > int64(tuple.MinTime) && b.Len() > 0 {
		late := 0
		for _, ts := range b.Ts[:b.Len()] {
			if int64(ts) < wmPre {
				late++
			}
		}
		if late > 0 {
			e.countLate(n, late)
		}
	}
	for _, p := range b.Puncts {
		// Columnar marks carry no trace ID (trace 0): span timelines end
		// at a row→columnar boundary, the per-arc lag accounting does not.
		e.notePunctArrival(n, pb.port, p.Ts, 0)
		if p.Ts == tuple.MaxTime {
			n.eosSeen[pb.port] = true
		}
	}
	if n.colMode {
		n.punctBoundary = false
		op.(ops.ColOperator).ExecCol(b, colCtx)
		// Columnar apply point: the batch ended on an emitted bound with
		// nothing pending — the same quiescence condition as the row loop.
		if n.punctBoundary && n.sincePunct == 0 && n.pendCount == 0 {
			e.maybeApplyReconf(n, op)
		}
		return
	}
	// Boundary: a row operator fed by a columnar arc (possible when a
	// produced batch fans out to mixed consumers). Convert losslessly into
	// the input queue; the scheduling loop runs the operator next.
	tmp := e.pool.Get()
	tmp = b.AppendRows(tmp, &n.mag)
	n.ins[pb.port].PushAll(tmp)
	e.pool.Put(tmp)
	tuple.PutColBatch(b)
	e.shedOverflow(n, ctx)
}

// colAppendTuple decomposes one row-emitted tuple into out arc i's pending
// columnar batch (punctuation becomes a metadata mark). The caller keeps
// ownership of t — its values are copied.
func (e *Engine) colAppendTuple(n *node, i int, t *tuple.Tuple) {
	b := n.colPend[i]
	if b == nil {
		b = tuple.GetColBatch(0) // adopts the first data row's arity
		n.colPend[i] = b
	}
	b.AppendTuple(t)
	n.pendCount++
	if !t.IsPunct() && b.Len() >= int(n.batchSize.Load()) {
		e.flushColArc(n, i)
	}
}

// colAppendBatch merges b into out arc i's pending columnar batch. With
// adopt, ownership of b transfers (it is installed directly when the arc
// has nothing pending, recycled after copying otherwise); without adopt the
// contents are copied and b is left intact for the caller's other arcs.
func (e *Engine) colAppendBatch(n *node, i int, b *tuple.ColBatch, adopt bool) {
	cnt := b.Len() + len(b.Puncts)
	pend := n.colPend[i]
	if pend == nil {
		if adopt {
			n.colPend[i] = b
		} else {
			nb := tuple.GetColBatch(b.NumCols())
			nb.AppendBatch(b)
			n.colPend[i] = nb
		}
	} else {
		pend.AppendBatch(b)
		if adopt {
			tuple.PutColBatch(b)
		}
	}
	n.pendCount += cnt
	if n.colPend[i] != nil && n.colPend[i].Len() >= int(n.batchSize.Load()) {
		e.flushColArc(n, i)
	}
}

// emitCol is the batch analogue of emit: it distributes an operator-emitted
// columnar batch to every out arc — columnar arcs by adoption (last taker)
// or copy, row boundary arcs through a one-time row materialization — and
// applies the flush rules: any punctuation mark flushes all pending output,
// a full arc flushes itself.
func (e *Engine) emitCol(n *node, b *tuple.ColBatch) {
	if len(n.outs) == 0 {
		tuple.PutColBatch(b)
		return
	}
	if n.pendCount == 0 {
		n.pendSince = time.Now()
	}
	hasPunct := b.HasPunct()
	// Quiescence accounting must reflect the batch's internal order, not
	// the order the helpers below run in: after this emission, the data
	// still unbounded is exactly the rows positioned after the last mark.
	// Computed now (b may be adopted or recycled below), stored at the end
	// so the helpers' own bookkeeping is overridden.
	sinceAfter := n.sincePunct + b.Len()
	if hasPunct {
		sinceAfter = b.Len() - b.Puncts[len(b.Puncts)-1].Pos
	}
	for _, p := range b.Puncts {
		e.notePunctOutTs(n, p.Ts)
	}
	colArcs := 0
	for i := range n.outs {
		if n.colArc[i] {
			colArcs++
		}
	}
	if colArcs < len(n.outs) {
		// Row boundary arcs: materialize rows once. With more than one row
		// arc the pointers are shared, which is exactly the fan-out case
		// where the engine has recycling disabled.
		tmp := e.pool.Get()
		tmp = b.AppendRows(tmp, &n.mag)
		for i := range n.outs {
			if n.colArc[i] {
				continue
			}
			for _, t := range tmp {
				e.appendArc(n, i, t, false) // marks were accounted above
			}
		}
		e.pool.Put(tmp)
	}
	seen := 0
	for i := range n.outs {
		if !n.colArc[i] {
			continue
		}
		seen++
		e.colAppendBatch(n, i, b, seen == colArcs)
	}
	if colArcs == 0 {
		tuple.PutColBatch(b)
	}
	n.sincePunct = sinceAfter
	if hasPunct {
		e.flushPending(n)
	}
}

// emitColTo is the batch analogue of emitTo: splitters hand each shard's
// gathered batch to its own arc. Ownership of b transfers.
func (e *Engine) emitColTo(n *node, i int, b *tuple.ColBatch) {
	if !n.colArc[i] {
		// Row boundary (a columnar splitter feeding row-mode shards).
		tmp := e.pool.Get()
		tmp = b.AppendRows(tmp, &n.mag)
		for _, t := range tmp {
			e.appendArc(n, i, t, true)
		}
		e.pool.Put(tmp)
		tuple.PutColBatch(b)
		return
	}
	if n.pendCount == 0 {
		n.pendSince = time.Now()
	}
	hasPunct := b.HasPunct()
	sinceAfter := n.sincePunct + b.Len()
	if hasPunct {
		sinceAfter = b.Len() - b.Puncts[len(b.Puncts)-1].Pos
	}
	for _, p := range b.Puncts {
		e.notePunctOutTs(n, p.Ts)
	}
	e.colAppendBatch(n, i, b, true)
	n.sincePunct = sinceAfter
	if hasPunct {
		e.flushArc(n, i)
	}
}

// flushColArc sends out arc i's pending columnar batch downstream. It is
// the columnar half of flushArc; tuplesSent/tuplesOut count rows plus
// punctuation marks, matching the row path's per-tuple accounting.
func (e *Engine) flushColArc(n *node, i int) {
	b := n.colPend[i]
	if b == nil {
		return
	}
	n.colPend[i] = nil
	cnt := b.Len() + len(b.Puncts)
	if cnt == 0 {
		tuple.PutColBatch(b)
		return
	}
	n.pendCount -= cnt
	e.batchesSent.Add(1)
	e.tuplesSent.Add(uint64(cnt))
	n.obs.batchesOut.Inc()
	n.obs.tuplesOut.Add(uint64(cnt))
	if e.trace != nil {
		e.trace.Emit(metrics.EvBatchFlush, n.name, e.now(), int64(cnt))
	}
	select {
	case n.outs[i].in <- portBatch{port: n.outPorts[i], col: b}:
	case <-e.stop:
		// Stopping: the consumer may already have exited (see flushArc).
		tuple.PutColBatch(b)
	}
}
