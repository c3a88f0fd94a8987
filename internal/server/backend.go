package server

import (
	"repro/internal/ops"
	"repro/internal/tuple"
)

// Backend resolves stream names to ingest sinks. The server is deliberately
// decoupled from the engine: cmd/streamd plugs a runtime engine in through
// NewEngineBackend, internal/dist plugs in a worker's link backend, and tests
// plug in recorders.
type Backend interface {
	// Open resolves a stream name to its schema and an ingest sink. The
	// server calls it once per stream (bindings are refcounted server-side)
	// and Closes the sink after the last EOS.
	Open(name string) (*tuple.Schema, StreamSink, error)
}

// StreamSink is where a bound stream's tuples go. Ingest and IngestBatch may
// block — that is the engine's backpressure, and the session stops reading
// its socket while blocked, pushing the pressure onto TCP and ultimately the
// client's credit window.
type StreamSink interface {
	// Ingest takes ownership of one raw tuple (data or punctuation).
	Ingest(t *tuple.Tuple)
	// IngestBatch takes ownership of the tuples (not the slice).
	IngestBatch(ts []*tuple.Tuple)
	// Source exposes the stream's source operator for skew feedback and
	// drain-time ETS, or nil when the backend has no source.
	Source() *ops.Source
	// Close ends the stream (EOS downstream).
	Close()
}

// Ingestor is the slice of runtime.Engine the engine backend needs; an
// interface so server does not import runtime (and so tests can fake it).
type Ingestor interface {
	Ingest(src *ops.Source, raw *tuple.Tuple)
	IngestBatch(src *ops.Source, raws []*tuple.Tuple)
	CloseStream(src *ops.Source)
}

// NewEngineBackend adapts a running engine to the server: lookup resolves
// declared streams (core.Engine.LookupStream has the right signature) and
// ing delivers into the engine's source inboxes.
func NewEngineBackend(ing Ingestor, lookup func(name string) (*tuple.Schema, *ops.Source, error)) Backend {
	return &engineBackend{ing: ing, lookup: lookup}
}

type engineBackend struct {
	ing    Ingestor
	lookup func(name string) (*tuple.Schema, *ops.Source, error)
}

func (b *engineBackend) Open(name string) (*tuple.Schema, StreamSink, error) {
	sch, src, err := b.lookup(name)
	if err != nil {
		return nil, nil, err
	}
	return sch, &engineSink{ing: b.ing, src: src}, nil
}

type engineSink struct {
	ing Ingestor
	src *ops.Source
}

func (s *engineSink) Ingest(t *tuple.Tuple)         { s.ing.Ingest(s.src, t) }
func (s *engineSink) IngestBatch(ts []*tuple.Tuple) { s.ing.IngestBatch(s.src, ts) }
func (s *engineSink) Source() *ops.Source           { return s.src }
func (s *engineSink) Close()                        { s.ing.CloseStream(s.src) }
