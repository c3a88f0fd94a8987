package ckpt

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Engine is the surface the coordinator drives. The runtime engine
// implements it: Checkpoint picks a timestamp T above everything the sources
// have been given, has every source emit a barrier punctuation (tagged with
// id) at T where its stream reaches T, waits until every node has applied
// the barrier, and returns the collected segments. An attempt a source
// refuses — it had already emitted past T — fails, and the next tick retries
// with a fresh T. The engine does no I/O —
// persistence is the coordinator's job, so node goroutines only pay the
// in-memory encode.
type Engine interface {
	Checkpoint(id uint64, timeout time.Duration) (*Snapshot, error)
}

// DefaultInterval is the checkpoint cadence when Options.Interval is zero.
const DefaultInterval = 10 * time.Second

// DefaultTimeout bounds one barrier's flight time when Options.Timeout is
// zero.
const DefaultTimeout = 30 * time.Second

// DefaultKeep is how many complete checkpoints Prune retains when
// Options.Keep is zero.
const DefaultKeep = 3

// Options configures a Coordinator.
type Options struct {
	// Interval is the periodic checkpoint cadence (default DefaultInterval).
	Interval time.Duration
	// Timeout bounds one checkpoint's barrier flight (default
	// DefaultTimeout); a barrier that does not complete in time is
	// abandoned and the next tick retries with a fresh ID.
	Timeout time.Duration
	// Keep is how many complete checkpoints to retain (default DefaultKeep).
	Keep int
	// OnComplete, when non-nil, observes every durably committed
	// checkpoint (ID, wall duration, payload bytes).
	OnComplete func(id uint64, took time.Duration, bytes int64)
	// OnError, when non-nil, observes every failed attempt.
	OnError func(id uint64, err error)
}

// Coordinator periodically drives an Engine through checkpoint cycles and
// persists the results to a Store.
type Coordinator struct {
	eng  Engine
	st   *Store
	opts Options

	nextID   atomic.Uint64
	complete atomic.Uint64
	failed   atomic.Uint64

	stop     chan struct{}
	stopOnce sync.Once
	done     chan struct{}
	runOnce  sync.Once
	mu       sync.Mutex // serializes Once against the periodic loop
}

// NewCoordinator builds a coordinator. The store's newest existing
// checkpoint ID seeds the ID sequence so restart continues it.
func NewCoordinator(eng Engine, st *Store, opts Options) (*Coordinator, error) {
	if opts.Interval <= 0 {
		opts.Interval = DefaultInterval
	}
	if opts.Timeout <= 0 {
		opts.Timeout = DefaultTimeout
	}
	if opts.Keep <= 0 {
		opts.Keep = DefaultKeep
	}
	c := &Coordinator{eng: eng, st: st, opts: opts,
		stop: make(chan struct{}), done: make(chan struct{})}
	ids, err := st.List()
	if err != nil {
		return nil, err
	}
	if len(ids) > 0 {
		c.nextID.Store(ids[len(ids)-1])
	}
	return c, nil
}

// Completed reports the number of durably committed checkpoints this
// coordinator produced.
func (c *Coordinator) Completed() uint64 { return c.complete.Load() }

// Failed reports the number of failed attempts.
func (c *Coordinator) Failed() uint64 { return c.failed.Load() }

// Once runs one full checkpoint cycle synchronously: barrier, collect,
// durable write, prune. Safe to call concurrently with Run (cycles are
// serialized).
func (c *Coordinator) Once() (*Snapshot, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	id := c.nextID.Add(1)
	start := time.Now()
	snap, err := c.eng.Checkpoint(id, c.opts.Timeout)
	if err == nil && snap == nil {
		err = fmt.Errorf("ckpt: engine returned no snapshot")
	}
	var bytes int64
	if err == nil {
		snap.When = start.UnixMicro()
		bytes, err = c.st.Write(snap)
	}
	if err != nil {
		c.failed.Add(1)
		if c.opts.OnError != nil {
			c.opts.OnError(id, err)
		}
		return nil, err
	}
	c.complete.Add(1)
	if c.opts.OnComplete != nil {
		c.opts.OnComplete(id, time.Since(start), bytes)
	}
	if err := c.st.Prune(c.opts.Keep); err != nil && c.opts.OnError != nil {
		c.opts.OnError(id, err)
	}
	return snap, nil
}

// Run starts the periodic loop on its own goroutine; it returns
// immediately. Stop ends the loop.
func (c *Coordinator) Run() {
	c.runOnce.Do(func() {
		go func() {
			defer close(c.done)
			tick := time.NewTicker(c.opts.Interval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					c.Once() // errors are reported via OnError and retried next tick
				case <-c.stop:
					return
				}
			}
		}()
	})
}

// Stop ends the periodic loop and waits for an in-flight cycle to finish.
// Idempotent; a coordinator never Run is stopped trivially.
func (c *Coordinator) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.runOnce.Do(func() { close(c.done) })
	<-c.done
}
