package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// This file is the daemon's load-shedding front door: a bounded admission
// queue (requests beyond it are rejected immediately with an
// *OverloadError, which handlers turn into HTTP 429 + Retry-After) feeding
// a FIFO concurrency limiter sized from GOMAXPROCS. The queue bounds
// *waiting* work so memory and latency stay bounded under overload; the
// limiter bounds *running* work so simulations never oversubscribe the
// machine. Explicit shedding is the design point — a daemon that queues
// unboundedly converts overload into OOM and unbounded tail latency.
//
// Admission is two-phase: reserve() claims a queue slot synchronously (the
// shed decision, made while the HTTP handler can still answer 429), then
// ticket.acquire() blocks until the limiter grants a slot. Every holder —
// a /run, or one sweep cell on the in-process worker — takes one slot, so
// /run and sweep cells together never exceed the limiter's capacity, and a
// queued /run waits for one running cell rather than a whole sweep. Cells
// take their slot straight from the limiter: sweeps are shed by their own
// bound (unfinished sweeps, handleSweep), not by this queue.

// OverloadError is returned when the admission queue is full. RetryAfter is
// the backoff hint handlers forward as the Retry-After header.
type OverloadError struct {
	Backlog    int
	RetryAfter time.Duration
}

func (e *OverloadError) Error() string {
	return fmt.Sprintf("server: admission queue full (%d waiting); retry after %s", e.Backlog, e.RetryAfter)
}

// admission is the bounded queue in front of the limiter.
type admission struct {
	depth   int
	lim     *limiter
	backlog atomic.Int64
}

func newAdmission(queueDepth, concurrency int) *admission {
	if queueDepth < 1 {
		queueDepth = 1
	}
	return &admission{depth: queueDepth, lim: newLimiter(concurrency)}
}

// queued returns the number of admitted requests still waiting for limiter
// capacity (the /metrics queue-depth gauge).
func (a *admission) queued() int64 { return a.backlog.Load() }

// ticket is one reserved queue slot. Exactly one of acquire or abandon
// must be called on it.
type ticket struct{ a *admission }

// reserve claims a queue slot, shedding with *OverloadError when the queue
// is full.
func (a *admission) reserve() (*ticket, error) {
	n := a.backlog.Add(1)
	if int(n) > a.depth {
		a.backlog.Add(-1)
		// Scale the hint with how oversubscribed the limiter is: each
		// queued unit is roughly one limiter turn away.
		retry := time.Second * time.Duration(1+int(n)/a.lim.capacity())
		if retry > 30*time.Second {
			retry = 30 * time.Second
		}
		return nil, &OverloadError{Backlog: int(n) - 1, RetryAfter: retry}
	}
	return &ticket{a: a}, nil
}

// acquire blocks until the limiter grants a slot, leaving the queue either
// way. On success the returned release frees the slot.
func (t *ticket) acquire(ctx context.Context) (release func(), err error) {
	err = t.a.lim.acquire(ctx)
	t.a.backlog.Add(-1)
	if err != nil {
		return nil, err
	}
	return t.a.lim.release, nil
}

// abandon gives the queue slot back without acquiring.
func (t *ticket) abandon() { t.a.backlog.Add(-1) }

// limiter is a FIFO counting semaphore (the shape of
// golang.org/x/sync/semaphore at weight 1, re-implemented to keep the
// module dependency-free). FIFO matters: slots go to waiters in arrival
// order, so a /run queued behind a busy sweep gets the next free slot
// instead of racing the sweep's following cells for it.
type limiter struct {
	mu      sync.Mutex
	cap     int
	used    int
	waiters list.List // of chan struct{} (closed on grant), front = oldest
}

func newLimiter(capacity int) *limiter {
	if capacity < 1 {
		capacity = 1
	}
	return &limiter{cap: capacity}
}

func (l *limiter) capacity() int { return l.cap }

// inUse returns the number of held slots (the /metrics inflight gauge).
func (l *limiter) inUse() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.used
}

// acquire blocks until a slot is free and every earlier waiter is served.
func (l *limiter) acquire(ctx context.Context) error {
	l.mu.Lock()
	if l.waiters.Len() == 0 && l.used < l.cap {
		l.used++
		l.mu.Unlock()
		return nil
	}
	ready := make(chan struct{})
	elem := l.waiters.PushBack(ready)
	l.mu.Unlock()

	select {
	case <-ready:
		return nil
	case <-ctx.Done():
		l.mu.Lock()
		select {
		case <-ready:
			// Granted between ctx firing and taking the lock: keep the
			// books consistent by releasing the grant.
			l.mu.Unlock()
			l.release()
		default:
			l.waiters.Remove(elem)
			l.mu.Unlock()
		}
		return ctx.Err()
	}
}

// release frees one slot, handing it to the oldest waiter if there is one.
func (l *limiter) release() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.used--; l.used < 0 {
		panic("server: limiter released more than acquired")
	}
	if e := l.waiters.Front(); e != nil {
		l.used++
		l.waiters.Remove(e)
		close(e.Value.(chan struct{}))
	}
}
