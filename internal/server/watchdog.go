package server

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// The watchdog turns "this run stopped making progress" into a typed,
// attributable kill. Every in-flight simulation registers a heartbeat
// counter that the engines bump every few thousand simulated cycles
// (core.Limits.Heartbeat); the watchdog samples the counters on a fixed
// interval and cancels — with a *StuckRunError as the context cause — any
// run whose counter sits still for the stall window. This is deliberately
// progress-based rather than deadline-based: a big sweep may legitimately
// run for hours, but a live engine always keeps beating, so a silent
// counter is the one reliable signature of a wedged run.

// StuckRunError reports a run killed by the watchdog.
type StuckRunError struct {
	ID    string        // request or job id
	Beats int64         // heartbeat count at which progress stopped
	Stall time.Duration // how long the counter sat still before the kill
}

func (e *StuckRunError) Error() string {
	return fmt.Sprintf("server: run %s stuck: no engine progress for %s (heartbeat %d)", e.ID, e.Stall, e.Beats)
}

type watchdog struct {
	interval time.Duration
	stall    time.Duration
	kills    atomic.Int64

	mu    sync.Mutex
	items map[int64]*watchItem
	keyed map[string]int64 // watchItem.key -> items key of its live registration
	next  int64

	stop chan struct{}
	done chan struct{}
}

// watchItem is one registration. Callers fill id, beat and cancel, plus
// the optional key and preemption fields; watch owns the rest.
type watchItem struct {
	id     string
	beat   *atomic.Int64
	cancel context.CancelCauseFunc

	// key, when set, is a stable identity: registering it atomically
	// supersedes any live registration with the same key. This is the
	// fabric registry's liveness primitive. A worker that crashes and
	// re-registers must re-arm its staleness clock in one step: the old
	// registration's pending verdicts are revoked before the new one
	// becomes visible, so the predecessor's stall timer can never kill
	// (and requeue the cells of) its own successor. Only the registry sets
	// a key, so a worker ID can never revoke a /run or sweep registration.
	key string

	// Preemption fields (nil preempt = kill-only item). A preemptable run
	// that is still beating but has held its slot past preemptAfter while
	// other work is queued is asked — once — to stop at its next checkpoint
	// boundary. Preemption is cooperative and distinct from the stall kill:
	// a stalled run cannot reach a checkpoint, so it is still killed.
	preempt      *atomic.Bool
	preemptAfter time.Duration
	queued       func() int64

	last      int64
	since     time.Time
	started   time.Time
	preempted bool

	// revoked is set when the registration is withdrawn — unwatch, or a
	// keyed registration superseding it. A stall verdict already collected
	// for a revoked item must not fire: the identity it would kill now
	// belongs to a newer registration (a worker that re-registered after a
	// restart), and cancelling it would kill the successor by mistake.
	revoked atomic.Bool
}

func newWatchdog(interval, stall time.Duration) *watchdog {
	if interval <= 0 {
		interval = time.Second
	}
	if stall <= 0 {
		stall = 30 * time.Second
	}
	return &watchdog{
		interval: interval,
		stall:    stall,
		items:    make(map[int64]*watchItem),
		keyed:    make(map[string]int64),
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

func (w *watchdog) start() { go w.loop() }

// shutdown stops the sampling loop; registered runs are left alone.
func (w *watchdog) shutdown() {
	close(w.stop)
	<-w.done
}

// watch registers a run. it.beat must be the counter handed to the
// engines; it.cancel is invoked with a *StuckRunError cause on a stall
// verdict. The returned func deregisters (idempotent, safe after a kill).
func (w *watchdog) watch(it *watchItem) (unwatch func()) {
	now := time.Now()
	it.last = it.beat.Load()
	it.since = now
	it.started = now
	w.mu.Lock()
	w.next++
	num := w.next
	if it.key != "" {
		if prevNum, ok := w.keyed[it.key]; ok {
			if prev := w.items[prevNum]; prev != nil {
				prev.revoked.Store(true)
				delete(w.items, prevNum)
			}
		}
		w.keyed[it.key] = num
	}
	w.items[num] = it
	w.mu.Unlock()
	return func() {
		w.mu.Lock()
		it.revoked.Store(true)
		delete(w.items, num)
		w.dropKeyLocked(it, num)
		w.mu.Unlock()
	}
}

// dropKeyLocked clears the keyed slot if it still names registration num.
func (w *watchdog) dropKeyLocked(it *watchItem, num int64) {
	if it.key != "" && w.keyed[it.key] == num {
		delete(w.keyed, it.key)
	}
}

func (w *watchdog) loop() {
	defer close(w.done)
	t := time.NewTicker(w.interval)
	defer t.Stop()
	for {
		select {
		case <-w.stop:
			return
		case now := <-t.C:
			w.sweep(now)
		}
	}
}

// sweep samples every watched counter once.
func (w *watchdog) sweep(now time.Time) {
	w.mu.Lock()
	var killed []*watchItem
	for num, it := range w.items {
		cur := it.beat.Load()
		if cur != it.last {
			it.last, it.since = cur, now
		} else if now.Sub(it.since) >= w.stall {
			killed = append(killed, it)
			delete(w.items, num)
			w.dropKeyLocked(it, num)
			continue
		}
		if it.preempt != nil && !it.preempted &&
			now.Sub(it.started) >= it.preemptAfter && it.queued() > 0 {
			it.preempted = true // one-shot: never re-preempt the same registration
			it.preempt.Store(true)
		}
	}
	w.mu.Unlock()
	// Cancel outside the lock: cancellation can trigger arbitrary callbacks.
	// Re-check revocation right before firing — a keyed re-arm racing this
	// sweep may have superseded the item after it was collected.
	for _, it := range killed {
		if it.revoked.Load() {
			continue
		}
		w.kills.Add(1)
		it.cancel(&StuckRunError{ID: it.id, Beats: it.last, Stall: now.Sub(it.since)})
	}
}
