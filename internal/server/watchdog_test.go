package server

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

func TestWatchdogKillsStalledRun(t *testing.T) {
	wd := newWatchdog(5*time.Millisecond, 20*time.Millisecond)
	wd.start()
	defer wd.shutdown()

	ctx, cancel := context.WithCancelCause(context.Background())
	var beat atomic.Int64 // never advances
	unwatch := wd.watch(&watchItem{id: "stuck-run", beat: &beat, cancel: cancel})
	defer unwatch()

	select {
	case <-ctx.Done():
	case <-time.After(2 * time.Second):
		t.Fatal("watchdog never killed a silent run")
	}
	var stuck *StuckRunError
	if cause := context.Cause(ctx); !errors.As(cause, &stuck) {
		t.Fatalf("cause = %v, want *StuckRunError", cause)
	} else if stuck.ID != "stuck-run" {
		t.Errorf("StuckRunError.ID = %q", stuck.ID)
	}
	if wd.kills.Load() != 1 {
		t.Errorf("kills = %d, want 1", wd.kills.Load())
	}
}

func TestWatchdogSparesBeatingRun(t *testing.T) {
	wd := newWatchdog(5*time.Millisecond, 25*time.Millisecond)
	wd.start()
	defer wd.shutdown()

	ctx, cancel := context.WithCancelCause(context.Background())
	var beat atomic.Int64
	stop := make(chan struct{})
	go func() {
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				beat.Add(1)
			}
		}
	}()
	unwatch := wd.watch(&watchItem{id: "live-run", beat: &beat, cancel: cancel})

	time.Sleep(150 * time.Millisecond)
	if ctx.Err() != nil {
		t.Fatalf("watchdog killed a run that was making progress: %v", context.Cause(ctx))
	}
	close(stop)
	unwatch()
	cancel(nil)
}

func TestWatchdogUnwatchStopsTracking(t *testing.T) {
	wd := newWatchdog(5*time.Millisecond, 15*time.Millisecond)
	wd.start()
	defer wd.shutdown()

	ctx, cancel := context.WithCancelCause(context.Background())
	var beat atomic.Int64
	unwatch := wd.watch(&watchItem{id: "finished-run", beat: &beat, cancel: cancel})
	unwatch() // run completed before any stall verdict

	time.Sleep(100 * time.Millisecond)
	if ctx.Err() != nil {
		t.Fatalf("watchdog killed a deregistered run: %v", context.Cause(ctx))
	}
	cancel(nil)
}

// TestWatchdogKeyNeverRevokesUnkeyed: a keyed registration supersedes only
// registrations with the same key. A /run or sweep registration whose id
// happens to equal a worker ID keeps its stall verdict, and the preemption
// fields ride the same registration.
func TestWatchdogKeyNeverRevokesUnkeyed(t *testing.T) {
	wd := newWatchdog(time.Hour, 50*time.Millisecond) // never started; swept by hand
	var runBeat, workerBeat atomic.Int64
	var runKilled, workerKilled atomic.Bool
	var preempt atomic.Bool
	wd.watch(&watchItem{id: "w-1", beat: &runBeat, cancel: func(error) { runKilled.Store(true) },
		preempt: &preempt, queued: func() int64 { return 1 }})
	wd.watch(&watchItem{id: "w-1", key: "w-1", beat: &workerBeat, cancel: func(error) { workerKilled.Store(true) }})

	runBeat.Add(1)
	wd.sweep(time.Now().Add(time.Minute))
	if !preempt.Load() {
		t.Error("beating preemptable run with queued work was not preempted")
	}
	if runKilled.Load() || !workerKilled.Load() {
		t.Fatalf("after first sweep: run killed %v, worker killed %v; want false, true", runKilled.Load(), workerKilled.Load())
	}
	wd.sweep(time.Now().Add(2 * time.Minute)) // the run's counter is silent now
	if !runKilled.Load() {
		t.Error("unkeyed registration lost its stall verdict to a keyed one with the same id")
	}
	if got := wd.kills.Load(); got != 2 {
		t.Errorf("kills = %d, want 2", got)
	}
}
