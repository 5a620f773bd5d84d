package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestRegistrySupersede: re-registering an identity atomically retires the
// old lease — its in-flight cells requeue, its credentials get 410 — and
// the successor polls the same cells back under higher attempt ordinals.
func TestRegistrySupersede(t *testing.T) {
	f := newProtocolFixture(t, "reborn")
	oldLease := f.lease
	oldAttempt := f.cells[0].Attempt

	// The old lease is still honoured before the supersede...
	resp, _ := postJSON(t, f.ts.URL+"/fabric/heartbeat", heartbeatRequest{Worker: "reborn", Lease: oldLease})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("heartbeat on live lease = %d", resp.StatusCode)
	}

	f.register(t, "reborn")
	if f.lease <= oldLease {
		t.Fatalf("new lease %d does not supersede %d", f.lease, oldLease)
	}
	if n := f.s.met.cellsRequeued.Value(); n != int64(len(f.cells)) {
		t.Errorf("cells_requeued = %d, want %d", n, len(f.cells))
	}

	// ...and rejected after it, telling the stale incarnation to re-register.
	resp, _ = postJSON(t, f.ts.URL+"/fabric/heartbeat", heartbeatRequest{Worker: "reborn", Lease: oldLease})
	if resp.StatusCode != http.StatusGone {
		t.Errorf("heartbeat on stale lease = %d, want 410", resp.StatusCode)
	}

	cells := f.poll(t, "reborn", 16)
	if len(cells) != len(f.cells) {
		t.Fatalf("successor polled %d cells, want %d", len(cells), len(f.cells))
	}
	for _, c := range cells {
		if c.Attempt <= oldAttempt {
			t.Errorf("cell %s attempt %d does not supersede %d", c.Cell, c.Attempt, oldAttempt)
		}
	}
	// The supersede must not have counted the worker dead or fired the
	// revoked registration's watchdog verdict.
	if n := f.s.met.workersDead.Value(); n != 0 {
		t.Errorf("workers_dead = %d after supersede, want 0", n)
	}
	if n := f.s.coord.workersLive(); n != 1 {
		t.Errorf("workers_live = %d, want 1", n)
	}
}

// TestRegistrySupersedeConcurrent hammers re-register against poll and
// heartbeat for the same identity and then checks the invariant the single
// critical section buys: every surviving assignment belongs to the one
// final lease — no cell is ever left assigned to a lease the registry no
// longer believes in.
func TestRegistrySupersedeConcurrent(t *testing.T) {
	f := newProtocolFixture(t, "seed") // occupies the grid with a sweep
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				resp, m := postJSON(t, f.ts.URL+"/fabric/register", registerRequest{Worker: "churner"})
				if resp.StatusCode != http.StatusOK {
					t.Errorf("register = %d", resp.StatusCode)
					return
				}
				lease := uint64(m["lease"].(float64))
				b := pollRequest{Worker: "churner", Lease: lease, Max: 4}
				if resp, _ := postJSON(t, f.ts.URL+"/fabric/poll", b); resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusGone {
					t.Errorf("poll = %d, want 200 or 410", resp.StatusCode)
					return
				}
			}
		}()
	}
	wg.Wait()

	c := f.s.coord
	c.mu.Lock()
	defer c.mu.Unlock()
	ent := c.workers["churner"]
	if ent == nil {
		t.Fatal("churner fell out of the registry")
	}
	for _, sw := range c.open {
		for _, cid := range sw.order {
			for _, a := range sw.cells[cid].assignees {
				if a.worker == "churner" && a.lease != ent.lease {
					t.Errorf("cell %s still assigned to superseded lease %d (current %d)", cid, a.lease, ent.lease)
				}
			}
		}
	}
}

// TestWatchKeyedReArm: re-arming an identity revokes the predecessor's
// pending stall verdict — only the newest registration can ever be killed,
// so a worker that re-registers is never condemned by its old self's
// silence.
func TestWatchKeyedReArm(t *testing.T) {
	w := newWatchdog(time.Hour, 50*time.Millisecond) // never started; swept by hand
	var beat1, beat2 atomic.Int64
	var killed1, killed2 atomic.Bool
	w.watch(&watchItem{id: "ident", key: "ident", beat: &beat1, cancel: func(error) { killed1.Store(true) }})
	w.watch(&watchItem{id: "ident", key: "ident", beat: &beat2, cancel: func(error) { killed2.Store(true) }}) // re-arm

	w.sweep(time.Now().Add(time.Minute)) // both counters silent far past the stall
	if killed1.Load() {
		t.Error("superseded registration's verdict fired")
	}
	if !killed2.Load() {
		t.Error("live registration was not killed")
	}
	if got := w.kills.Load(); got != 1 {
		t.Errorf("kills = %d, want 1", got)
	}
	// The verdict cleared the keyed slot: a fresh re-arm starts a fresh clock.
	var beat3 atomic.Int64
	var killed3 atomic.Bool
	unwatch := w.watch(&watchItem{id: "ident", key: "ident", beat: &beat3, cancel: func(error) { killed3.Store(true) }})
	beat3.Add(1)
	w.sweep(time.Now().Add(2 * time.Minute)) // first sample sees progress
	if killed3.Load() {
		t.Error("beating registration was killed")
	}
	unwatch()
	w.sweep(time.Now().Add(time.Hour))
	if killed3.Load() {
		t.Error("unwatched registration was killed")
	}
}

// TestWatchKeyedVerdictCarriesCause: the keyed kill is an ordinary stall
// verdict — a *StuckRunError cause naming the identity.
func TestWatchKeyedVerdictCarriesCause(t *testing.T) {
	w := newWatchdog(time.Hour, 50*time.Millisecond)
	var beat atomic.Int64
	ctx, cancel := context.WithCancelCause(context.Background())
	w.watch(&watchItem{id: "w-7", key: "w-7", beat: &beat, cancel: cancel})
	w.sweep(time.Now().Add(time.Minute))
	select {
	case <-ctx.Done():
	default:
		t.Fatal("stalled keyed registration was not cancelled")
	}
	var stuck *StuckRunError
	if !errors.As(context.Cause(ctx), &stuck) || stuck.ID != "w-7" {
		t.Fatalf("cause = %v, want StuckRunError for w-7", context.Cause(ctx))
	}
	// The slot is gone; a second sweep must not double-kill.
	w.sweep(time.Now().Add(2 * time.Minute))
	if got := w.kills.Load(); got != 1 {
		t.Errorf("kills = %d, want 1", got)
	}
}

// TestWatchKeyedChurnRace races re-arms against stall sweeps under -race.
// (A verdict collected just before a re-arm may still fire for the old
// incarnation — that is why markDead carries a lease guard, covered by
// TestRegistrySupersedeConcurrent; here the claim is narrower: the
// bookkeeping itself stays consistent under churn.)
func TestWatchKeyedChurnRace(t *testing.T) {
	w := newWatchdog(time.Hour, time.Nanosecond) // every sample is a stall verdict
	const idents = 4
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < idents; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("w-%d", i)
			var beat atomic.Int64
			for !stop.Load() {
				w.watch(&watchItem{id: key, key: key, beat: &beat, cancel: func(error) {}})
			}
		}(i)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for j := 0; j < 200; j++ {
			w.sweep(time.Now())
		}
	}()
	time.Sleep(20 * time.Millisecond)
	stop.Store(true)
	wg.Wait()

	// Settled end state: one live registration per identity, each killable
	// exactly once, after which the maps are empty.
	w.mu.Lock()
	if len(w.items) != len(w.keyed) {
		t.Errorf("items (%d) and keyed (%d) diverged", len(w.items), len(w.keyed))
	}
	if len(w.keyed) > idents {
		t.Errorf("%d keyed slots survive for %d identities", len(w.keyed), idents)
	}
	w.mu.Unlock()
	before := w.kills.Load()
	live := len(w.keyed)
	w.sweep(time.Now().Add(time.Hour))
	if got := w.kills.Load() - before; got != int64(live) {
		t.Errorf("final sweep killed %d, want %d", got, live)
	}
	w.mu.Lock()
	if len(w.items) != 0 || len(w.keyed) != 0 {
		t.Errorf("maps not empty after final sweep: items=%d keyed=%d", len(w.items), len(w.keyed))
	}
	w.mu.Unlock()
}
