package server

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestLimiterWeightedFIFO pins the limiter's FIFO grant order (every
// holder weighs one slot): a freed slot goes to the oldest waiter, never to
// a latecomer.
func TestLimiterWeightedFIFO(t *testing.T) {
	l := newLimiter(1)
	ctx := context.Background()
	if err := l.acquire(ctx); err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.acquire(ctx) // queues first
		order <- 1
		l.release()
	}()
	// Give the first waiter time to enqueue.
	waitFor(t, func() bool { l.mu.Lock(); defer l.mu.Unlock(); return l.waiters.Len() == 1 })
	wg.Add(1)
	go func() {
		defer wg.Done()
		l.acquire(ctx)
		order <- 2
		l.release()
	}()
	waitFor(t, func() bool { l.mu.Lock(); defer l.mu.Unlock(); return l.waiters.Len() == 2 })
	l.release()
	wg.Wait()
	if first := <-order; first != 1 {
		t.Fatalf("a later waiter overtook the head of the queue (got waiter %d first)", first)
	}
	if l.inUse() != 0 {
		t.Fatalf("leaked weight: %d", l.inUse())
	}
}

func TestLimiterAcquireCanceled(t *testing.T) {
	l := newLimiter(1)
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() { errCh <- l.acquire(ctx) }()
	waitFor(t, func() bool { l.mu.Lock(); defer l.mu.Unlock(); return l.waiters.Len() == 1 })
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("acquire returned %v, want context.Canceled", err)
	}
	l.release()
	// The canceled waiter must have left the queue; capacity is free again.
	if err := l.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	l.release()
}

func TestAdmissionSheds(t *testing.T) {
	a := newAdmission(2, 1)
	// Fill the limiter so reserved tickets stay queued.
	if err := a.lim.acquire(context.Background()); err != nil {
		t.Fatal(err)
	}
	t1, err := a.reserve()
	if err != nil {
		t.Fatal(err)
	}
	t2, err := a.reserve()
	if err != nil {
		t.Fatal(err)
	}
	_, err = a.reserve()
	var oe *OverloadError
	if !errors.As(err, &oe) {
		t.Fatalf("third reserve: got %v, want *OverloadError", err)
	}
	if oe.RetryAfter <= 0 {
		t.Errorf("OverloadError without a Retry-After hint: %+v", oe)
	}
	t1.abandon()
	t2.abandon()
	if a.queued() != 0 {
		t.Fatalf("backlog leaked: %d", a.queued())
	}
	// With slots free again, reserve succeeds.
	t3, err := a.reserve()
	if err != nil {
		t.Fatal(err)
	}
	t3.abandon()
	a.lim.release()
}

// waitFor polls a condition for up to 2s.
func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached within 2s")
}
