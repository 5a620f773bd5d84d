package server

import (
	"fmt"
	"sync"
	"testing"

	"fgpsim/internal/exp"
)

// countingBuilds hands out builders that count how often each program is
// prepared.
type countingBuilds struct {
	mu sync.Mutex
	n  map[string]int
}

func (cb *countingBuilds) build(name string) func() (*exp.Prepared, error) {
	return func() (*exp.Prepared, error) {
		cb.mu.Lock()
		cb.n[name]++
		cb.mu.Unlock()
		return &exp.Prepared{}, nil
	}
}

func (cb *countingBuilds) count(name string) int {
	cb.mu.Lock()
	defer cb.mu.Unlock()
	return cb.n[name]
}

func srcName(i int) string { return fmt.Sprintf("src%d", i) }

// TestPrepCacheEvictsLeastRecentlyUsed fills the cache with one program
// past its cap and checks the least recently used one goes; evicted, it
// prepares again exactly once however many callers ask at the same time.
func TestPrepCacheEvictsLeastRecentlyUsed(t *testing.T) {
	c := newPrepCache()
	cb := &countingBuilds{n: make(map[string]int)}
	for i := 0; i <= prepCacheCap; i++ {
		if _, err := c.get(srcName(i), cb.build(srcName(i))); err != nil {
			t.Fatal(err)
		}
		if i == 1 { // touch src0, leaving src1 the least recently used
			c.get(srcName(0), cb.build(srcName(0)))
		}
	}
	if len(c.m) > prepCacheCap {
		t.Fatalf("%d entries after %d programs, cap %d", len(c.m), prepCacheCap+1, prepCacheCap)
	}
	if _, ok := c.m[srcName(1)]; ok {
		t.Fatal("least recently used program src1 was kept")
	}
	if _, ok := c.m[srcName(0)]; !ok {
		t.Fatal("recently used program src0 was evicted")
	}

	const callers = 8
	got := make([]*exp.Prepared, callers)
	var wg sync.WaitGroup
	for g := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p, err := c.get(srcName(1), cb.build(srcName(1)))
			if err != nil {
				t.Error(err)
			}
			got[g] = p
		}()
	}
	wg.Wait()
	if n := cb.count(srcName(1)); n != 2 {
		t.Fatalf("evicted program prepared %d times in all, want 2 (once before eviction, once after)", n)
	}
	for g := range got {
		if got[g] != got[0] {
			t.Fatalf("caller %d got a different preparation than caller 0", g)
		}
	}
	for i := 0; i <= prepCacheCap; i++ {
		if n := cb.count(srcName(i)); i != 1 && n != 1 {
			t.Errorf("%s prepared %d times, want 1", srcName(i), n)
		}
	}
}

// TestPrepCacheKeepsEntriesInPreparation checks that a program still being
// prepared is never evicted, even when it is the least recently used.
func TestPrepCacheKeepsEntriesInPreparation(t *testing.T) {
	c := newPrepCache()
	cb := &countingBuilds{n: make(map[string]int)}
	release := make(chan struct{})
	slowDone := make(chan struct{})
	started := make(chan struct{})
	go func() {
		defer close(slowDone)
		c.get("slow", func() (*exp.Prepared, error) {
			close(started)
			<-release
			return &exp.Prepared{}, nil
		})
	}()
	<-started
	for i := 0; i <= prepCacheCap; i++ {
		c.get(srcName(i), cb.build(srcName(i)))
	}
	c.mu.Lock()
	_, kept := c.m["slow"]
	n := len(c.m)
	c.mu.Unlock()
	if !kept {
		t.Fatal("entry in preparation was evicted")
	}
	if n > prepCacheCap+1 {
		t.Fatalf("%d entries, want at most cap %d plus the one in preparation", n, prepCacheCap)
	}
	close(release)
	<-slowDone
	if n := len(c.m); n > prepCacheCap {
		t.Fatalf("%d entries once preparation finished, cap %d", n, prepCacheCap)
	}
}
