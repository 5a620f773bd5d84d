package server

import (
	"fmt"
	"sync"

	"fgpsim/internal/bench"
	"fgpsim/internal/enlarge"
	"fgpsim/internal/exp"
)

// prepCache memoizes exp.Prepare results. Preparation is the expensive,
// run-independent part of a request (compile, profiling run, enlargement
// build, reference run), so a long-lived daemon does it once per program
// and amortizes it across every request and sweep cell that follows —
// the service-shaped analogue of exp's per-sweep image cache. An entry
// holds its program's block trace and its image cache (one enlarged
// translation and the packed static schedules; single-block images share
// the compiled program), so the cache keeps at most prepCacheCap completed
// entries and evicts the least recently used beyond that; an entry still
// being prepared is never evicted.
type prepCache struct {
	mu    sync.Mutex
	m     map[string]*prepEntry
	clock uint64 // ticks once per get; orders entries by last use
}

// prepCacheCap bounds the completed entries a prepCache keeps. It is above
// the programs one sweep or a burst of ad-hoc /run requests names, and a
// 40-program fabric benchmark pass fits whole.
const prepCacheCap = 64

type prepEntry struct {
	once sync.Once
	p    *exp.Prepared
	err  error

	lastUse uint64 // prepCache.clock at the latest get (under prepCache.mu)
	done    bool   // prepared; only done entries are evicted (under prepCache.mu)
}

func newPrepCache() *prepCache {
	return &prepCache{m: make(map[string]*prepEntry)}
}

// get prepares (once) the named unit. The builder runs outside the cache
// lock, so two different programs prepare concurrently while a second
// request for the same program blocks on the first's once.
func (c *prepCache) get(name string, build func() (*exp.Prepared, error)) (*exp.Prepared, error) {
	c.mu.Lock()
	e := c.m[name]
	if e == nil {
		e = &prepEntry{}
		c.m[name] = e
	}
	c.clock++
	e.lastUse = c.clock
	c.mu.Unlock()
	e.once.Do(func() { e.p, e.err = build() })
	c.mu.Lock()
	e.done = true
	c.evictLocked()
	c.mu.Unlock()
	return e.p, e.err
}

// evictLocked drops least recently used completed entries until at most
// prepCacheCap remain or only entries in preparation are left over.
func (c *prepCache) evictLocked() {
	for len(c.m) > prepCacheCap {
		victim, oldest := "", ^uint64(0)
		for name, e := range c.m {
			if e.done && e.lastUse < oldest {
				victim, oldest = name, e.lastUse
			}
		}
		if victim == "" {
			return
		}
		delete(c.m, victim)
	}
}

// prepareBench returns the prepared form of one of the paper's benchmarks.
func (c *prepCache) prepareBench(name string) (*exp.Prepared, error) {
	b := bench.ByName(name)
	if b == nil {
		return nil, fmt.Errorf("server: unknown benchmark %q", name)
	}
	return c.get(name, func() (*exp.Prepared, error) {
		return exp.Prepare(b, enlarge.DefaultOptions())
	})
}

// prepareSource returns the prepared form of an ad-hoc MiniC program. The
// supplied inputs serve as both the profiling and the measurement set
// (callers who care about the paper's two-set methodology submit a
// benchmark instead).
func (c *prepCache) prepareSource(src, in0, in1 string) (*exp.Prepared, error) {
	name := sourceName(src, in0, in1)
	return c.get(name, func() (*exp.Prepared, error) {
		b := &bench.Benchmark{
			Name:   name,
			Source: src,
			Inputs: func(int) ([]byte, []byte) { return []byte(in0), []byte(in1) },
		}
		return exp.Prepare(b, enlarge.DefaultOptions())
	})
}
