package exp

import (
	"sync"

	"fgpsim/internal/enlarge"
	"fgpsim/internal/ir"
	"fgpsim/internal/loader"
	"fgpsim/internal/machine"
)

// The translating loader's two steps depend on different parts of a
// configuration (loader.Load):
//
//   - translation depends only on whether blocks are enlarged: SingleBB
//     runs the program as compiled, while EnlargedBB and Perfect both
//     materialize the enlargement file;
//   - static scheduling, for statically scheduled machines only, depends
//     also on the issue model, the cache hit latency and the scheduler
//     kind, which shape the multinodewords.
//
// A Prepared therefore memoizes at most one translation per block mode and
// one packed schedule per static codegen key, and each run gets a shallow
// image binding them to its full Config (loader.Image.Bind), since the
// engines read engine-level fields from img.Cfg. Everything else (window,
// predictor, BTB size, miss latency, conservative memory, ...) affects
// only the engine, so all configurations of one block mode share one
// program: the SingleBB translation is p.Prog itself. Images are
// read-only. A failed translation is memoized too, so a corrupt
// enlargement file costs one failed materialization per Prepared, not one
// per cell. FillUnit runs bypass the cache entirely: the fill unit
// enlarges its image at run time (AddChain mutates the program), so every
// run needs a private copy.
type imageCache struct {
	mu       sync.Mutex
	single   translation
	enlarged translation
	scheds   map[schedKey]*schedEnt
	tick     int64
}

// translation is one block mode's loader.Translate result, once made.
type translation struct {
	img *loader.Image
	err error
}

// schedKey is the codegen-relevant subset of a statically scheduled
// machine's Config, plus the block mode of the translation it packs.
type schedKey struct {
	enlarged bool
	issue    machine.IssueModel
	hitLat   int
	sched    machine.SchedKind
}

type schedEnt struct {
	s    *loader.Schedule
	used int64 // cache tick of last use, for LRU eviction
}

// scheduleCacheCap bounds the schedules a cache keeps. The figure sweeps
// need 20 per benchmark: 2 block modes x 10 pairs of issue model and hit
// latency.
const scheduleCacheCap = 64

// enlargedMode reports whether a block mode runs the enlarged translation.
func enlargedMode(b machine.BranchMode) bool {
	return b == machine.EnlargedBB || b == machine.Perfect
}

func schedKeyOf(cfg machine.Config, enlarged bool) schedKey {
	return schedKey{enlarged: enlarged, issue: cfg.Issue, hitLat: cfg.Mem.HitLatency, sched: cfg.Sched}
}

// load returns the image of cfg on the single-block or the enlarged
// translation, translating and packing on a miss. The mutex covers the
// whole load, so concurrent sweep workers asking for the same translation
// or schedule do the work once.
func (c *imageCache) load(prog *ir.Program, ef *enlarge.File, cfg machine.Config, enlarged bool) (*loader.Image, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	tr, mode := &c.single, machine.SingleBB
	if enlarged {
		tr, mode = &c.enlarged, machine.EnlargedBB
	}
	if tr.img == nil && tr.err == nil {
		tr.img, tr.err = loader.Translate(prog, mode, ef)
	}
	if tr.err != nil {
		return nil, tr.err
	}
	var s *loader.Schedule
	if cfg.Disc == machine.Static {
		k := schedKeyOf(cfg, enlarged)
		ent := c.scheds[k]
		if ent == nil {
			if c.scheds == nil {
				c.scheds = make(map[schedKey]*schedEnt)
			}
			c.evictLRU()
			ent = &schedEnt{s: loader.Pack(tr.img.Prog, cfg)}
			c.scheds[k] = ent
		}
		c.tick++
		ent.used = c.tick
		s = ent.s
	}
	return tr.img.Bind(cfg, s)
}

// evictLRU makes room for one new schedule by dropping the least recently
// used ones.
func (c *imageCache) evictLRU() {
	for len(c.scheds) >= scheduleCacheCap {
		var victim schedKey
		oldest := int64(1<<63 - 1)
		for k, ent := range c.scheds {
			if ent.used < oldest {
				oldest = ent.used
				victim = k
			}
		}
		delete(c.scheds, victim)
	}
}

// image returns the loaded image to simulate cfg on, from the cache when
// the mode allows sharing.
func (p *Prepared) image(cfg machine.Config) (*loader.Image, error) {
	if cfg.Branch == machine.FillUnit {
		return loader.Load(p.Prog, cfg, p.EF)
	}
	return p.imgs.load(p.Prog, p.EF, cfg, enlargedMode(cfg.Branch))
}
