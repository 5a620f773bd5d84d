package exp

import (
	"fmt"
	"sort"

	"fgpsim/internal/machine"
)

// This file is the fabric's shard planner: the piece that decides which
// worker a grid cell belongs to. Cells shard by *image-cache key* — the
// codegen-relevant subset of the configuration (imgcache.go) plus the
// benchmark — because that key is exactly the unit of reuse in a sweep: a
// worker that already translated "wc, enlarged, dynamic" serves every
// window/predictor/memory variant of it from its local image cache, so
// keeping those cells on one worker turns the translation work from
// O(cells) into O(distinct images). The assignment itself is a consistent
// hash ring, so workers joining or dying move only the cells that hashed
// to them, not the whole plan.

// ShardKey hashes a cell's image-cache identity: the benchmark name plus
// the Config fields the translating loader actually reads (the block mode,
// and schedKeyOf for a statically scheduled machine). All cells sharing a
// translation and schedule share a shard key, and therefore a ring owner.
func ShardKey(benchName string, cfg machine.Config) uint64 {
	enlarged := enlargedMode(cfg.Branch)
	static := cfg.Disc == machine.Static
	var k schedKey
	if static {
		k = schedKeyOf(cfg, enlarged)
	}
	h := specFNV(0xcbf29ce484222325)
	h.str(benchName)
	if enlarged {
		h.byte(1)
	} else {
		h.byte(0)
	}
	if static {
		h.byte(1)
	} else {
		h.byte(0)
	}
	h.u64(uint64(int64(k.issue.ID)))
	h.u64(uint64(int64(k.hitLat)))
	h.byte(byte(k.sched))
	return uint64(h)
}

// ringReplicas is the virtual-node count per ring member. Enough replicas
// smooth the load split across a handful of workers; the exact value only
// shifts which keys land where, never correctness, since every owner
// change is absorbed by requeue/steal.
const ringReplicas = 64

// Ring is a consistent-hash ring over named nodes (fabric workers). It is
// deterministic — the same members and keys always produce the same owners,
// which keeps shard plans reproducible across coordinator restarts — and
// not safe for concurrent use; callers serialize access (the coordinator
// holds its own mutex).
type Ring struct {
	members map[string]bool
	points  []ringPoint // sorted by hash
}

type ringPoint struct {
	hash uint64
	node string
}

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{members: make(map[string]bool)}
}

// Add inserts a node (idempotent).
func (r *Ring) Add(node string) {
	if r.members[node] {
		return
	}
	r.members[node] = true
	r.rebuild()
}

// Remove deletes a node (idempotent).
func (r *Ring) Remove(node string) {
	if !r.members[node] {
		return
	}
	delete(r.members, node)
	r.rebuild()
}

// Len returns the member count.
func (r *Ring) Len() int { return len(r.members) }

// Nodes returns the members in sorted order.
func (r *Ring) Nodes() []string {
	out := make([]string, 0, len(r.members))
	for n := range r.members {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// Owner maps a shard key to its owning node: the first virtual node at or
// clockwise after the key's position. Returns "" on an empty ring.
func (r *Ring) Owner(key uint64) string {
	if len(r.points) == 0 {
		return ""
	}
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= key })
	if i == len(r.points) {
		i = 0 // wrap past the top of the ring
	}
	return r.points[i].node
}

func (r *Ring) rebuild() {
	r.points = r.points[:0]
	for node := range r.members {
		for v := 0; v < ringReplicas; v++ {
			h := specFNV(0xcbf29ce484222325)
			h.str(node)
			h.str(fmt.Sprintf("#%d", v))
			r.points = append(r.points, ringPoint{hash: uint64(h), node: node})
		}
	}
	sort.Slice(r.points, func(i, j int) bool {
		if r.points[i].hash != r.points[j].hash {
			return r.points[i].hash < r.points[j].hash
		}
		// Tie-break by name so hash collisions cannot make ownership
		// depend on map iteration order.
		return r.points[i].node < r.points[j].node
	})
}
