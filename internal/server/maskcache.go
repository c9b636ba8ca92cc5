package server

import (
	"container/list"
	"sync"

	"tessellate/internal/grid"
)

// Named-mask cache. A finalized grid.Mask is immutable and safe for
// concurrent readers, and a named mask is a pure function of (name,
// dims), so masked jobs of one shape share a single mask instead of
// rebuilding its bitmap and summed-area table at every admission.
//
// The cache is a small LRU bounded both by entry count and by the
// total points of its masks (a mask costs about 8 B per point, most of
// it the summed-area table). A mask larger than the point bound is
// built per job and never cached. Concurrent misses on one key share
// one build: the first caller builds, the others wait for it. Bounds
// are enforced once a build completes, so masks still being built can
// briefly hold the cache over them.
const (
	maskCacheEntries = 16
	maskCachePoints  = 1 << 21
)

// maskKey identifies a named mask: masks have rank 1-3, and unused
// trailing extents stay 0, which no real extent is.
type maskKey struct {
	name string
	dims [3]int
}

type maskEntry struct {
	key    maskKey
	points int
	ready  chan struct{} // closed once m/err are set
	m      *grid.Mask
	err    error
}

// maskCache is a bounded LRU of finalized named masks. Safe for
// concurrent use.
type maskCache struct {
	mu     sync.Mutex
	m      map[maskKey]*list.Element
	lru    *list.List // front = most recently used
	points int
}

func newMaskCache() *maskCache {
	return &maskCache{m: make(map[maskKey]*list.Element), lru: list.New()}
}

// get returns the finalized named mask for dims, building it on a
// miss. dims must be admitted extents (rank 1-3 for a named mask, each
// >= 1). The returned mask may be shared with other jobs and must not
// be modified.
func (c *maskCache) get(name string, dims []int) (*grid.Mask, error) {
	key := maskKey{name: name}
	points := 1
	for _, nk := range dims {
		points *= nk // admission bounded the product, no overflow
	}
	if points > maskCachePoints || len(dims) > len(key.dims) {
		return grid.NamedMask(name, dims)
	}
	copy(key.dims[:], dims)

	c.mu.Lock()
	if el, ok := c.m[key]; ok {
		c.lru.MoveToFront(el)
		e := el.Value.(*maskEntry)
		c.mu.Unlock()
		<-e.ready
		return e.m, e.err
	}
	e := &maskEntry{key: key, points: points, ready: make(chan struct{})}
	c.m[key] = c.lru.PushFront(e)
	c.points += points
	c.mu.Unlock()

	e.m, e.err = grid.NamedMask(name, dims)
	close(e.ready)
	c.mu.Lock()
	if el, ok := c.m[key]; ok && el.Value == e && e.err != nil {
		// Unknown names get no entry, so they cannot evict real masks.
		c.removeLocked(el)
	}
	for c.lru.Len() > maskCacheEntries || c.points > maskCachePoints {
		c.removeLocked(c.lru.Back())
	}
	c.mu.Unlock()
	return e.m, e.err
}

func (c *maskCache) removeLocked(el *list.Element) {
	e := el.Value.(*maskEntry)
	c.lru.Remove(el)
	delete(c.m, e.key)
	c.points -= e.points
}

// len returns the current entry count.
func (c *maskCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lru.Len()
}
