package server

import (
	"container/list"
	"sync"

	"repro/encodingapi"
)

// resultCache is a bounded LRU of finished solve results keyed by the
// request's canonical key. It sits behind the singleflight layer: a hit
// answers without queueing, a miss falls through to coalescing and the
// pool. Only successful, deterministic results are stored (the server never
// caches timed-out, canceled or overloaded outcomes), so a hit is always
// byte-identical to what a fresh solve would return. Cached results are
// shared and never mutated, and carry no delivery metadata: each response
// renders its own copy (execMeta.deliver).
type resultCache struct {
	mu  sync.Mutex
	cap int
	ll  *list.List // front = most recently used
	m   map[requestKey]*list.Element
}

type cacheEntry struct {
	key requestKey
	res *encodingapi.EncodeResult
}

// newResultCache returns a cache bounded to capacity entries; capacity <= 0
// disables caching (every lookup misses, every store is dropped).
func newResultCache(capacity int) *resultCache {
	return &resultCache{
		cap: capacity,
		ll:  list.New(),
		m:   make(map[requestKey]*list.Element),
	}
}

// Get returns the cached result for k, if any, marking it most recently
// used.
func (c *resultCache) Get(k requestKey) (*encodingapi.EncodeResult, bool) {
	if c.cap <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[k]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Add stores res under k, evicting the least recently used entry beyond
// capacity.
func (c *resultCache) Add(k requestKey, res *encodingapi.EncodeResult) {
	if c.cap <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[k]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*cacheEntry).res = res
		return
	}
	c.m[k] = c.ll.PushFront(&cacheEntry{key: k, res: res})
	for c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the number of cached entries (for /v1/stats).
func (c *resultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
