package dichotomy

import (
	"math/bits"
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
)

// compatShardCount is the number of independently locked shards of a
// CompatCache. A power of two so the shard index is a cheap mask; 64 shards
// keep lock contention negligible for worker pools far larger than any
// machine this code runs on.
const compatShardCount = 64

// defaultShardCap bounds the entries per shard (≈ 256k pairs total for the
// default cache) so a pathological workload cannot grow the cache without
// bound; a full shard is emptied wholesale, which keeps the common path a
// single map insert.
const defaultShardCap = 4096

// CompatCache memoizes pairwise Compatible results between dichotomies
// under a shard-locked map, safe for concurrent use by the parallel prime
// engines. Compatibility is symmetric, so a pair is stored once under a
// canonical key regardless of argument order.
//
// Keys are 128-bit content hashes computed directly from the L/R words — no
// string materialization, so a warm lookup performs zero heap allocations.
// Every cache (and every RunScope view) carries a distinct scope salt mixed
// into the hash, so entries written through one scope are unreachable
// through another even when the dichotomies have identical index sets; that
// is what keeps unrelated problems sharing one cache instance from aliasing
// each other's entries. Hash collisions within a scope are possible in
// principle (the tests cross-check against direct evaluation on large
// random corpora) but need ≈ 2^64 distinct pairs to become likely —
// far beyond the shard capacity bound.
//
// A cache only pays for itself when the same dichotomy pairs are checked
// repeatedly — e.g. when both prime engines run over one seed set (the
// DESIGN.md ablation), or across the repeated generation calls of a GPI
// selection loop. For a single adjacency build the raw bitset test is
// cheaper than the key lookup, which is why prime.Options leaves the cache
// opt-in (nil disables it).
type CompatCache struct {
	shardCap int
	scope    uint64
	shards   *[compatShardCount]compatShard
	stats    *compatStats
}

// compatStats counts lookups per cache view (RunScope views get fresh
// counters). Plain atomics: incrementing them never allocates, so the
// warm-lookup zero-allocation guarantee is unaffected.
type compatStats struct {
	hits, misses atomic.Int64
}

type compatShard struct {
	mu sync.RWMutex
	m  map[pairKey]bool
}

// pairKey is the canonical 128-bit key of an unordered dichotomy pair under
// one cache scope.
type pairKey struct {
	hi, lo uint64
}

// nextScope issues process-unique scope salts.
var nextScope atomic.Uint64

// SharedCompatCache is the process-wide cache instance. Sharing it across
// unrelated problems is an explicit opt-in: engines never reach for it on
// their own, and callers that do share it across problem runs should take a
// RunScope per run so entries from one problem can never be returned for
// another.
var SharedCompatCache = NewCompatCache()

// NewCompatCache returns an empty cache with the default per-shard bound
// and a fresh scope. This is the default for one engine run (one problem):
// a per-run cache cannot alias entries across problems by construction.
func NewCompatCache() *CompatCache {
	return &CompatCache{
		shardCap: defaultShardCap,
		scope:    nextScope.Add(1),
		shards:   new([compatShardCount]compatShard),
		stats:    new(compatStats),
	}
}

// RunScope returns a view of c with a fresh scope salt: lookups through the
// view hit only entries stored through the same view, while the shard
// storage and capacity bounds stay shared with c. Use it to scope a
// long-lived shared cache (e.g. SharedCompatCache) to one problem run —
// dichotomies from unrelated problems that happen to have identical index
// sets then occupy distinct keys instead of aliasing.
func (c *CompatCache) RunScope() *CompatCache {
	return &CompatCache{shardCap: c.shardCap, scope: nextScope.Add(1), shards: c.shards, stats: new(compatStats)}
}

// contentHash returns the 128-bit content hash of one dichotomy,
// orientation sensitive. The fold itself (trailing-zero skipping, dual
// SplitMix/FNV streams) lives in bitset.HashWords; core.CanonicalHashSet
// folds its values into the same two streams through bitset.MixWord.
func contentHash(d D) (uint64, uint64) {
	h1, h2 := bitset.HashWords(0x243f6a8885a308d3, 0x13198a2e03707344, d.L)
	return bitset.HashWords(h1, h2, d.R)
}

// key builds the canonical scope-salted key of an unordered pair:
// Compatible is symmetric, so the numerically smaller content hash comes
// first before the two halves are combined.
func (c *CompatCache) key(d, e D) pairKey {
	a1, a2 := contentHash(d)
	b1, b2 := contentHash(e)
	if b1 < a1 || (b1 == a1 && b2 < a2) {
		a1, a2, b1, b2 = b1, b2, a1, a2
	}
	salt := bitset.Mix64(c.scope)
	return pairKey{
		hi: bitset.Mix64(a1+bits.RotateLeft64(b1, 17)) ^ salt,
		lo: bitset.Mix64(a2 ^ bits.RotateLeft64(b2, 31) ^ salt),
	}
}

// shardOf maps a key to its shard.
func shardOf(k pairKey) int {
	return int(k.lo & (compatShardCount - 1))
}

// Compatible returns d.Compatible(e), consulting and populating the cache.
// Safe for concurrent use; a warm lookup performs no heap allocation.
func (c *CompatCache) Compatible(d, e D) bool {
	k := c.key(d, e)
	sh := &c.shards[shardOf(k)]
	sh.mu.RLock()
	v, ok := sh.m[k]
	sh.mu.RUnlock()
	if ok {
		c.stats.hits.Add(1)
		return v
	}
	c.stats.misses.Add(1)
	v = d.Compatible(e)
	sh.mu.Lock()
	if sh.m == nil || len(sh.m) >= c.shardCap {
		sh.m = make(map[pairKey]bool, c.shardCap/4)
	}
	sh.m[k] = v
	sh.mu.Unlock()
	return v
}

// Stats reports the hit/miss lookup counts seen through this cache view.
// RunScope views count independently of their parent, so a per-run view's
// stats describe exactly one problem's lookups.
func (c *CompatCache) Stats() (hits, misses int64) {
	return c.stats.hits.Load(), c.stats.misses.Load()
}

// Len reports the number of cached pairs, for tests and diagnostics.
func (c *CompatCache) Len() int {
	total := 0
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.RLock()
		total += len(sh.m)
		sh.mu.RUnlock()
	}
	return total
}
