package server

import (
	"container/list"
	"sync"

	"repro/internal/telemetry"
)

// lru is a fixed-capacity, concurrency-safe cache of rendered response
// bodies. Keys are store key pairs plus a representation variant, and the
// underlying runs are immutable, so entries never need invalidation — the
// only eviction is capacity pressure, oldest-use first. Hits and misses
// record into the counters it is built with (the registry's, in a Server).
type lru struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *lruEntry
	byKey map[string]*list.Element

	hits   *telemetry.Counter
	misses *telemetry.Counter
}

type lruEntry struct {
	key  string
	body []byte
}

func newLRU(capacity int, hits, misses *telemetry.Counter) *lru {
	if capacity < 1 {
		capacity = 1
	}
	return &lru{
		cap: capacity, order: list.New(), byKey: make(map[string]*list.Element),
		hits: hits, misses: misses,
	}
}

// get returns the cached body for key, marking it most recently used.
func (c *lru) get(key string) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		c.misses.Inc()
		return nil, false
	}
	c.order.MoveToFront(el)
	c.hits.Inc()
	return el.Value.(*lruEntry).body, true
}

// add inserts (or refreshes) a body, evicting the least recently used
// entry beyond capacity. Bodies are cached as-is; callers must not mutate
// them afterwards.
func (c *lru) add(key string, body []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		c.order.MoveToFront(el)
		el.Value.(*lruEntry).body = body
		return
	}
	c.byKey[key] = c.order.PushFront(&lruEntry{key: key, body: body})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*lruEntry).key)
	}
}

func (c *lru) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
