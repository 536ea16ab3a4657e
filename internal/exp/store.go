package exp

import (
	"container/list"
	"sort"
	"sync"

	dragonfly "repro"
)

// Store is a Cache bounded to a byte budget with least-recently-used
// eviction — the shape a long-running daemon needs, where the result
// directory would otherwise grow without bound. It wraps a Cache (same
// on-disk layout, same content addresses, fully interchangeable with
// one-shot CLI use of the directory) and adds an in-memory recency index
// rebuilt from file modification times on open.
//
// All methods are safe for concurrent use. Eviction never removes the
// entry a Put just wrote, so a budget smaller than a single entry keeps
// exactly that entry rather than silently thrashing; the oversized
// entry is displaced by the next Put.
type Store struct {
	cache *Cache
	max   int64 // byte budget; 0 = unbounded

	mu        sync.Mutex
	index     map[string]*list.Element // key -> lru element
	lru       *list.List               // front = most recently used
	bytes     int64
	evictions int64
}

// lruEntry is the per-key payload of the recency list.
type lruEntry struct {
	key  string
	size int64
}

// OpenStore opens (creating if needed) a size-bounded result store on
// dir. maxBytes <= 0 means unbounded. Existing entries are indexed with
// file modification time as initial recency and trimmed to the budget
// immediately, so reopening a shrunken store converges at once.
func OpenStore(dir string, maxBytes int64) (*Store, error) {
	cache, err := OpenCache(dir)
	if err != nil {
		return nil, err
	}
	s := &Store{
		cache: cache,
		max:   maxBytes,
		index: make(map[string]*list.Element),
		lru:   list.New(),
	}
	entries, err := cache.Entries()
	if err != nil {
		return nil, err
	}
	sort.Slice(entries, func(i, j int) bool {
		return entries[i].ModTime.Before(entries[j].ModTime)
	})
	for _, e := range entries { // oldest first, so newest ends up at the front
		s.index[e.Key] = s.lru.PushFront(lruEntry{key: e.Key, size: e.Size})
		s.bytes += e.Size
	}
	s.mu.Lock()
	err = s.evictLocked("")
	s.mu.Unlock()
	if err != nil {
		return nil, err
	}
	return s, nil
}

// Key returns the content address of a configuration (see Cache.Key).
func (s *Store) Key(cfg dragonfly.Config) string { return s.cache.Key(cfg) }

// Get looks a key up, refreshing its recency on a hit.
func (s *Store) Get(key string) (dragonfly.Result, bool) {
	res, ok := s.cache.Get(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, indexed := s.index[key]; indexed {
		if ok {
			s.lru.MoveToFront(el)
		} else {
			// Indexed but unreadable (corrupt or externally deleted):
			// drop it from the budget so it cannot pin good entries out.
			s.dropLocked(el)
		}
	}
	return res, ok
}

// Put stores a result under key and evicts least-recently-used entries
// until the store fits its budget again. The entry just written is
// never evicted by its own Put.
func (s *Store) Put(key string, cfg dragonfly.Config, res dragonfly.Result) error {
	size, err := s.cache.put(key, cfg, res)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if el, ok := s.index[key]; ok { // overwrite: replace the old size
		s.bytes -= el.Value.(lruEntry).size
		s.lru.Remove(el)
	}
	s.index[key] = s.lru.PushFront(lruEntry{key: key, size: size})
	s.bytes += size
	return s.evictLocked(key)
}

// evictLocked removes LRU entries until the budget is met, sparing keep.
func (s *Store) evictLocked(keep string) error {
	if s.max <= 0 {
		return nil
	}
	for s.bytes > s.max {
		el := s.lru.Back()
		if el == nil || el.Value.(lruEntry).key == keep {
			return nil
		}
		if err := s.cache.Remove(el.Value.(lruEntry).key); err != nil {
			return err
		}
		s.dropLocked(el)
		s.evictions++
	}
	return nil
}

// dropLocked removes an element from the in-memory index only.
func (s *Store) dropLocked(el *list.Element) {
	e := el.Value.(lruEntry)
	s.bytes -= e.size
	s.lru.Remove(el)
	delete(s.index, e.key)
}

// StoreStats is a snapshot of the store's occupancy and traffic.
type StoreStats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Entries   int   `json:"entries"`
	Bytes     int64 `json:"bytes"`
	MaxBytes  int64 `json:"max_bytes"` // 0 = unbounded
	Evictions int64 `json:"evictions"`
}

// Stats reports hit/miss counters (since open) and current occupancy.
func (s *Store) Stats() StoreStats {
	hits, misses := s.cache.Stats()
	s.mu.Lock()
	defer s.mu.Unlock()
	return StoreStats{
		Hits:      hits,
		Misses:    misses,
		Entries:   s.lru.Len(),
		Bytes:     s.bytes,
		MaxBytes:  s.max,
		Evictions: s.evictions,
	}
}
