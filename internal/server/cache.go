package server

import (
	"container/list"
	"context"
	"fmt"
	"sync"

	"github.com/quantilejoins/qjoin"
)

// PlanCache maps (dataset, generation, canonical query, ranking spec) to a
// compiled qjoin.Plan — a *qjoin.Prepared holding one engine or one per
// shard, per the dataset's shard option. One entry is one (plan, ranking) pair, so a plan served under four rankings
// fills four entries. The cache provides
//
//   - LRU eviction bounded by a capacity in entries,
//   - singleflight deduplication: concurrent requests for the same missing
//     key wait for one Prepare instead of compiling in parallel,
//   - plan sharing across rankings: a Prepared plan depends only on the
//     (query, database) pair, so an entry for the same query under a new
//     ranking reuses the sibling entry's plan without re-preparing,
//   - migration: a delta moves every entry of the touched dataset to the
//     next generation via Prepared.Update instead of invalidating it.
//
// The cache holds plans, not rankings: the plan keys what it memoizes per
// ranking (trim preparations, sketch summaries) by the ranking's value
// (qjoin.Ranking.Key), so a request's freshly parsed ranking finds it warm.
type PlanCache struct {
	mu       sync.Mutex
	cap      int
	ll       *list.List // front = most recently used; values are *entry
	byKey    map[string]*list.Element
	inflight map[string]*flight
	// byPlanKey indexes the in-flight compiles by plan key (dataset, gen,
	// query — no ranking): a cold request under a second ranking
	// attaches to the running compile instead of duplicating it.
	byPlanKey map[string]*flight
	run       *runner // where compiles run

	// Counters (guarded by mu; read via Stats).
	hits, misses, coalesced int64
	prepares, evictions     int64
	migrations, drops       int64
	refresh                 SketchRefreshStats
}

// entry is one cached (plan, ranking) pair.
type entry struct {
	key     string
	dataset string
	gen     uint64
	query   string
	rankStr string
	plan    qjoin.Plan
}

// flight is one in-progress Prepare that latecomers wait on.
type flight struct {
	done chan struct{}
	plan qjoin.Plan
	err  error
}

// NewPlanCache returns a cache bounded to capacity entries (minimum 1). Its
// compiles run on a runner of its own that keeps one goroutine waiting.
func NewPlanCache(capacity int) *PlanCache { return newPlanCache(capacity, newRunner(1)) }

// newPlanCache is NewPlanCache running its compiles on run (a Server's).
func newPlanCache(capacity int, run *runner) *PlanCache {
	if capacity < 1 {
		capacity = 1
	}
	return &PlanCache{
		cap:       capacity,
		ll:        list.New(),
		byKey:     make(map[string]*list.Element),
		inflight:  make(map[string]*flight),
		byPlanKey: make(map[string]*flight),
		run:       run,
	}
}

// key builds the cache key. The query and ranking strings are the canonical
// wire forms (FormatQuery / FormatRanking), so equivalent requests collide.
func key(dataset string, gen uint64, query, rank string) string {
	return fmt.Sprintf("%s\x00%d\x00%s\x00%s", dataset, gen, query, rank)
}

// planKey is the ranking-independent part of the cache key — the identity
// of the compiled qjoin.Plan itself.
func planKey(dataset string, gen uint64, query string) string {
	return fmt.Sprintf("%s\x00%d\x00%s", dataset, gen, query)
}

// Get returns the plan for the key, preparing it with prepare() on a miss.
// The int after rankStr is a worker count nothing reads: plans compile with
// the library's default Options. rank is the caller's parsed ranking (nil for
// count-only queries) and is handed back as it came. cached reports whether
// the plan was served without a compile in this call (a singleflight
// latecomer reports cached=false: it waited for the full compile).
//
// The compile runs detached — on the cache's runner (its Server's, or its own
// in a cache from NewPlanCache) — NOT under the caller's context:
// every caller — the one that triggered it and every coalesced latecomer —
// waits on it under its own ctx and gets ctx.Err() on expiry, while the
// flight itself always runs to completion and lands in the cache for the
// next request. hold (optional) is invoked synchronously on the
// compile path and its return value when the flight finishes, letting the
// HTTP layer charge the detached compile to the caller's admission slot.
func (c *PlanCache) Get(ctx context.Context, dataset string, gen uint64, query, rankStr string, _ int,
	rank *qjoin.Ranking, hold func() func(), prepare func() (qjoin.Plan, error)) (plan qjoin.Plan, outRank *qjoin.Ranking, cached bool, err error) {
	k := key(dataset, gen, query, rankStr)
	c.mu.Lock()
	if el, ok := c.byKey[k]; ok {
		c.ll.MoveToFront(el)
		// Copy under the lock: Migrate rewrites entry fields in place.
		p := el.Value.(*entry).plan
		c.hits++
		c.mu.Unlock()
		return p, rank, true, nil
	}
	pk := planKey(dataset, gen, query)
	if f, ok := c.inflight[k]; ok {
		// The exact key is compiling: wait and use its entry as-is.
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
			return f.plan, rank, false, f.err
		case <-ctx.Done():
			return nil, nil, false, ctx.Err()
		}
	}
	if f, ok := c.byPlanKey[pk]; ok {
		// The same plan is compiling for a different ranking: attach to
		// that flight and insert this ranking's entry when it lands.
		c.coalesced++
		c.mu.Unlock()
		select {
		case <-f.done:
		case <-ctx.Done():
			return nil, nil, false, ctx.Err()
		}
		if f.err != nil {
			return nil, nil, false, f.err
		}
		c.mu.Lock()
		if el, ok := c.byKey[k]; ok { // another waiter inserted it first
			p := el.Value.(*entry).plan
			c.mu.Unlock()
			return p, rank, false, nil
		}
		c.insertLocked(&entry{
			key: k, dataset: dataset, gen: gen, query: query,
			rankStr: rankStr, plan: f.plan,
		})
		c.mu.Unlock()
		return f.plan, rank, false, nil
	}
	// A sibling entry for the same (dataset, gen, query) under a
	// different ranking already compiled the plan we need: share it —
	// served from the cache with no compile, so it counts as a hit.
	for el := c.ll.Front(); el != nil; el = el.Next() {
		e := el.Value.(*entry)
		if e.dataset == dataset && e.gen == gen && e.query == query {
			c.insertLocked(&entry{
				key: k, dataset: dataset, gen: gen, query: query,
				rankStr: rankStr, plan: e.plan,
			})
			c.hits++
			p := e.plan
			c.mu.Unlock()
			return p, rank, true, nil
		}
	}
	f := &flight{done: make(chan struct{})}
	c.inflight[k] = f
	c.byPlanKey[pk] = f
	c.misses++
	c.prepares++
	var release func()
	if hold != nil {
		release = hold()
	}
	c.mu.Unlock()
	c.run.do(func() {
		if release != nil {
			defer release()
		}
		p, err := prepare()
		c.mu.Lock()
		delete(c.inflight, k)
		delete(c.byPlanKey, pk)
		if err == nil {
			c.insertLocked(&entry{
				key: k, dataset: dataset, gen: gen, query: query,
				rankStr: rankStr, plan: p,
			})
		}
		c.mu.Unlock()
		f.plan, f.err = p, err
		close(f.done)
	})
	select {
	case <-f.done:
		return f.plan, rank, false, f.err
	case <-ctx.Done():
		return nil, nil, false, ctx.Err()
	}
}

// insertLocked adds an entry at the LRU front and evicts beyond capacity.
func (c *PlanCache) insertLocked(e *entry) {
	if old, ok := c.byKey[e.key]; ok {
		// A racing Get filled the same key first; keep the newer entry.
		c.ll.Remove(old)
		delete(c.byKey, e.key)
	}
	c.byKey[e.key] = c.ll.PushFront(e)
	for c.ll.Len() > c.cap {
		back := c.ll.Back()
		c.removeLocked(back)
		c.evictions++
	}
}

func (c *PlanCache) removeLocked(el *list.Element) {
	e := el.Value.(*entry)
	c.ll.Remove(el)
	delete(c.byKey, e.key)
}

// Migrate moves every entry of the dataset at oldGen to newGen by applying
// the delta through Prepared.Update, preserving LRU order and plan sharing
// (entries that shared one plan still share the derived plan). Entries of
// the dataset at any other generation are stale strays — an in-flight
// prepare that lost a race with an earlier delta — and are dropped. It
// returns the number of migrated entries.
//
// Migrate runs inside the registry's writer critical section, before the
// new snapshot becomes visible: a query that observes newGen always finds
// the migrated plans. The Prepared.Update calls themselves run outside the
// cache lock — lookups for other datasets (and old-generation hits of this
// one, which are still the current generation until the snapshot swaps)
// keep flowing while the plans derive.
func (c *PlanCache) Migrate(dataset string, oldGen, newGen uint64, delta *qjoin.Delta) int {
	// Phase 1 (locked): collect the dataset's live entries, drop strays.
	c.mu.Lock()
	var els []*list.Element
	var plans []qjoin.Plan
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		e := el.Value.(*entry)
		if e.dataset == dataset {
			if e.gen == oldGen {
				els = append(els, el)
				plans = append(plans, e.plan)
			} else {
				c.removeLocked(el)
				c.drops++
			}
		}
		el = next
	}
	c.mu.Unlock()
	if len(els) == 0 {
		return 0
	}
	// Phase 2 (unlocked): derive each distinct plan once. Concurrent
	// readers of the old plans are safe (Update is copy-on-write), and
	// same-dataset writers are excluded by the registry's writer lock.
	updated := make(map[qjoin.Plan]qjoin.Plan, len(plans))
	var refresh SketchRefreshStats
	for _, p := range plans {
		if _, ok := updated[p]; ok {
			continue
		}
		up, err := p.Update(delta)
		if err != nil {
			// Cannot happen for a delta the registry already applied to the
			// raw database (the engine validates against the same multiset
			// state); drop defensively rather than serve a stale generation.
			up = nil
		}
		if up != nil {
			// Re-certify the carried sketch summaries off the request path,
			// so post-delta approximate queries stay O(entries) cache hits.
			// A warm failure is not fatal — the first approximate read
			// retries the refresh — but it is counted.
			if err := up.WarmSketches(); err != nil {
				refresh.Errors++
			}
			refresh.add(up.SketchRefreshes())
		}
		updated[p] = up
	}
	// Phase 3 (locked): re-key the collected entries. An entry evicted or
	// dropped (DELETE /datasets) while unlocked is left alone.
	c.mu.Lock()
	defer c.mu.Unlock()
	c.refresh.add(refresh.SketchRefreshStats)
	c.refresh.Errors += refresh.Errors
	n := 0
	for i, el := range els {
		e := el.Value.(*entry)
		if c.byKey[e.key] != el || e.plan != plans[i] || e.gen != oldGen {
			continue
		}
		up := updated[e.plan]
		if up == nil {
			c.removeLocked(el)
			c.drops++
			continue
		}
		delete(c.byKey, e.key)
		e.gen, e.plan = newGen, up
		e.key = key(e.dataset, e.gen, e.query, e.rankStr)
		c.byKey[e.key] = el
		c.migrations++
		n++
	}
	return n
}

// DropDataset removes every entry (and forgets nothing about in-flight
// prepares: their results are inserted stale and cleaned by the next
// Migrate or eviction). Used on bulk reload and dataset deletion. It
// returns the number of dropped entries.
func (c *PlanCache) DropDataset(dataset string) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	n := 0
	for el := c.ll.Front(); el != nil; {
		next := el.Next()
		if el.Value.(*entry).dataset == dataset {
			c.removeLocked(el)
			c.drops++
			n++
		}
		el = next
	}
	return n
}

// Len returns the number of cache entries: one per (plan, ranking) pair, so
// it can exceed the number of distinct compiled plans.
func (c *PlanCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// CacheStats is a point-in-time counter snapshot for /stats and /metrics.
type CacheStats struct {
	Size       int   `json:"size"`
	Capacity   int   `json:"capacity"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Coalesced  int64 `json:"coalesced"`
	Prepares   int64 `json:"prepares"`
	Evictions  int64 `json:"evictions"`
	Migrations int64 `json:"migrations"`
	Drops      int64 `json:"drops"`
	// SketchRefresh counts, per summary part, how migrations brought the
	// plans' sketch summaries up to date, and the warm-ups that failed.
	SketchRefresh SketchRefreshStats `json:"sketch_refresh"`
}

// SketchRefreshStats is qjoin.SketchRefreshStats summed over every migrated
// plan, plus the WarmSketches calls that returned an error.
type SketchRefreshStats struct {
	qjoin.SketchRefreshStats
	Errors int64 `json:"errors"`
}

func (s *SketchRefreshStats) add(plan qjoin.SketchRefreshStats) {
	s.Shifted += plan.Shifted
	s.Recertified += plan.Recertified
	s.Rebuilt += plan.Rebuilt
}

// Stats returns a snapshot of the cache counters.
func (c *PlanCache) Stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Size: c.ll.Len(), Capacity: c.cap,
		Hits: c.hits, Misses: c.misses, Coalesced: c.coalesced,
		Prepares: c.prepares, Evictions: c.evictions,
		Migrations: c.migrations, Drops: c.drops,
		SketchRefresh: c.refresh,
	}
}
