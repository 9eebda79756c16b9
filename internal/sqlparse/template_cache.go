package sqlparse

import (
	"hash/maphash"
	"sync"

	"autodbaas/internal/obs"
)

// The template cache memoises TemplateOf by raw SQL text. Its callers
// are the paths that still template raw text: generator construction
// (workload.litTpl, one canonical statement per call site, or per table
// or column of an identifier site), AdulteratedTPCC's DDL sites
// (workload.q; their literal-free text repeats, so it hits once warm),
// trace loading, Templatizer.Observe, the first sighting of a template
// in Templatizer.ObserveID, and restoring an engine snapshot whose
// query log lacks template IDs. The TDE tick and the generators' sample
// paths are not among them: statements carry their template from the
// call site, and the tick takes each statement's template ID from the
// engine's query log. Fresh text with random literals mostly misses —
// that is fine, the miss cost is one extra map probe.
//
// Determinism: values are a pure function of the key, so cache state
// (including evictions, which may differ run to run under parallel
// window phases) can never change what TemplateOf returns — only how
// fast it returns it. TestTemplateCacheTransparent pins this.
const (
	templateCacheShards   = 16
	templateCacheShardCap = 2048 // 32768 entries total
)

type tplShard struct {
	mu   sync.Mutex
	m    map[string]Template
	ring []string // FIFO eviction ring; holds exactly the map's keys
	next int
}

var (
	tplShards  [templateCacheShards]tplShard
	tplSeed    = maphash.MakeSeed()
	tplMetrics obs.CacheMetrics
)

func init() {
	for i := range tplShards {
		tplShards[i].m = make(map[string]Template, templateCacheShardCap)
		tplShards[i].ring = make([]string, 0, templateCacheShardCap)
	}
	tplMetrics = obs.Cache("sqlparse_template")
}

// ResetTemplateCache drops every cached template (counters are kept).
func ResetTemplateCache() {
	for i := range tplShards {
		s := &tplShards[i]
		s.mu.Lock()
		s.m = make(map[string]Template, templateCacheShardCap)
		s.ring = s.ring[:0]
		s.next = 0
		s.mu.Unlock()
	}
}

func tplShardOf(sql string) *tplShard {
	return &tplShards[maphash.String(tplSeed, sql)%templateCacheShards]
}

func templateCacheGet(sql string) (Template, bool) {
	s := tplShardOf(sql)
	s.mu.Lock()
	tpl, ok := s.m[sql]
	s.mu.Unlock()
	if ok {
		tplMetrics.Hits.Inc()
	} else {
		tplMetrics.Misses.Inc()
	}
	return tpl, ok
}

func templateCachePut(sql string, tpl Template) {
	s := tplShardOf(sql)
	s.mu.Lock()
	if _, ok := s.m[sql]; ok {
		s.mu.Unlock()
		return
	}
	if len(s.m) >= templateCacheShardCap {
		// FIFO ring: evict the oldest key and reuse its slot.
		old := s.ring[s.next]
		delete(s.m, old)
		s.ring[s.next] = sql
		s.next = (s.next + 1) % len(s.ring)
		s.m[sql] = tpl
		s.mu.Unlock()
		tplMetrics.Evictions.Inc()
		return
	}
	s.ring = append(s.ring, sql)
	s.m[sql] = tpl
	s.mu.Unlock()
}
