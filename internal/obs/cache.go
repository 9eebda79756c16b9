package obs

// CacheMetrics is the standard hit/miss/evict counter family every
// hot-path cache in the system exports (sqlparse template cache, the BO
// tuner's incremental GP refits). Keeping the
// family shape in one place guarantees the exposition is uniform:
//
//	autodbaas_cache_hits_total{cache="..."}
//	autodbaas_cache_misses_total{cache="..."}
//	autodbaas_cache_evictions_total{cache="..."}
type CacheMetrics struct {
	Hits      *Counter
	Misses    *Counter
	Evictions *Counter
}

// Cache returns the hit/miss/evict counters for the named cache,
// registered on the default registry.
func Cache(name string) CacheMetrics {
	return CacheFrom(Default(), name)
}

// CacheFrom returns the hit/miss/evict counters for the named cache on
// an explicit registry.
func CacheFrom(r *Registry, name string) CacheMetrics {
	l := L("cache", name)
	return CacheMetrics{
		Hits:      r.Counter("autodbaas_cache_hits_total", "Cache lookups served from the cache.", l),
		Misses:    r.Counter("autodbaas_cache_misses_total", "Cache lookups that had to recompute.", l),
		Evictions: r.Counter("autodbaas_cache_evictions_total", "Entries evicted to make room.", l),
	}
}
