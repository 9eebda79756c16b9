package simdb

import (
	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// maxProfiles bounds the template→profile statistics cache.
const maxProfiles = 4096

// rememberProfileLocked records the execution profile observed for a
// query's template — the simulator's analogue of the statistics a real
// engine accumulates and consults when asked to EXPLAIN a statement.
// Resource demands are kept as high-water marks across instances of the
// template, matching how per-statement statistics views report peak
// memory/temp usage.
func (e *Engine) rememberProfileLocked(q workload.Query) {
	if e.profiles == nil {
		e.profiles = make(map[string]workload.Query, 256)
	}
	id := q.Template.ID
	if id == "" {
		// Hand-built queries (tests, ad-hoc probes) without a carried
		// template: derive it once here.
		id = sqlparse.TemplateOf(q.SQL).ID
	}
	old, ok := e.profiles[id]
	if !ok {
		if len(e.profiles) >= maxProfiles {
			// Evict an arbitrary entry; the map is a statistics cache,
			// not a source of truth.
			for k := range e.profiles {
				delete(e.profiles, k)
				break
			}
		}
		e.profiles[id] = q
		return
	}
	merged := q
	p, op := &merged.Profile, &old.Profile
	if op.MemDemand > p.MemDemand {
		p.MemDemand = op.MemDemand
	}
	if op.MaintMem > p.MaintMem {
		p.MaintMem = op.MaintMem
	}
	if op.TempBytes > p.TempBytes {
		p.TempBytes = op.TempBytes
	}
	if op.ReadBytes > p.ReadBytes {
		p.ReadBytes = op.ReadBytes
	}
	if op.WriteBytes > p.WriteBytes {
		p.WriteBytes = op.WriteBytes
	}
	e.profiles[id] = merged
}

// ExplainSQL plans a raw SQL string using the statistics remembered for
// its template. It reports ok=false when the template has never been
// executed (no statistics to plan from).
func (e *Engine) ExplainSQL(sql string) (Plan, bool) {
	id := sqlparse.TemplateOf(sql).ID
	e.mu.Lock()
	q, ok := e.profiles[id]
	if !ok {
		e.mu.Unlock()
		return Plan{}, false
	}
	p := e.planWith(e.flatLocked(), q)
	e.mu.Unlock()
	return p, true
}

// ExplainSQLWith is ExplainSQL under a config overlay.
func (e *Engine) ExplainSQLWith(override knobs.Config, sql string) (Plan, bool) {
	id := sqlparse.TemplateOf(sql).ID
	e.mu.Lock()
	q, ok := e.profiles[id]
	if !ok {
		e.mu.Unlock()
		return Plan{}, false
	}
	fk, _ := e.overlayLocked(override)
	p := e.planWith(&fk, q)
	e.mu.Unlock()
	return p, true
}

// HypotheticalRunSQLMs prices raw SQL statements under a config overlay,
// skipping statements without remembered statistics. It returns the
// total estimated execution time and how many statements were priced.
func (e *Engine) HypotheticalRunSQLMs(override knobs.Config, sqls []string) (float64, int) {
	e.mu.Lock()
	fk, cfg := e.overlayLocked(override)
	hit := e.hitRatioLocked(cfg)
	var total float64
	var n int
	for _, sql := range sqls {
		q, ok := e.profiles[sqlparse.TemplateOf(sql).ID]
		if !ok {
			continue
		}
		ms, _ := e.serviceTimeMs(&fk, q, hit, e.planWith(&fk, q))
		total += ms
		n++
	}
	e.mu.Unlock()
	return total, n
}
