package simdb

import (
	"slices"

	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// maxProfiles bounds the template→profile statistics cache.
const maxProfiles = 4096

// TemplateProfile is what the engine remembers of a template's
// statements: the class and the peak resource demands that planning and
// pricing read. The statement text is not kept; nothing reads it.
type TemplateProfile struct {
	Class   sqlparse.Class
	Profile workload.Profile
}

// rememberProfileLocked records the execution profile observed for
// template id — the simulator's analogue of the statistics a real
// engine accumulates and consults when asked to EXPLAIN a statement.
// Resource demands are kept as high-water marks across instances of the
// template, matching how per-statement statistics views report peak
// memory/temp usage.
func (e *Engine) rememberProfileLocked(id string, cls sqlparse.Class, prof *workload.Profile) {
	if e.profiles == nil {
		e.profiles = make(map[string]TemplateProfile, 256)
	}
	merged := TemplateProfile{Class: cls, Profile: *prof}
	old, ok := e.profiles[id]
	if !ok {
		if len(e.profiles) >= maxProfiles {
			// Evict the smallest template ID. The map is a statistics
			// cache, not a source of truth, but the victim must be a
			// function of its contents alone so that snapshots and
			// ExplainTemplate results repeat from run to run.
			if e.profileIDs == nil {
				e.profileIDs = make([]string, 0, len(e.profiles))
				for k := range e.profiles {
					e.profileIDs = append(e.profileIDs, k)
				}
				slices.Sort(e.profileIDs)
			}
			ids := e.profileIDs
			delete(e.profiles, ids[0])
			i, _ := slices.BinarySearch(ids[1:], id)
			copy(ids, ids[1:i+1])
			ids[i] = id
		}
		e.profiles[id] = merged
		return
	}
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

// ExplainTemplate plans template id (a query-log entry's TemplateID)
// using the statistics remembered for it, and returns the class it
// remembers too. It reports ok=false when the template has never been
// executed (no statistics to plan from).
func (e *Engine) ExplainTemplate(id string) (Plan, sqlparse.Class, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	p, ok := e.profiles[id]
	if !ok {
		return Plan{}, 0, false
	}
	return e.planWith(e.flatLocked(), p.Class, &p.Profile), p.Class, true
}

// HypotheticalRunTemplatesMs prices the statements remembered for ids
// under a config overlay, skipping IDs without remembered statistics.
// It returns the total estimated execution time and how many
// statements were priced. Each remembered profile is priced where the
// lookup left it; nothing rebuilds a statement.
func (e *Engine) HypotheticalRunTemplatesMs(override knobs.Config, ids []string) (float64, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fk, hit := e.overlayLocked(override)
	var total float64
	var n int
	for _, id := range ids {
		p, ok := e.profiles[id]
		if !ok {
			continue
		}
		plan := e.planWith(&fk, p.Class, &p.Profile)
		ms, _ := e.serviceTimeMs(&fk, p.Class, &p.Profile, hit, &plan)
		total += ms
		n++
	}
	return total, n
}

// TemplateIDs returns the template ID of every entry of a query log, in
// order — the argument HypotheticalRunTemplatesMs takes.
func TemplateIDs(log []LogEntry) []string {
	ids := make([]string, len(log))
	for i, le := range log {
		ids[i] = le.TemplateID
	}
	return ids
}
