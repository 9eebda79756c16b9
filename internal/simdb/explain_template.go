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

// profileEntry is a remembered TemplateProfile plus the price the
// newest HypotheticalRunTemplatesMs call gave it: ms is valid while
// stamp equals that call's e.priceStamp.
type profileEntry struct {
	TemplateProfile
	stamp uint64
	ms    float64
}

// rememberProfileLocked records the execution profile observed for
// template id — the simulator's analogue of the statistics a real
// engine accumulates and consults when asked to EXPLAIN a statement.
// Resource demands are kept as high-water marks across instances of the
// template, matching how per-statement statistics views report peak
// memory/temp usage. A known template costs one lookup and merges in
// place.
func (e *Engine) rememberProfileLocked(id string, cls sqlparse.Class, prof *workload.Profile) {
	if i, ok := e.profiles[id]; ok {
		old := &e.profileTab[i]
		old.Class = cls
		op := &old.Profile
		op.MemDemand = peak(op.MemDemand, prof.MemDemand)
		op.MaintMem = peak(op.MaintMem, prof.MaintMem)
		op.TempBytes = peak(op.TempBytes, prof.TempBytes)
		op.ReadBytes = peak(op.ReadBytes, prof.ReadBytes)
		op.WriteBytes = peak(op.WriteBytes, prof.WriteBytes)
		op.Parallelizable, op.IndexFriendly = prof.Parallelizable, prof.IndexFriendly
		return
	}
	if e.profiles == nil {
		e.profiles = make(map[string]int, 256)
	}
	entry := profileEntry{TemplateProfile: TemplateProfile{Class: cls, Profile: *prof}}
	if len(e.profiles) >= maxProfiles {
		// Evict the smallest template ID, and give its slot to id. The
		// map is a statistics cache, not a source of truth, but the
		// victim must be a function of its contents alone so that
		// snapshots and ExplainTemplate results repeat from run to run.
		if e.profileIDs == nil {
			e.profileIDs = make([]string, 0, len(e.profiles))
			for k := range e.profiles {
				e.profileIDs = append(e.profileIDs, k)
			}
			slices.Sort(e.profileIDs)
		}
		ids := e.profileIDs
		slot := e.profiles[ids[0]]
		delete(e.profiles, ids[0])
		i, _ := slices.BinarySearch(ids[1:], id)
		copy(ids, ids[1:i+1])
		ids[i] = id
		e.profiles[id] = slot
		e.profileTab[slot] = entry
		return
	}
	e.profiles[id] = len(e.profileTab)
	e.profileTab = append(e.profileTab, entry)
}

// peak is the high-water-mark merge: old if it exceeds obs, else obs.
// The builtin max differs from it on NaN and on ±0.
func peak(old, obs float64) float64 {
	if old > obs {
		return old
	}
	return obs
}

// ExplainTemplate plans template id (a query-log entry's TemplateID)
// using the statistics remembered for it, and returns the class it
// remembers too. It reports ok=false when the template has never been
// executed (no statistics to plan from).
func (e *Engine) ExplainTemplate(id string) (Plan, sqlparse.Class, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	i, ok := e.profiles[id]
	if !ok {
		return Plan{}, 0, false
	}
	p := &e.profileTab[i]
	var plan Plan
	e.planWith(e.flatLocked(), p.Class, &p.Profile, &plan)
	return plan, p.Class, true
}

// HypotheticalRunTemplatesMs prices the statements remembered for ids
// under a config overlay, skipping IDs without remembered statistics.
// It returns the total estimated execution time and how many
// statements were priced. Each remembered profile is priced where the
// lookup left it, and only once per call: the overlay, the hit ratio
// and the profiles are fixed while the lock is held, so a repeated ID
// costs what its first entry did, and the total still adds one term
// per entry in order.
func (e *Engine) HypotheticalRunTemplatesMs(override knobs.Config, ids []string) (float64, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	fk, hit := e.overlayLocked(override)
	overlap := e.ioOverlapFactor(&fk)
	e.priceStamp++
	var plan Plan
	var total float64
	var n int
	for _, id := range ids {
		i, ok := e.profiles[id]
		if !ok {
			continue
		}
		p := &e.profileTab[i]
		if p.stamp != e.priceStamp {
			e.planWith(&fk, p.Class, &p.Profile, &plan)
			p.ms, _ = e.serviceTimeMs(p.Class, &p.Profile, hit, overlap, &plan)
			p.stamp = e.priceStamp
		}
		total += p.ms
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
