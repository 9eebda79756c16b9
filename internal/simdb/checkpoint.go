package simdb

import (
	"encoding/binary"
	"fmt"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/prng"
	"autodbaas/internal/sqlparse"
)

// EngineState is the mutable state of one Engine — every field the
// simulation's determinism depends on. The flattened knob memo and the
// window scratch are deliberately absent: the memo is an exact copy of
// map reads, so a restored engine rebuilds it lazily with identical
// results. Construction parameters (catalogues, resources, DB size) are
// likewise absent: restore targets an engine rebuilt with the same
// Options.
type EngineState struct {
	Cfg            knobs.Config
	PendingRestart knobs.Config

	Counters map[string]float64

	Now              time.Time
	WorkingSet       float64
	DirtyBytes       float64
	WalSinceCkpt     float64
	LastCkpt         time.Time
	LastVacuum       time.Time
	CkptSurgeLeft    time.Duration
	CkptSurgeRate    float64
	DiskLatency      float64
	DiskWriteLatency float64
	IOPS             float64
	LastQPS          float64
	LastP99          float64
	ActiveConns      float64

	JitterUntil  time.Time
	JitterFactor float64
	Down         bool
	Restarts     int

	// The query log keeps each slot's template, not its text.
	// QueryLogSlots is the ring's slot count (0 on a replica) and
	// QueryLogNext and QueryLogFull its cursor. QueryLogTemplates lists
	// the distinct template IDs (the empty ID for unfilled slots),
	// QueryLogClasses holds one class byte per ID, and
	// QueryLogTemplateIdx packs one little-endian index into them per
	// slot: a uint16, or a uint32 when there are more than 65,536 IDs.
	QueryLogSlots       int
	QueryLogNext        int
	QueryLogFull        bool
	QueryLogTemplates   []string
	QueryLogClasses     []byte
	QueryLogTemplateIdx []byte

	// Profiles is the per-template statistics store behind
	// ExplainTemplate — the TDE's plan evaluation plans from it, so it is
	// state, not cache. A replica keeps none.
	Profiles map[string]TemplateProfile

	CfgEpoch uint64
	RNG      prng.State
}

// CheckpointState captures the engine's mutable state.
func (e *Engine) CheckpointState() EngineState {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := EngineState{
		Cfg:              e.cfg.Clone(),
		PendingRestart:   e.pendingRestart.Clone(),
		Counters:         make(map[string]float64, len(e.counters)),
		Now:              e.now,
		WorkingSet:       e.workingSet,
		DirtyBytes:       e.dirtyBytes,
		WalSinceCkpt:     e.walSinceCkpt,
		LastCkpt:         e.lastCkpt,
		LastVacuum:       e.lastVacuum,
		CkptSurgeLeft:    e.ckptSurgeLeft,
		CkptSurgeRate:    e.ckptSurgeRate,
		DiskLatency:      e.diskLatency,
		DiskWriteLatency: e.diskWriteLatency,
		IOPS:             e.iops,
		LastQPS:          e.lastQPS,
		LastP99:          e.lastP99,
		ActiveConns:      e.activeConns,
		JitterUntil:      e.jitterUntil,
		JitterFactor:     e.jitterFactor,
		Down:             e.down,
		Restarts:         e.restarts,
		QueryLogSlots:    len(e.queryLog.buf),
		QueryLogNext:     e.queryLog.next,
		QueryLogFull:     e.queryLog.full,
		CfgEpoch:         e.cfgEpoch,
		RNG:              e.rngSrc.State(),
	}
	for k, v := range e.counters {
		st.Counters[k] = v
	}
	st.QueryLogTemplates, st.QueryLogClasses, st.QueryLogTemplateIdx = encodeLog(e.queryLog.buf)
	if len(e.profiles) > 0 {
		st.Profiles = make(map[string]TemplateProfile, len(e.profiles))
		for k, i := range e.profiles {
			st.Profiles[k] = e.profileTab[i].TemplateProfile
		}
	}
	return st
}

// RestoreCheckpointState overwrites the engine's mutable state with st,
// or returns CheckState's error and leaves the engine untouched. The
// engine must have been constructed with the same Options as the
// checkpointed one; construction parameters are validated by the
// checkpoint manifest, not here. Hot-path caches are invalidated and
// rebuild lazily.
func (e *Engine) RestoreCheckpointState(st EngineState) error {
	if err := e.CheckState(st); err != nil {
		return err
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if r := e.queryLog; len(r.buf) > 0 {
		decodeLog(r.buf, st)
		r.next, r.full = st.QueryLogNext, st.QueryLogFull
	}
	e.cfg = st.Cfg.Clone()
	e.pendingRestart = st.PendingRestart.Clone()
	e.counters = make(map[string]float64, len(st.Counters))
	for k, v := range st.Counters {
		e.counters[k] = v
	}
	e.now = st.Now
	e.workingSet = st.WorkingSet
	e.dirtyBytes = st.DirtyBytes
	e.walSinceCkpt = st.WalSinceCkpt
	e.lastCkpt = st.LastCkpt
	e.lastVacuum = st.LastVacuum
	e.ckptSurgeLeft = st.CkptSurgeLeft
	e.ckptSurgeRate = st.CkptSurgeRate
	e.diskLatency = st.DiskLatency
	e.diskWriteLatency = st.DiskWriteLatency
	e.iops = st.IOPS
	e.lastQPS = st.LastQPS
	e.lastP99 = st.LastP99
	e.activeConns = st.ActiveConns
	e.jitterUntil = st.JitterUntil
	e.jitterFactor = st.JitterFactor
	e.down = st.Down
	e.restarts = st.Restarts
	e.profiles, e.profileTab, e.profileIDs = nil, nil, nil
	if len(st.Profiles) > 0 {
		e.profiles = make(map[string]int, len(st.Profiles))
		e.profileTab = make([]profileEntry, 0, len(st.Profiles))
		for k, v := range st.Profiles {
			e.profiles[k] = len(e.profileTab)
			e.profileTab = append(e.profileTab, profileEntry{TemplateProfile: v})
		}
	}
	e.cfgEpoch = st.CfgEpoch
	e.rngSrc.Restore(st.RNG)
	// Drop the memo tied to the pre-restore configuration.
	e.fkValid = false
	return nil
}

// CheckState returns why st cannot restore into this engine, or nil: a
// query log that does not describe this engine's ring, profiles on a
// replica, or a config naming a knob outside the engine's catalogue. It
// reads only construction parameters, so it takes no lock.
func (e *Engine) CheckState(st EngineState) error {
	n := len(e.queryLog.buf)
	if st.QueryLogSlots != n {
		return fmt.Errorf("simdb: restore: query log has %d slots, engine holds %d", st.QueryLogSlots, n)
	}
	if st.QueryLogNext < 0 || st.QueryLogNext >= max(n, 1) || n == 0 && st.QueryLogFull {
		return fmt.Errorf("simdb: restore: query log cursor %d outside its %d slots", st.QueryLogNext, n)
	}
	if e.replica && len(st.Profiles) > 0 {
		return fmt.Errorf("simdb: restore: a replica holds %d profiles, want none", len(st.Profiles))
	}
	for _, cfg := range []knobs.Config{st.Cfg, st.PendingRestart} {
		for k := range cfg {
			if e.kcat.Def(k) == nil {
				return fmt.Errorf("simdb: restore: config names %q, which the %s catalogue lacks", k, e.engineName)
			}
		}
	}
	ids, classes, idx := st.QueryLogTemplates, st.QueryLogClasses, st.QueryLogTemplateIdx
	if len(classes) != len(ids) {
		return fmt.Errorf("simdb: restore: query log class table has %d entries for %d template IDs", len(classes), len(ids))
	}
	for i, c := range classes {
		if int(c) >= sqlparse.NumClasses {
			return fmt.Errorf("simdb: restore: query log template %d has class %d, want below %d", i, c, sqlparse.NumClasses)
		}
	}
	if len(idx) != logIdxWidth(len(ids))*n {
		return fmt.Errorf("simdb: restore: query log template index has %d bytes for %d slots", len(idx), n)
	}
	for i := 0; i < n; i++ {
		if p := logIdxAt(idx, len(ids), i); p >= len(ids) {
			return fmt.Errorf("simdb: restore: query log slot %d names template %d of %d", i, p, len(ids))
		}
	}
	return nil
}

// encodeLog splits the ring's entries into the snapshot's distinct-ID
// table, class table and packed index (see EngineState).
func encodeLog(buf []LogEntry) (ids []string, classes, idx []byte) {
	pos := make(map[string]uint32, 256)
	idx = make([]byte, 2*len(buf))
	for i, le := range buf {
		p, ok := pos[le.TemplateID]
		if !ok {
			p = uint32(len(ids))
			pos[le.TemplateID] = p
			ids = append(ids, le.TemplateID)
			classes = append(classes, byte(le.Class))
		}
		binary.LittleEndian.PutUint16(idx[2*i:], uint16(p)) // rewritten below if p overflows
	}
	if logIdxWidth(len(ids)) == 4 {
		idx = make([]byte, 4*len(buf))
		for i, le := range buf {
			binary.LittleEndian.PutUint32(idx[4*i:], pos[le.TemplateID])
		}
	}
	return ids, classes, idx
}

// logIdxWidth is the bytes per slot of the packed index over a table of
// n template IDs.
func logIdxWidth(n int) int {
	if n > 1<<16 {
		return 4
	}
	return 2
}

// logIdxAt reads slot i of a packed index over a table of n IDs.
func logIdxAt(idx []byte, n, i int) int {
	if logIdxWidth(n) == 4 {
		return int(binary.LittleEndian.Uint32(idx[4*i:]))
	}
	return int(binary.LittleEndian.Uint16(idx[2*i:]))
}

// decodeLog overwrites buf with st's query-log entries, which
// CheckState has accepted.
func decodeLog(buf []LogEntry, st EngineState) {
	ids, classes := st.QueryLogTemplates, st.QueryLogClasses
	for i := range buf {
		p := logIdxAt(st.QueryLogTemplateIdx, len(ids), i)
		buf[i] = LogEntry{TemplateID: ids[p], Class: sqlparse.Class(classes[p])}
	}
}
