package simdb

import (
	"encoding/binary"
	"fmt"
	"math"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/prng"
	"autodbaas/internal/sqlparse"
)

// EngineState is the serializable mutable state of one Engine — every
// field the simulation's determinism depends on. The flattened knob
// memo and the window scratch are deliberately absent: the memo is an
// exact copy of map reads, so a restored engine rebuilds it lazily with
// identical results. Construction parameters (catalogues,
// resources, DB size) are likewise absent: restore targets an engine
// rebuilt with the same Options.
type EngineState struct {
	Cfg            knobs.Config `json:"cfg"`
	PendingRestart knobs.Config `json:"pending_restart,omitempty"`

	Counters map[string]float64 `json:"counters"`

	Now              time.Time     `json:"now"`
	WorkingSet       float64       `json:"working_set"`
	DirtyBytes       float64       `json:"dirty_bytes"`
	WalSinceCkpt     float64       `json:"wal_since_ckpt"`
	LastCkpt         time.Time     `json:"last_ckpt"`
	LastVacuum       time.Time     `json:"last_vacuum"`
	CkptSurgeLeft    time.Duration `json:"ckpt_surge_left"`
	CkptSurgeRate    float64       `json:"ckpt_surge_rate"`
	DiskLatency      float64       `json:"disk_latency"`
	DiskWriteLatency float64       `json:"disk_write_latency"`
	IOPS             float64       `json:"iops"`
	LastQPS          float64       `json:"last_qps"`
	LastP99          float64       `json:"last_p99"`
	ActiveConns      float64       `json:"active_conns"`

	JitterUntil  time.Time `json:"jitter_until"`
	JitterFactor float64   `json:"jitter_factor"`
	Down         bool      `json:"down"`
	Restarts     int       `json:"restarts"`

	// QueryLog holds every query-log slot's SQL in ring order (unfilled
	// slots are empty); QueryLogNext and QueryLogFull are the ring's
	// cursor. A replica's ring has no slots.
	QueryLog     []string `json:"query_log"`
	QueryLogNext int      `json:"query_log_next"`
	QueryLogFull bool     `json:"query_log_full"`
	// QueryLogTemplates and QueryLogTemplateIdx carry each slot's
	// template ID so a restore need not re-template the log:
	// QueryLogTemplates lists the distinct IDs, and QueryLogTemplateIdx
	// packs one little-endian uint16 per slot indexing into it (base64
	// in JSON). Snapshots written before these fields existed lack them;
	// such a restore templates each filled slot once. Both are omitted
	// when the log has more distinct IDs than a uint16 can index.
	QueryLogTemplates   []string `json:"query_log_templates,omitempty"`
	QueryLogTemplateIdx []byte   `json:"query_log_template_idx,omitempty"`

	// Profiles is the per-template statistics store behind
	// ExplainTemplate — the TDE's plan evaluation plans from it, so it is
	// state, not cache. A replica keeps none. TemplateProfile's fields
	// keep workload.Query's JSON names, so snapshots whose profiles
	// held whole statements decode into it.
	Profiles map[string]TemplateProfile `json:"profiles,omitempty"`

	CfgEpoch uint64     `json:"cfg_epoch"`
	RNG      prng.State `json:"rng"`
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
		QueryLogNext:     e.queryLog.next,
		QueryLogFull:     e.queryLog.full,
		CfgEpoch:         e.cfgEpoch,
		RNG:              e.rngSrc.State(),
	}
	for k, v := range e.counters {
		st.Counters[k] = v
	}
	st.QueryLog, st.QueryLogTemplates, st.QueryLogTemplateIdx = encodeLog(e.queryLog.buf)
	if len(e.profiles) > 0 {
		st.Profiles = make(map[string]TemplateProfile, len(e.profiles))
		for k, v := range e.profiles {
			st.Profiles[k] = v
		}
	}
	return st
}

// RestoreCheckpointState overwrites the engine's mutable state with st.
// The engine must have been constructed with the same Options as the
// checkpointed one; construction parameters are validated by the
// checkpoint manifest, not here. Hot-path caches are invalidated and
// rebuild lazily.
//
// Snapshots written while engines kept 4,096-slot logs, and logs and
// profiles on replicas, still restore: a master keeps the newest
// entries its ring holds (see restoreLogLocked), and a replica drops
// the snapshot's log and profiles.
func (e *Engine) RestoreCheckpointState(st EngineState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.replica {
		if err := e.restoreLogLocked(st); err != nil {
			return err
		}
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
	e.profiles, e.profileIDs = nil, nil
	if len(st.Profiles) > 0 && !e.replica {
		e.profiles = make(map[string]TemplateProfile, len(st.Profiles))
		for k, v := range st.Profiles {
			e.profiles[k] = v
		}
	}
	e.cfgEpoch = st.CfgEpoch
	e.rngSrc.Restore(st.RNG)
	// Drop the memo tied to the pre-restore configuration.
	e.fkValid = false
	return nil
}

// restoreLogLocked overwrites the query log with st's, or returns an
// error and leaves it untouched. A snapshot ring with more slots than
// this engine's restores its newest len(ring) entries, oldest first; one
// with fewer slots, or a cursor outside its slots, is corrupt.
func (e *Engine) restoreLogLocked(st EngineState) error {
	r, n := e.queryLog, len(st.QueryLog)
	if n < len(r.buf) {
		return fmt.Errorf("simdb: restore: query log has %d slots, engine holds %d", n, len(r.buf))
	}
	if st.QueryLogNext < 0 || st.QueryLogNext >= n {
		return fmt.Errorf("simdb: restore: query log cursor %d outside its %d slots", st.QueryLogNext, n)
	}
	if n == len(r.buf) {
		if err := decodeLog(r.buf, st); err != nil {
			return err
		}
		r.next, r.full = st.QueryLogNext, st.QueryLogFull
		return nil
	}
	old := &ringLog{buf: make([]LogEntry, n), next: st.QueryLogNext, full: st.QueryLogFull}
	if err := decodeLog(old.buf, st); err != nil {
		return err
	}
	kept := old.lastInto(nil, len(r.buf))
	clear(r.buf)
	copy(r.buf, kept)
	r.next, r.full = len(kept)%len(r.buf), len(kept) == len(r.buf)
	return nil
}

// encodeLog splits the ring's entries into the snapshot's per-slot SQL,
// distinct-ID table and packed index (see EngineState).
func encodeLog(buf []LogEntry) (sqls, ids []string, idx []byte) {
	sqls = make([]string, len(buf))
	for i, le := range buf {
		sqls[i] = le.SQL
	}
	idx = make([]byte, 2*len(buf))
	pos := make(map[string]int, 256)
	for i, le := range buf {
		p, ok := pos[le.TemplateID]
		if !ok {
			if len(ids) > math.MaxUint16 {
				return sqls, nil, nil
			}
			p = len(ids)
			pos[le.TemplateID] = p
			ids = append(ids, le.TemplateID)
		}
		binary.LittleEndian.PutUint16(idx[2*i:], uint16(p))
	}
	return sqls, ids, idx
}

// decodeLog overwrites buf with st's query-log entries, or returns an
// error and leaves buf untouched. A snapshot without the template
// fields has each filled slot templated once.
func decodeLog(buf []LogEntry, st EngineState) error {
	idx := st.QueryLogTemplateIdx
	if idx != nil {
		if len(idx) != 2*len(st.QueryLog) {
			return fmt.Errorf("simdb: restore: query log template index has %d bytes for %d slots", len(idx), len(st.QueryLog))
		}
		for i := 0; i < len(idx); i += 2 {
			if p := int(binary.LittleEndian.Uint16(idx[i:])); p >= len(st.QueryLogTemplates) {
				return fmt.Errorf("simdb: restore: query log slot %d names template %d of %d", i/2, p, len(st.QueryLogTemplates))
			}
		}
	}
	for i, sql := range st.QueryLog {
		buf[i] = LogEntry{SQL: sql}
		switch {
		case idx != nil:
			buf[i].TemplateID = st.QueryLogTemplates[binary.LittleEndian.Uint16(idx[2*i:])]
		case st.QueryLogFull || i < st.QueryLogNext:
			buf[i].TemplateID = sqlparse.TemplateOf(sql).ID
		}
	}
	return nil
}
