package simdb

import (
	"encoding/binary"
	"fmt"
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

	// The query log keeps each slot's template, not its text.
	// QueryLogSlots is the ring's slot count (0 on a replica) and
	// QueryLogNext and QueryLogFull its cursor. QueryLogTemplates lists
	// the distinct template IDs (the empty ID for unfilled slots),
	// QueryLogClasses holds one class byte per ID, and
	// QueryLogTemplateIdx packs one little-endian index into them per
	// slot: a uint16, or a uint32 when there are more than 65,536 IDs
	// (both byte slices are base64 in JSON).
	//
	// QueryLog is read only from snapshots written while the log kept
	// every slot's SQL text; they have no class table and no slot count
	// (the slot count is len(QueryLog)), and a restore templates each
	// filled slot's text once.
	QueryLog            []string `json:"query_log,omitempty"`
	QueryLogSlots       int      `json:"query_log_slots,omitempty"`
	QueryLogNext        int      `json:"query_log_next"`
	QueryLogFull        bool     `json:"query_log_full"`
	QueryLogTemplates   []string `json:"query_log_templates,omitempty"`
	QueryLogClasses     []byte   `json:"query_log_classes,omitempty"`
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
	r, n := e.queryLog, st.QueryLogSlots
	if st.QueryLogClasses == nil {
		n = len(st.QueryLog)
	}
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

// decodeLog overwrites buf with st's query-log entries, or returns an
// error and leaves buf untouched. A snapshot without a class table
// keeps its slots' SQL text, and each filled slot is templated once.
func decodeLog(buf []LogEntry, st EngineState) error {
	if st.QueryLogClasses == nil {
		for i, sql := range st.QueryLog {
			buf[i] = LogEntry{}
			if st.QueryLogFull || i < st.QueryLogNext {
				tpl := sqlparse.TemplateOf(sql)
				buf[i] = LogEntry{TemplateID: tpl.ID, Class: tpl.Class}
			}
		}
		return nil
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
	w := logIdxWidth(len(ids))
	if len(idx) != w*len(buf) {
		return fmt.Errorf("simdb: restore: query log template index has %d bytes for %d slots", len(idx), len(buf))
	}
	at := func(i int) int {
		if w == 4 {
			return int(binary.LittleEndian.Uint32(idx[4*i:]))
		}
		return int(binary.LittleEndian.Uint16(idx[2*i:]))
	}
	for i := range buf {
		if p := at(i); p >= len(ids) {
			return fmt.Errorf("simdb: restore: query log slot %d names template %d of %d", i, p, len(ids))
		}
	}
	for i := range buf {
		p := at(i)
		buf[i] = LogEntry{TemplateID: ids[p], Class: sqlparse.Class(classes[p])}
	}
	return nil
}
