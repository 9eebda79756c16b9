package simdb

import (
	"fmt"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/prng"
	"autodbaas/internal/workload"
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

	QueryLog     []string `json:"query_log"`
	QueryLogNext int      `json:"query_log_next"`
	QueryLogFull bool     `json:"query_log_full"`

	// Profiles is the per-template statistics store behind ExplainSQL —
	// the TDE's plan evaluation plans from it, so it is state, not cache.
	Profiles map[string]workload.Query `json:"profiles,omitempty"`

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
		QueryLog:         append([]string(nil), e.queryLog.buf...),
		QueryLogNext:     e.queryLog.next,
		QueryLogFull:     e.queryLog.full,
		CfgEpoch:         e.cfgEpoch,
		RNG:              e.rngSrc.State(),
	}
	for k, v := range e.counters {
		st.Counters[k] = v
	}
	if len(e.profiles) > 0 {
		st.Profiles = make(map[string]workload.Query, len(e.profiles))
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
func (e *Engine) RestoreCheckpointState(st EngineState) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(st.QueryLog) != len(e.queryLog.buf) {
		return fmt.Errorf("simdb: restore: query log size %d, engine built with %d", len(st.QueryLog), len(e.queryLog.buf))
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
	copy(e.queryLog.buf, st.QueryLog)
	e.queryLog.next = st.QueryLogNext
	e.queryLog.full = st.QueryLogFull
	e.profiles = nil
	if len(st.Profiles) > 0 {
		e.profiles = make(map[string]workload.Query, len(st.Profiles))
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
