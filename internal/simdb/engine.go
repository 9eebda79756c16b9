// Package simdb implements a discrete-event performance simulator of a
// relational DBMS, standing in for the PostgreSQL 9.6 and MySQL 5.6
// instances the AutoDBaaS paper tunes. It is not a SQL engine: it prices
// queries from their resource profiles and reproduces the knob→behaviour
// couplings the paper's Throttling Detection Engine and tuners rely on:
//
//   - working-area knobs vs. spill-to-disk (EXPLAIN exposes disk use);
//   - buffer-pool size vs. working set vs. cache hit ratio;
//   - checkpoint / background-writer knobs vs. disk-latency spikes;
//   - planner-estimate knobs vs. plan choice (index/seq, parallel);
//   - reload vs. socket-activation vs. restart application semantics;
//   - per-process write attribution with an optional split-disk layout.
//
// All state transitions happen in RunWindow, which advances the engine
// by one observation window; experiment harnesses therefore simulate
// hours of database time in milliseconds.
package simdb

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/prng"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// PageSize is the simulated page size (8 KiB, PostgreSQL's default).
const PageSize = 8 * 1024.0

// Resources describes the VM/container hosting the engine.
type Resources struct {
	MemoryBytes float64
	VCPU        int
	DiskIOPS    float64 // device IOPS capability (data disk)
	DiskSSD     bool
	// SplitDisks moves WAL, statistics and log writers to a second
	// simulated device so the data disk's latency reflects only
	// checkpointer/bgwriter/vacuum traffic (paper §3.2's strategy).
	SplitDisks bool
}

// ApplyMethod selects how a configuration change reaches the process.
type ApplyMethod int

// Apply methods, ordered by increasing disruption.
const (
	// ApplyReload sends a SIGHUP-style reload: tunable knobs take effect
	// with minimal jitter (the paper's preferred method, Fig. 7).
	ApplyReload ApplyMethod = iota
	// ApplySocketActivation restarts behind a systemd-style socket:
	// requests queue during the swap, causing pronounced jitter.
	ApplySocketActivation
	// ApplyRestart is a full process restart: brief downtime, cold
	// caches, but restart-required knobs take effect.
	ApplyRestart
)

// String implements fmt.Stringer.
func (m ApplyMethod) String() string {
	switch m {
	case ApplyReload:
		return "reload"
	case ApplySocketActivation:
		return "socket-activation"
	case ApplyRestart:
		return "restart"
	default:
		return "unknown"
	}
}

// ErrCrashed is returned when a config application makes the process
// exceed its memory budget and the simulated process OOMs.
var ErrCrashed = errors.New("simdb: process crashed applying config")

// ErrDown is returned by RunWindow when the engine has crashed and has
// not been restarted.
var ErrDown = errors.New("simdb: engine is down")

// Engine is one simulated database process.
type Engine struct {
	mu sync.Mutex

	engineName string // "postgres" | "mysql"
	kcat       *knobs.Catalog
	mcat       *metrics.Catalog
	semMap     map[string]string // semantic counter → engine metric name

	res    Resources
	dbSize float64
	rng    *rand.Rand
	rngSrc *prng.Source // counting source behind rng, for checkpointing

	cfg            knobs.Config // active configuration
	pendingRestart knobs.Config // staged restart-required values

	// Counters keyed by semantic name; translated on Snapshot.
	counters map[string]float64

	// Rolling state.
	now              time.Time
	workingSet       float64 // EWMA working-set estimate (bytes)
	dirtyBytes       float64
	walSinceCkpt     float64
	lastCkpt         time.Time
	lastVacuum       time.Time
	ckptSurgeLeft    time.Duration // remaining duration of checkpoint IO surge
	ckptSurgeRate    float64       // extra write bytes/sec during the surge
	diskLatency      float64       // last window's data-disk latency (ms)
	diskWriteLatency float64       // write-side-only latency (ms)
	iops             float64       // last window's data-disk IOPS
	lastQPS          float64
	lastP99          float64
	activeConns      float64

	jitterUntil  time.Time // QoS degradation window after apply
	jitterFactor float64   // service-time multiplier while jittering
	down         bool
	restarts     int

	// replica marks a slave built by NewReplicaSet. Nothing reads a
	// replica's query log or profiles (the TDE, the canary and
	// ExplainTemplate all read the master), so it keeps neither.
	replica  bool
	queryLog *ringLog
	// profiles caches per-template execution statistics for
	// ExplainTemplate and HypotheticalRunTemplatesMs: it maps a template
	// ID to its entry's slot in profileTab, where a statement merges in
	// place. The table holds no pointers, and grows by append rather
	// than by one allocation per template.
	profiles   map[string]int
	profileTab []profileEntry
	// priceStamp numbers HypotheticalRunTemplatesMs calls (see
	// profileEntry); it is scratch, not state, and no snapshot holds it.
	priceStamp uint64
	// profileIDs holds the keys of profiles in ascending order once the
	// store has reached maxProfiles (nil before, and after a restore):
	// eviction takes its first entry.
	profileIDs []string

	// Flattened knob memo (see hotpath.go). cfgEpoch advances whenever
	// cfg changes; fk is the flattened knob view valid for fkEpoch.
	cfgEpoch uint64
	fk       flatKnobs
	fkEpoch  uint64
	fkValid  bool
	// Reused window scratch (guarded by mu).
	sampleBuf []workload.Query
	timesBuf  []float64

	// hooks, when set, inject deterministic faults at the apply/restart/
	// window seams (see SetFaultHooks).
	hooks *FaultHooks
}

// Options configures NewEngine.
type Options struct {
	Engine    knobs.Engine // knobs.Postgres or knobs.MySQL
	Resources Resources
	// DBSizeBytes is the loaded dataset size.
	DBSizeBytes float64
	// Seed makes the engine deterministic.
	Seed int64
	// Start is the initial simulated instant (zero: workload.SimEpoch).
	Start time.Time
	// Config overrides the catalogue defaults (validated).
	Config knobs.Config
	// QueryLogSize bounds the retained query log (default
	// DefaultQueryLogSize).
	QueryLogSize int
}

// DefaultQueryLogSize is the query log's capacity when
// Options.QueryLogSize is 0. It is sized to the log's readers: the TDE
// reads the newest tde.Config.LogBatch entries each tick and the safety
// canary the newest safety.Options.ExplainStatements, and neither may
// ask for more than this.
const DefaultQueryLogSize = 512

// NewEngine constructs a simulated engine.
func NewEngine(o Options) (*Engine, error) { return newEngine(o, false) }

// newEngine constructs an engine; a replica gets a zero-slot query log.
func newEngine(o Options, replica bool) (*Engine, error) {
	kcat, err := knobs.CatalogFor(o.Engine)
	if err != nil {
		return nil, err
	}
	mcat, err := metrics.CatalogFor(string(o.Engine))
	if err != nil {
		return nil, err
	}
	if o.Resources.MemoryBytes <= 0 || o.Resources.VCPU <= 0 || o.Resources.DiskIOPS <= 0 {
		return nil, fmt.Errorf("simdb: invalid resources %+v", o.Resources)
	}
	if o.DBSizeBytes <= 0 {
		return nil, errors.New("simdb: DB size must be positive")
	}
	start := o.Start
	if start.IsZero() {
		start = workload.SimEpoch
	}
	logSize := o.QueryLogSize
	switch {
	case replica:
		logSize = 0
	case logSize <= 0:
		logSize = DefaultQueryLogSize
	}
	cfg := kcat.DefaultConfig()
	for k, v := range o.Config {
		cfg[k] = v
	}
	if err := kcat.Validate(cfg); err != nil {
		return nil, err
	}
	rng, rngSrc := prng.New(o.Seed)
	e := &Engine{
		engineName: string(o.Engine),
		kcat:       kcat,
		mcat:       mcat,
		semMap:     semanticMap(o.Engine),
		res:        o.Resources,
		dbSize:     o.DBSizeBytes,
		rng:        rng,
		rngSrc:     rngSrc,
		cfg:        cfg,
		counters:   make(map[string]float64),
		now:        start,
		lastCkpt:   start,
		lastVacuum: start,
		replica:    replica,
		queryLog:   newRingLog(logSize),
		// A fresh engine has touched little data.
		workingSet: math.Min(o.DBSizeBytes, 64*1024*1024),
	}
	return e, nil
}

// EngineName returns "postgres" or "mysql".
func (e *Engine) EngineName() string { return e.engineName }

// KnobCatalog returns the engine's knob catalogue.
func (e *Engine) KnobCatalog() *knobs.Catalog { return e.kcat }

// Resources returns the hosting resources.
func (e *Engine) Resources() Resources { return e.res }

// DBSizeBytes returns the dataset size.
func (e *Engine) DBSizeBytes() float64 { return e.dbSize }

// Now returns the engine's simulated time.
func (e *Engine) Now() time.Time {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.now
}

// Config returns a copy of the active configuration.
func (e *Engine) Config() knobs.Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.cfg.Clone()
}

// ConfigVector returns the active configuration in catalogue order,
// without the map copy Config makes.
func (e *Engine) ConfigVector() knobs.Vector {
	e.mu.Lock()
	defer e.mu.Unlock()
	// cfg holds only catalogue knobs: every write to it is validated.
	v, err := e.kcat.FromConfig(e.cfg)
	if err != nil {
		panic(fmt.Sprintf("simdb: active config: %v", err))
	}
	return v
}

// Knob returns one knob of the active configuration without copying
// the rest, with map-index semantics: (0, false) for a knob the config
// does not hold.
func (e *Engine) Knob(name string) (float64, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	v, ok := e.cfg[name]
	return v, ok
}

// PendingRestartConfig returns staged restart-required knob values.
func (e *Engine) PendingRestartConfig() knobs.Config {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.pendingRestart.Clone()
}

// Down reports whether the process has crashed and awaits a restart.
func (e *Engine) Down() bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.down
}

// Restarts returns how many restarts the engine has performed.
func (e *Engine) Restarts() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.restarts
}

// memoryBudget derives the knob-validation budget from the resources.
func (e *Engine) memoryBudget() knobs.MemoryBudget {
	conns := e.activeConns
	if conns < 4 {
		conns = 4
	}
	return knobs.MemoryBudget{TotalBytes: e.res.MemoryBytes, WorkMemSessions: conns, Headroom: 0.1}
}

// ApplyConfig applies cfg with the given method.
//
// Reload/socket-activation apply only knobs changeable at runtime;
// restart-required knob values are staged and take effect at the next
// Restart. ApplyRestart applies everything immediately (with downtime
// and cold-cache effects). A configuration whose memory footprint
// exceeds the instance crashes the process (ErrCrashed) — this is the
// failure mode the DFA's slave-first application is designed to catch.
func (e *Engine) ApplyConfig(cfg knobs.Config, method ApplyMethod) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	// A full restart may resurrect a crashed process; the runtime apply
	// paths need a live process to signal.
	if e.down && method != ApplyRestart {
		return ErrDown
	}
	if e.hooks != nil && e.hooks.BeforeApply != nil {
		if err := e.hooks.BeforeApply(method); err != nil {
			return fmt.Errorf("simdb: apply (%s): %w", method, err)
		}
	}
	if err := e.kcat.Validate(cfg); err != nil {
		return err
	}
	next := e.cfg.Clone()
	staged := e.pendingRestart.Clone()
	if staged == nil {
		staged = knobs.Config{}
	}
	var restartTouched bool
	for k, v := range cfg {
		if e.kcat.Def(k).Restart {
			staged[k] = v
			restartTouched = true
			continue
		}
		next[k] = v
	}
	if method == ApplyRestart {
		for k, v := range staged {
			next[k] = v
		}
		staged = knobs.Config{}
	}
	// OOM check on the configuration that will actually run.
	if err := e.kcat.CheckMemoryBudget(next, e.memoryBudget()); err != nil {
		e.down = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	e.cfg = next
	e.pendingRestart = staged
	e.bumpEpochLocked()
	switch method {
	case ApplyReload:
		// Minimal jitter: a short window of slightly elevated latency.
		e.jitterUntil = e.now.Add(2 * time.Second)
		e.jitterFactor = 1.08
	case ApplySocketActivation:
		// Requests queue while the process swaps: heavy jitter.
		e.jitterUntil = e.now.Add(20 * time.Second)
		e.jitterFactor = 2.5
	case ApplyRestart:
		e.restartLocked()
	}
	_ = restartTouched
	return nil
}

// Restart restarts the process, applying staged restart-required knobs.
// It also clears a crashed state.
func (e *Engine) Restart() error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.hooks != nil && e.hooks.BeforeRestart != nil {
		if err := e.hooks.BeforeRestart(); err != nil {
			// A stuck restart: the process neither boots nor serves.
			e.down = true
			return fmt.Errorf("simdb: restart: %w", err)
		}
	}
	next := e.cfg.Clone()
	for k, v := range e.pendingRestart {
		next[k] = v
	}
	if err := e.kcat.CheckMemoryBudget(next, e.memoryBudget()); err != nil {
		// Refuse to boot into an OOM loop; stay down.
		e.down = true
		return fmt.Errorf("%w: %v", ErrCrashed, err)
	}
	e.cfg = next
	e.pendingRestart = knobs.Config{}
	e.bumpEpochLocked()
	e.down = false
	e.restartLocked()
	return nil
}

// recoverLocked is the supervisor-style restart behind injected
// crash-recovery: staged restart knobs apply and caches go cold, as in
// Restart. The node stays down only if the boot configuration would
// bust the memory budget (the OOM-loop refusal of Restart).
func (e *Engine) recoverLocked() {
	next := e.cfg.Clone()
	for k, v := range e.pendingRestart {
		next[k] = v
	}
	if err := e.kcat.CheckMemoryBudget(next, e.memoryBudget()); err != nil {
		e.down = true
		return
	}
	e.cfg = next
	e.pendingRestart = knobs.Config{}
	e.bumpEpochLocked()
	e.restartLocked()
}

func (e *Engine) restartLocked() {
	e.restarts++
	e.down = false
	// Downtime: model as a strong jitter window plus cold cache.
	e.jitterUntil = e.now.Add(45 * time.Second)
	e.jitterFactor = 3.0
	e.workingSet = math.Min(e.dbSize, 64*1024*1024)
	e.dirtyBytes = 0
	e.walSinceCkpt = 0
	e.lastCkpt = e.now
}

// LogEntry is one query-log line: the template ID and class of the
// executed statement, taken from the template the statement carried
// when the engine priced it. They always equal sqlparse.TemplateOf of
// the statement's text. The text itself is not logged: every reader of
// the log (the TDE's class histogram and reservoir, EXPLAIN, the
// canary) needs only the template.
type LogEntry struct {
	TemplateID string
	Class      sqlparse.Class
}

// QueryLog returns up to n most recent log entries, oldest first, in a
// new slice.
func (e *Engine) QueryLog(n int) []LogEntry { return e.QueryLogInto(nil, n) }

// QueryLogInto reads up to n most recent log entries, oldest first,
// into dst's backing array when it is large enough (a new one when it
// is not) and returns the filled slice. Entries of dst past the
// returned length are left as they were.
func (e *Engine) QueryLogInto(dst []LogEntry, n int) []LogEntry {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.queryLog.lastInto(dst, n)
}

// QueryLogCap returns the query-log capacity: Options.QueryLogSize or
// DefaultQueryLogSize, and 0 on a replica. A clone built with this
// capacity restores this engine's CheckpointState slot for slot.
func (e *Engine) QueryLogCap() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.queryLog.buf)
}

// CountersInto writes the engine's semantic counters (the
// engine-neutral names: spill_files, spill_bytes, ckpt_req, ckpt_bytes,
// bgwriter pages, ...) into dst, after deleting whatever dst held, and
// returns it; a nil dst gets a new map. The same quantities appear
// under engine-native names in Snapshot; this surface lets the control
// plane export them uniformly across PostgreSQL and MySQL instances.
func (e *Engine) CountersInto(dst map[string]float64) map[string]float64 {
	e.mu.Lock()
	defer e.mu.Unlock()
	if dst == nil {
		dst = make(map[string]float64, len(e.counters))
	} else {
		clear(dst)
	}
	for k, v := range e.counters {
		dst[k] = v
	}
	return dst
}

// Snapshot returns the current metric snapshot in the engine's native
// metric schema, in a new map.
func (e *Engine) Snapshot() metrics.Snapshot { return e.SnapshotInto(nil) }

// SnapshotInto writes the current metric snapshot into s, after
// deleting whatever s held, and returns it; a nil s gets a new map.
// The result equals Snapshot().
func (e *Engine) SnapshotInto(s metrics.Snapshot) metrics.Snapshot {
	e.mu.Lock()
	defer e.mu.Unlock()
	if s == nil {
		s = make(metrics.Snapshot, e.mcat.Len())
	} else {
		clear(s)
	}
	for sem, val := range e.counters {
		if name, ok := e.semMap[sem]; ok {
			s[name] += val
		}
	}
	// Gauges.
	set := func(sem string, v float64) {
		if name, ok := e.semMap[sem]; ok {
			s[name] = v
		}
	}
	set("g_active", e.activeConns)
	set("g_buffer_used", math.Min(e.bufferPoolLocked(), e.workingSet))
	set("g_dirty", e.dirtyBytes)
	set("g_working_set", e.workingSet)
	set("g_disk_latency", e.diskLatency)
	set("g_disk_wlat", e.diskWriteLatency)
	set("g_iops", e.iops)
	set("g_qps", e.lastQPS)
	set("g_p99", e.lastP99)
	return s
}

func (e *Engine) bufferPoolLocked() float64 {
	return e.cfg[e.kcat.BufferPoolKnob()]
}

// semanticMap wires semantic counter names to per-engine metric names.
func semanticMap(eng knobs.Engine) map[string]string {
	if eng == knobs.MySQL {
		return map[string]string{
			"commit":         "com_commit",
			"rollback":       "com_rollback",
			"tup_read":       "innodb_rows_read",
			"tup_insert":     "innodb_rows_inserted",
			"tup_update":     "innodb_rows_updated",
			"tup_delete":     "innodb_rows_deleted",
			"pages_read":     "innodb_buffer_pool_reads",
			"pages_logical":  "innodb_buffer_pool_read_requests",
			"spill_files":    "created_tmp_disk_tables",
			"spill_bytes":    "sort_merge_passes",
			"ckpt":           "innodb_checkpoints",
			"ckpt_bytes":     "innodb_checkpoint_write_bytes",
			"ckpt_pages":     "innodb_buffer_pool_pages_flushed",
			"bg_pages":       "innodb_bg_flush_pages",
			"wal_bytes":      "innodb_os_log_written",
			"vacuum_pages":   "innodb_purge_pages",
			"deadlocks":      "innodb_deadlocks",
			"par_launched":   "threadpool_threads_started",
			"par_denied":     "threadpool_threads_denied",
			"plan_spills":    "select_full_join_disk",
			"disk_read":      "innodb_data_read",
			"disk_write":     "innodb_data_written",
			"g_active":       "threads_running",
			"g_buffer_used":  "innodb_buffer_pool_bytes_data",
			"g_dirty":        "innodb_buffer_pool_bytes_dirty",
			"g_working_set":  "working_set_bytes",
			"g_disk_latency": "disk_latency_ms",
			"g_disk_wlat":    "disk_write_latency_ms",
			"g_iops":         "iops",
			"g_qps":          "throughput_qps",
			"g_p99":          "p99_latency_ms",
		}
	}
	return map[string]string{
		"commit":         "xact_commit",
		"rollback":       "xact_rollback",
		"tup_read":       "tup_returned",
		"tup_fetched":    "tup_fetched",
		"tup_insert":     "tup_inserted",
		"tup_update":     "tup_updated",
		"tup_delete":     "tup_deleted",
		"pages_read":     "blks_read",
		"pages_logical":  "blks_hit",
		"spill_files":    "temp_files",
		"spill_bytes":    "temp_bytes",
		"ckpt_timed":     "checkpoints_timed",
		"ckpt_req":       "checkpoints_req",
		"ckpt_bytes":     "checkpoint_write_bytes",
		"ckpt_pages":     "buffers_checkpoint",
		"bg_pages":       "buffers_clean",
		"backend_pages":  "buffers_backend",
		"bg_maxwritten":  "maxwritten_clean",
		"wal_bytes":      "wal_bytes",
		"vacuum_pages":   "vacuum_pages",
		"deadlocks":      "deadlocks",
		"par_launched":   "parallel_workers_launched",
		"par_denied":     "parallel_workers_denied",
		"plan_spills":    "plan_disk_spills",
		"disk_read":      "disk_read_bytes",
		"disk_write":     "disk_write_bytes",
		"g_active":       "active_connections",
		"g_buffer_used":  "buffer_used_bytes",
		"g_dirty":        "dirty_bytes",
		"g_working_set":  "working_set_bytes",
		"g_disk_latency": "disk_latency_ms",
		"g_disk_wlat":    "disk_write_latency_ms",
		"g_iops":         "iops",
		"g_qps":          "throughput_qps",
		"g_p99":          "p99_latency_ms",
	}
}

func (e *Engine) bump(sem string, v float64) { e.counters[sem] += v }

// ringLog is a bounded FIFO of log entries.
type ringLog struct {
	buf  []LogEntry
	next int
	full bool
}

func newRingLog(n int) *ringLog { return &ringLog{buf: make([]LogEntry, n)} }

func (r *ringLog) add(le LogEntry) {
	r.buf[r.next] = le
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// lastInto fills dst (reallocated only when its capacity is short)
// with the newest min(n, stored) entries, oldest first.
func (r *ringLog) lastInto(dst []LogEntry, n int) []LogEntry {
	size := r.next
	if r.full {
		size = len(r.buf)
	}
	n = max(0, min(n, size))
	if cap(dst) < n {
		dst = make([]LogEntry, n)
	}
	dst = dst[:n]
	start := r.next - n
	if start < 0 {
		start += len(r.buf)
	}
	k := copy(dst, r.buf[start:])
	copy(dst[k:], r.buf)
	return dst
}

// clampNonNeg keeps profile-driven magnitudes sane.
func clampNonNeg(v float64) float64 {
	if v < 0 || math.IsNaN(v) {
		return 0
	}
	return v
}
