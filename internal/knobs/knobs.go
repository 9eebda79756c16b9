// Package knobs defines the configuration-knob surface of the simulated
// database engines. Knobs carry the classification the AutoDBaaS paper's
// Throttling Detection Engine is built around:
//
//   - Memory knobs (buffer pool, working areas) — resource-capped, the
//     buffer-pool knob additionally requires a restart ("non-tunable");
//   - Background-writer knobs (checkpointing / dirty-page writeback);
//   - Async/Planner-estimate knobs (parallel workers, cost constants).
//
// Both a PostgreSQL-like and a MySQL-like catalogue are provided,
// matching the two engines evaluated in the paper (PostgreSQL 9.6 and
// MySQL 5.6).
package knobs

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// Class is the TDE knob classification.
type Class int

// Knob classes, in the order the paper introduces them.
const (
	Memory Class = iota
	BgWriter
	AsyncPlanner
)

// String implements fmt.Stringer.
func (c Class) String() string {
	switch c {
	case Memory:
		return "memory"
	case BgWriter:
		return "bgwriter"
	case AsyncPlanner:
		return "async/planner"
	default:
		return fmt.Sprintf("class(%d)", int(c))
	}
}

// Classes lists all knob classes.
func Classes() []Class { return []Class{Memory, BgWriter, AsyncPlanner} }

// Unit describes a knob's value domain.
type Unit int

// Knob units.
const (
	Bytes Unit = iota
	Milliseconds
	Count
	Ratio
)

// Def describes a single configuration knob.
type Def struct {
	Name        string
	Class       Class
	Unit        Unit
	Min         float64
	Max         float64
	Default     float64
	Restart     bool // true: "non-tunable" — applying requires a DB restart
	LogScale    bool // normalize on a log axis (byte-sized knobs)
	Description string
}

// Config maps knob name to value.
type Config map[string]float64

// Clone returns a deep copy of the config.
func (c Config) Clone() Config {
	out := make(Config, len(c))
	for k, v := range c {
		out[k] = v
	}
	return out
}

// Equal reports whether two configs hold identical values.
func (c Config) Equal(o Config) bool {
	if len(c) != len(o) {
		return false
	}
	for k, v := range c {
		ov, ok := o[k]
		if !ok || ov != v {
			return false
		}
	}
	return true
}

// Engine identifies a catalogue flavour.
type Engine string

// Supported engines.
const (
	Postgres Engine = "postgres"
	MySQL    Engine = "mysql"
)

// ErrUnknownKnob is wrapped by validation errors for unrecognized names.
var ErrUnknownKnob = errors.New("knobs: unknown knob")

// ErrOutOfBounds is wrapped by validation errors for out-of-range values.
var ErrOutOfBounds = errors.New("knobs: value out of bounds")

// ErrMemoryBudget is returned when the memory-knob sum rule A+B+C+D < X
// (section 4 of the paper) is violated.
var ErrMemoryBudget = errors.New("knobs: memory knobs exceed instance budget")

// Catalog is an ordered set of knob definitions for one engine.
type Catalog struct {
	Engine  Engine
	defs    map[string]*Def
	index   map[string]int // knob name → catalogue position
	byIndex []*Def         // defs in catalogue order
	order   []string
	tunable []string // the knobs of order without Restart, in order
}

// newCatalog builds a catalogue in definition order. A Vector's
// presence mask has one bit per knob, so a catalogue holds at most 64.
func newCatalog(engine Engine, defs []Def) *Catalog {
	if len(defs) > 64 {
		panic(fmt.Sprintf("knobs: %s catalogue has %d knobs, a Vector holds at most 64", engine, len(defs)))
	}
	c := &Catalog{Engine: engine, defs: make(map[string]*Def, len(defs)), index: make(map[string]int, len(defs))}
	for i := range defs {
		d := defs[i]
		c.defs[d.Name] = &d
		c.index[d.Name] = i
		c.byIndex = append(c.byIndex, &d)
		c.order = append(c.order, d.Name)
		if !d.Restart {
			c.tunable = append(c.tunable, d.Name)
		}
	}
	return c
}

const (
	kib = 1024.0
	mib = 1024 * kib
	gib = 1024 * mib
)

// PostgresCatalog returns the PostgreSQL-9.6-style knob catalogue.
func PostgresCatalog() *Catalog {
	return newCatalog(Postgres, []Def{
		// Memory knobs.
		{Name: "shared_buffers", Class: Memory, Unit: Bytes, Min: 16 * mib, Max: 48 * gib, Default: 128 * mib, Restart: true, LogScale: true,
			Description: "buffer pool holding hot table/index pages"},
		{Name: "work_mem", Class: Memory, Unit: Bytes, Min: 64 * kib, Max: 2 * gib, Default: 4 * mib, LogScale: true,
			Description: "per-operation memory for sorts, hashes and joins"},
		{Name: "maintenance_work_mem", Class: Memory, Unit: Bytes, Min: 1 * mib, Max: 8 * gib, Default: 64 * mib, LogScale: true,
			Description: "memory for index builds, VACUUM and ALTER TABLE"},
		{Name: "temp_buffers", Class: Memory, Unit: Bytes, Min: 800 * kib, Max: 4 * gib, Default: 8 * mib, LogScale: true,
			Description: "per-session buffers for temporary tables"},
		{Name: "wal_buffers", Class: Memory, Unit: Bytes, Min: 64 * kib, Max: 256 * mib, Default: 4 * mib, Restart: true, LogScale: true,
			Description: "shared memory for WAL not yet flushed"},
		// Background-writer knobs.
		{Name: "checkpoint_timeout", Class: BgWriter, Unit: Milliseconds, Min: 30_000, Max: 3_600_000, Default: 300_000,
			Description: "maximum time between automatic checkpoints"},
		{Name: "checkpoint_completion_target", Class: BgWriter, Unit: Ratio, Min: 0.1, Max: 0.9, Default: 0.5,
			Description: "fraction of the checkpoint interval to spread writes over"},
		{Name: "max_wal_size", Class: BgWriter, Unit: Bytes, Min: 32 * mib, Max: 64 * gib, Default: 1 * gib, LogScale: true,
			Description: "WAL volume triggering a requested checkpoint"},
		{Name: "bgwriter_delay", Class: BgWriter, Unit: Milliseconds, Min: 10, Max: 10_000, Default: 200,
			Description: "sleep between background-writer rounds"},
		{Name: "bgwriter_lru_maxpages", Class: BgWriter, Unit: Count, Min: 0, Max: 1000, Default: 100,
			Description: "max dirty pages written per background-writer round"},
		{Name: "wal_writer_delay", Class: BgWriter, Unit: Milliseconds, Min: 1, Max: 10_000, Default: 200,
			Description: "sleep between WAL-writer flush rounds"},
		// Async / planner-estimate knobs.
		{Name: "max_parallel_workers_per_gather", Class: AsyncPlanner, Unit: Count, Min: 0, Max: 64, Default: 0,
			Description: "parallel workers one Gather node may launch"},
		{Name: "max_worker_processes", Class: AsyncPlanner, Unit: Count, Min: 0, Max: 128, Default: 8, Restart: true,
			Description: "cluster-wide background worker pool"},
		{Name: "random_page_cost", Class: AsyncPlanner, Unit: Ratio, Min: 1.0, Max: 10.0, Default: 4.0,
			Description: "planner cost of a non-sequential page fetch"},
		{Name: "seq_page_cost", Class: AsyncPlanner, Unit: Ratio, Min: 0.1, Max: 4.0, Default: 1.0,
			Description: "planner cost of a sequential page fetch"},
		{Name: "effective_cache_size", Class: AsyncPlanner, Unit: Bytes, Min: 64 * mib, Max: 128 * gib, Default: 4 * gib, LogScale: true,
			Description: "planner's assumption of OS+DB cache available"},
		{Name: "effective_io_concurrency", Class: AsyncPlanner, Unit: Count, Min: 0, Max: 512, Default: 1,
			Description: "expected concurrently serviceable IO requests"},
		{Name: "cpu_tuple_cost", Class: AsyncPlanner, Unit: Ratio, Min: 0.001, Max: 1.0, Default: 0.01,
			Description: "planner cost of processing one tuple"},
	})
}

// MySQLCatalog returns the MySQL-5.6-style knob catalogue.
func MySQLCatalog() *Catalog {
	return newCatalog(MySQL, []Def{
		// Memory knobs.
		{Name: "innodb_buffer_pool_size", Class: Memory, Unit: Bytes, Min: 64 * mib, Max: 48 * gib, Default: 128 * mib, Restart: true, LogScale: true,
			Description: "InnoDB buffer pool holding hot pages"},
		{Name: "sort_buffer_size", Class: Memory, Unit: Bytes, Min: 32 * kib, Max: 2 * gib, Default: 256 * kib, LogScale: true,
			Description: "per-session sort area"},
		{Name: "join_buffer_size", Class: Memory, Unit: Bytes, Min: 128, Max: 1 * gib, Default: 256 * kib, LogScale: true,
			Description: "per-join block-nested-loop buffer"},
		{Name: "key_buffer_size", Class: Memory, Unit: Bytes, Min: 8, Max: 8 * gib, Default: 8 * mib, LogScale: true,
			Description: "MyISAM index cache (index builds)"},
		{Name: "tmp_table_size", Class: Memory, Unit: Bytes, Min: 1 * kib, Max: 8 * gib, Default: 16 * mib, LogScale: true,
			Description: "in-memory temporary-table ceiling"},
		// Background-writer knobs.
		{Name: "innodb_io_capacity", Class: BgWriter, Unit: Count, Min: 100, Max: 20_000, Default: 200,
			Description: "IOPS budget for background flushing"},
		{Name: "innodb_max_dirty_pages_pct", Class: BgWriter, Unit: Ratio, Min: 0, Max: 99, Default: 75,
			Description: "dirty-page percentage triggering aggressive flushing"},
		{Name: "innodb_log_file_size", Class: BgWriter, Unit: Bytes, Min: 4 * mib, Max: 16 * gib, Default: 48 * mib, Restart: true, LogScale: true,
			Description: "redo-log segment size (checkpoint spacing)"},
		{Name: "innodb_lru_scan_depth", Class: BgWriter, Unit: Count, Min: 100, Max: 10_000, Default: 1024,
			Description: "LRU pages scanned for flushing per second"},
		{Name: "innodb_flush_neighbors", Class: BgWriter, Unit: Count, Min: 0, Max: 2, Default: 1,
			Description: "flush contiguous dirty neighbours with each page"},
		// Async / planner-estimate knobs.
		{Name: "innodb_read_io_threads", Class: AsyncPlanner, Unit: Count, Min: 1, Max: 64, Default: 4, Restart: true,
			Description: "async read IO threads"},
		{Name: "innodb_write_io_threads", Class: AsyncPlanner, Unit: Count, Min: 1, Max: 64, Default: 4, Restart: true,
			Description: "async write IO threads"},
		{Name: "innodb_thread_concurrency", Class: AsyncPlanner, Unit: Count, Min: 0, Max: 1000, Default: 0,
			Description: "concurrent threads inside InnoDB (0 = unlimited)"},
		{Name: "eq_range_index_dive_limit", Class: AsyncPlanner, Unit: Count, Min: 0, Max: 10_000, Default: 10,
			Description: "equality ranges before the optimizer switches to statistics"},
		{Name: "optimizer_search_depth", Class: AsyncPlanner, Unit: Count, Min: 0, Max: 62, Default: 62,
			Description: "join-order search depth of the optimizer"},
	})
}

// catalogs holds one shared catalogue per engine. A catalogue is never
// modified after newCatalog, so every reader may share it.
var catalogs = map[Engine]*Catalog{Postgres: PostgresCatalog(), MySQL: MySQLCatalog()}

// CatalogFor returns the engine's shared catalogue, or an error.
func CatalogFor(e Engine) (*Catalog, error) {
	if c, ok := catalogs[e]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("knobs: unsupported engine %q", e)
}

// Def returns the definition for name, or nil if unknown.
func (c *Catalog) Def(name string) *Def { return c.defs[name] }

// Len returns the number of knobs.
func (c *Catalog) Len() int { return len(c.order) }

// Index returns name's catalogue position, and false if it is unknown.
func (c *Catalog) Index(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// AppendIndices appends the catalogue position of each of names to dst,
// −1 for a name the catalogue lacks, and returns the extended slice.
func (c *Catalog) AppendIndices(dst []int, names []string) []int {
	for _, n := range names {
		i, ok := c.index[n]
		if !ok {
			i = -1
		}
		dst = append(dst, i)
	}
	return dst
}

// Names returns knob names in catalogue order.
func (c *Catalog) Names() []string { return append([]string(nil), c.order...) }

// NamesByClass returns the knob names in cls, in catalogue order.
func (c *Catalog) NamesByClass(cls Class) []string {
	var out []string
	for _, n := range c.order {
		if c.defs[n].Class == cls {
			out = append(out, n)
		}
	}
	return out
}

// TunableNames returns knobs applicable without a restart, in
// catalogue order, in a new slice.
func (c *Catalog) TunableNames() []string { return append([]string(nil), c.tunable...) }

// Tunables is TunableNames without the copy: the catalogue's own list,
// which callers must not modify.
func (c *Catalog) Tunables() []string { return c.tunable }

// RestartNames returns "non-tunable" knobs (restart required to apply).
func (c *Catalog) RestartNames() []string {
	var out []string
	for _, n := range c.order {
		if c.defs[n].Restart {
			out = append(out, n)
		}
	}
	return out
}

// DefaultConfig returns every knob at its default value.
func (c *Catalog) DefaultConfig() Config {
	cfg := make(Config, len(c.order))
	for _, n := range c.order {
		cfg[n] = c.defs[n].Default
	}
	return cfg
}

// BufferPoolKnob returns the engine's primary (restart-required)
// buffer-pool knob name.
func (c *Catalog) BufferPoolKnob() string {
	if c.Engine == MySQL {
		return "innodb_buffer_pool_size"
	}
	return "shared_buffers"
}

// Validate checks that every entry names a known knob within bounds.
func (c *Catalog) Validate(cfg Config) error {
	names := make([]string, 0, len(cfg))
	for n := range cfg {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d := c.defs[n]
		if d == nil {
			return fmt.Errorf("%w: %q", ErrUnknownKnob, n)
		}
		v := cfg[n]
		if v < d.Min || v > d.Max || math.IsNaN(v) {
			return fmt.Errorf("%w: %s = %g not in [%g, %g]", ErrOutOfBounds, n, v, d.Min, d.Max)
		}
	}
	return nil
}

// Clamp returns a copy of cfg with every known knob clamped into bounds;
// unknown knobs are dropped.
func (c *Catalog) Clamp(cfg Config) Config {
	out := make(Config, len(cfg))
	for n, v := range cfg {
		d := c.defs[n]
		if d == nil {
			continue
		}
		if math.IsNaN(v) {
			v = d.Default
		}
		if v < d.Min {
			v = d.Min
		}
		if v > d.Max {
			v = d.Max
		}
		out[n] = v
	}
	return out
}

// MemoryBudget describes the instance-level memory constraint the paper
// writes as A+B+C+D < X: the buffer pool plus expected working areas
// must fit inside the memory granted to the DB process.
type MemoryBudget struct {
	TotalBytes float64 // X: memory allocated to the DB process
	// WorkMemSessions is the multiplier applied to per-session working
	// areas (expected concurrently active sessions using them).
	WorkMemSessions float64
	// Headroom is the fraction of TotalBytes reserved for everything
	// else (connections, executor stacks, OS). Default 0.1 when zero.
	Headroom float64
}

// MemoryFootprint returns the budgeted memory use of cfg under b.
func (c *Catalog) MemoryFootprint(cfg Config, b MemoryBudget) float64 {
	sessions := b.WorkMemSessions
	if sessions <= 0 {
		sessions = 1
	}
	get := func(n string) float64 {
		if v, ok := cfg[n]; ok {
			return v
		}
		if d := c.defs[n]; d != nil {
			return d.Default
		}
		return 0
	}
	if c.Engine == MySQL {
		return get("innodb_buffer_pool_size") +
			sessions*(get("sort_buffer_size")+get("join_buffer_size")) +
			get("key_buffer_size") + get("tmp_table_size")
	}
	return get("shared_buffers") +
		sessions*get("work_mem") +
		get("maintenance_work_mem") + get("temp_buffers") + get("wal_buffers")
}

// CheckMemoryBudget enforces A+B+C+D < X with the configured headroom.
func (c *Catalog) CheckMemoryBudget(cfg Config, b MemoryBudget) error {
	head := b.Headroom
	if head <= 0 {
		head = 0.1
	}
	limit := b.TotalBytes * (1 - head)
	if used := c.MemoryFootprint(cfg, b); used >= limit {
		return fmt.Errorf("%w: footprint %.0f ≥ limit %.0f (total %.0f, headroom %.0f%%)",
			ErrMemoryBudget, used, limit, b.TotalBytes, head*100)
	}
	return nil
}

// FitMemoryBudget scales working-area memory knobs down until cfg fits
// the budget, preserving the buffer-pool knob (which is only changed in
// maintenance windows). It returns a new config.
func (c *Catalog) FitMemoryBudget(cfg Config, b MemoryBudget) Config {
	out := c.Clamp(cfg)
	if c.CheckMemoryBudget(out, b) == nil {
		return out
	}
	shrinkable := []string{}
	for _, n := range c.NamesByClass(Memory) {
		if n != c.BufferPoolKnob() {
			shrinkable = append(shrinkable, n)
		}
	}
	for i := 0; i < 64; i++ {
		if c.CheckMemoryBudget(out, b) == nil {
			return out
		}
		for _, n := range shrinkable {
			d := c.defs[n]
			v, ok := out[n]
			if !ok {
				v = d.Default
			}
			nv := v * 0.8
			if nv < d.Min {
				nv = d.Min
			}
			out[n] = nv
		}
	}
	return out
}

// Normalize maps the listed knobs of cfg into [0,1]^d (log scale where
// the definition asks for it). Missing knobs use their defaults, and a
// name the catalogue lacks maps to 0.
func (c *Catalog) Normalize(cfg Config, names []string) []float64 {
	out := make([]float64, len(names))
	for i, n := range names {
		d := c.defs[n]
		if d == nil {
			continue
		}
		v, ok := cfg[n]
		if !ok {
			v = d.Default
		}
		out[i] = d.normalize(v)
	}
	return out
}

// Vector is a Config in catalogue order, the form a stored training
// sample keeps: Vals[i] is the value of the catalogue's i-th knob when
// bit i of Set is on, and 0 otherwise. A nil Vals stands for a nil
// Config; any other Vals has one slot per catalogue knob.
type Vector struct {
	Vals []float64
	Set  uint64
}

// Has reports whether the knob at catalogue position i is present.
func (v Vector) Has(i int) bool { return v.Set&(1<<i) != 0 }

// FromConfig returns cfg in catalogue order. A nil cfg gives the zero
// Vector; a knob the catalogue lacks fails, naming it.
func (c *Catalog) FromConfig(cfg Config) (Vector, error) {
	if cfg == nil {
		return Vector{}, nil
	}
	v := Vector{Vals: make([]float64, len(c.order))}
	for n, x := range cfg {
		i, ok := c.index[n]
		if !ok {
			return Vector{}, fmt.Errorf("%w: %q for %s", ErrUnknownKnob, n, c.Engine)
		}
		v.Vals[i] = x
		v.Set |= 1 << i
	}
	return v, nil
}

// Config returns v as a map: nil for the zero Vector.
func (c *Catalog) Config(v Vector) Config {
	if v.Vals == nil {
		return nil
	}
	cfg := make(Config, len(c.order))
	for i, n := range c.order {
		if v.Has(i) {
			cfg[n] = v.Vals[i]
		}
	}
	return cfg
}

// NormalizeVectorInto is Normalize of a Vector, written into dst
// (len(idx)) without allocating, for the catalogue positions of the
// names (AppendIndices): a gather, with no name lookup. An absent knob
// normalizes its default, and a −1 position writes 0, so a reused row
// keeps nothing from a previous call.
func (c *Catalog) NormalizeVectorInto(dst []float64, v Vector, idx []int) {
	for k, i := range idx {
		if i < 0 {
			dst[k] = 0
			continue
		}
		d := c.byIndex[i]
		x := d.Default
		if v.Has(i) {
			x = v.Vals[i]
		}
		dst[k] = d.normalize(x)
	}
}

// Denormalize maps a [0,1]^d vector back to knob values for names.
func (c *Catalog) Denormalize(vec []float64, names []string) Config {
	cfg := make(Config, len(names))
	for i, n := range names {
		d := c.defs[n]
		if d == nil || i >= len(vec) {
			continue
		}
		cfg[n] = d.denormalize(vec[i])
	}
	return cfg
}

func (d *Def) normalize(v float64) float64 {
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	if d.LogScale && d.Min > 0 {
		return (math.Log(v) - math.Log(d.Min)) / (math.Log(d.Max) - math.Log(d.Min))
	}
	if d.Max == d.Min {
		return 0
	}
	return (v - d.Min) / (d.Max - d.Min)
}

func (d *Def) denormalize(u float64) float64 {
	if u < 0 {
		u = 0
	}
	if u > 1 {
		u = 1
	}
	var v float64
	if d.LogScale && d.Min > 0 {
		v = math.Exp(math.Log(d.Min) + u*(math.Log(d.Max)-math.Log(d.Min)))
	} else {
		v = d.Min + u*(d.Max-d.Min)
		if d.Unit == Count || d.Unit == Milliseconds {
			v = math.Round(v)
		}
	}
	// exp/log and rounding can drift a ulp outside the bounds.
	if v < d.Min {
		v = d.Min
	}
	if v > d.Max {
		v = d.Max
	}
	return v
}
