// Package metrics defines the runtime-metric surface the simulated
// database engines expose and the tuners consume. It mirrors the shape
// of PostgreSQL's pg_stat_* views and MySQL's SHOW GLOBAL STATUS: a flat
// catalogue of named numeric metrics, captured as snapshots from which
// deltas ("samples" in OtterTune terminology) are computed after a
// workload window.
//
// It also provides the two preprocessing steps the BO tuner applies to
// metric vectors: deciling/binning (for workload mapping) and pruning of
// low-variance / highly correlated metrics.
package metrics

import (
	"fmt"
	"math"
	"math/bits"
	"slices"

	"autodbaas/internal/linalg"
)

// Kind distinguishes counters (monotone, deltas meaningful) from gauges
// (point-in-time readings, deltas are differences of levels).
type Kind int

// Metric kinds.
const (
	Counter Kind = iota
	Gauge
)

// Def describes one metric.
type Def struct {
	Name        string
	Kind        Kind
	Description string
}

// Snapshot is a point-in-time reading of every metric.
type Snapshot map[string]float64

// Clone returns a deep copy.
func (s Snapshot) Clone() Snapshot {
	out := make(Snapshot, len(s))
	for k, v := range s {
		out[k] = v
	}
	return out
}

// Delta computes after − before per metric; metrics absent from either
// snapshot are treated as zero on the missing side.
func Delta(before, after Snapshot) Snapshot {
	out := make(Snapshot, len(after))
	for k, v := range after {
		out[k] = v - before[k]
	}
	for k, v := range before {
		if _, ok := after[k]; !ok {
			out[k] = -v
		}
	}
	return out
}

// Catalog is an ordered metric definition set.
type Catalog struct {
	defs  map[string]*Def
	index map[string]int // metric name → catalogue position
	order []string
}

// NewCatalog builds a catalogue preserving definition order. A Vector's
// presence mask has one bit per metric, so it holds at most 64.
func NewCatalog(defs []Def) *Catalog {
	if len(defs) > 64 {
		panic(fmt.Sprintf("metrics: catalogue has %d metrics, a Vector holds at most 64", len(defs)))
	}
	c := &Catalog{defs: make(map[string]*Def, len(defs)), index: make(map[string]int, len(defs))}
	for i := range defs {
		d := defs[i]
		c.defs[d.Name] = &d
		c.index[d.Name] = i
		c.order = append(c.order, d.Name)
	}
	return c
}

// Names returns metric names in catalogue order.
func (c *Catalog) Names() []string { return append([]string(nil), c.order...) }

// Def returns the definition for name, or nil.
func (c *Catalog) Def(name string) *Def { return c.defs[name] }

// Len returns the number of metrics.
func (c *Catalog) Len() int { return len(c.order) }

// Vector flattens a snapshot into catalogue order (missing → 0).
func (c *Catalog) Vector(s Snapshot) []float64 {
	out := make([]float64, len(c.order))
	c.VectorInto(out, s)
	return out
}

// VectorInto is Vector writing into dst (len Len()) without allocating.
func (c *Catalog) VectorInto(dst []float64, s Snapshot) {
	for i, n := range c.order {
		dst[i] = s[n]
	}
}

// Index returns name's catalogue position, and false if it is unknown.
func (c *Catalog) Index(name string) (int, bool) {
	i, ok := c.index[name]
	return i, ok
}

// Vector is a Snapshot in catalogue order, the form a stored training
// sample keeps. Bit i of Set is on when the catalogue's i-th metric is
// present; bit i of NZ is on when it is present and its value's bits
// are not zero. Vals packs the NZ values in catalogue order, so a +0
// costs no slot while −0, NaN and ±Inf keep theirs, bit for bit. A nil
// Vals stands for a nil Snapshot; any other Vals, even an empty one,
// for a map.
type Vector struct {
	Vals    []float64
	Set, NZ uint64
}

// NewVector packs dense, one value per catalogue slot, into a Vector
// whose present metrics are set's bits: it allocates only the slice of
// nonzero values (none when there is none, though Vals is not nil).
// dense must hold every slot set names.
func NewVector(dense []float64, set uint64) Vector {
	v := Vector{Set: set}
	for m := set; m != 0; m &= m - 1 {
		if i := bits.TrailingZeros64(m); math.Float64bits(dense[i]) != 0 {
			v.NZ |= 1 << i
		}
	}
	v.Vals = make([]float64, bits.OnesCount64(v.NZ))
	k := 0
	for m := v.NZ; m != 0; m &= m - 1 {
		v.Vals[k] = dense[bits.TrailingZeros64(m)]
		k++
	}
	return v
}

// Has reports whether the metric at catalogue position i is present.
func (v Vector) Has(i int) bool { return v.Set&(1<<i) != 0 }

// At returns the metric at catalogue position i: 0 when absent, as a
// Snapshot reads a missing name. Its slot in Vals is the count of NZ
// bits below bit i.
func (v Vector) At(i int) float64 {
	bit := uint64(1) << i
	if v.NZ&bit == 0 {
		return 0
	}
	return v.Vals[bits.OnesCount64(v.NZ&(bit-1))]
}

// Delta is the package-level Delta written straight into a Vector:
// after − before for each catalogue metric either snapshot holds, −before
// for one only before holds. Names outside the catalogue are skipped.
func (c *Catalog) Delta(before, after Snapshot) Vector {
	var dense [64]float64
	var set uint64
	for i, n := range c.order {
		a, inAfter := after[n]
		b, inBefore := before[n]
		switch {
		case inAfter:
			dense[i] = a - b
		case inBefore:
			dense[i] = -b
		default:
			continue
		}
		set |= 1 << i
	}
	return NewVector(dense[:], set)
}

// FromSnapshot returns s in catalogue order. A nil s gives the zero
// Vector; a metric the catalogue lacks fails, naming it.
func (c *Catalog) FromSnapshot(s Snapshot) (Vector, error) {
	if s == nil {
		return Vector{}, nil
	}
	var dense [64]float64
	var set uint64
	for n, x := range s {
		i, ok := c.index[n]
		if !ok {
			return Vector{}, fmt.Errorf("metrics: unknown metric %q", n)
		}
		dense[i] = x
		set |= 1 << i
	}
	return NewVector(dense[:], set), nil
}

// Snapshot returns v as a map: nil for the zero Vector.
func (c *Catalog) Snapshot(v Vector) Snapshot {
	if v.Vals == nil {
		return nil
	}
	s := make(Snapshot, len(c.order))
	for i, n := range c.order {
		if v.Has(i) {
			s[n] = v.At(i)
		}
	}
	return s
}

// PostgresCatalog returns the PostgreSQL-flavoured metric set exposed by
// the simulator (pg_stat_database / pg_stat_bgwriter style).
func PostgresCatalog() *Catalog {
	return NewCatalog([]Def{
		{Name: "xact_commit", Kind: Counter, Description: "committed transactions"},
		{Name: "xact_rollback", Kind: Counter, Description: "rolled-back transactions"},
		{Name: "tup_returned", Kind: Counter, Description: "tuples read by scans"},
		{Name: "tup_fetched", Kind: Counter, Description: "tuples fetched by index scans"},
		{Name: "tup_inserted", Kind: Counter, Description: "tuples inserted"},
		{Name: "tup_updated", Kind: Counter, Description: "tuples updated"},
		{Name: "tup_deleted", Kind: Counter, Description: "tuples deleted"},
		{Name: "blks_read", Kind: Counter, Description: "pages read from disk"},
		{Name: "blks_hit", Kind: Counter, Description: "pages found in the buffer pool"},
		{Name: "temp_files", Kind: Counter, Description: "temporary spill files created"},
		{Name: "temp_bytes", Kind: Counter, Description: "bytes written to spill files"},
		{Name: "checkpoints_timed", Kind: Counter, Description: "scheduled checkpoints"},
		{Name: "checkpoints_req", Kind: Counter, Description: "requested (WAL-full) checkpoints"},
		{Name: "checkpoint_write_bytes", Kind: Counter, Description: "bytes written by the checkpointer"},
		{Name: "buffers_checkpoint", Kind: Counter, Description: "pages written by checkpoints"},
		{Name: "buffers_clean", Kind: Counter, Description: "pages written by the background writer"},
		{Name: "buffers_backend", Kind: Counter, Description: "pages written directly by backends"},
		{Name: "maxwritten_clean", Kind: Counter, Description: "bgwriter rounds stopped at lru_maxpages"},
		{Name: "wal_bytes", Kind: Counter, Description: "WAL generated"},
		{Name: "vacuum_pages", Kind: Counter, Description: "pages processed by vacuum"},
		{Name: "deadlocks", Kind: Counter, Description: "deadlocks detected"},
		{Name: "parallel_workers_launched", Kind: Counter, Description: "parallel workers started"},
		{Name: "parallel_workers_denied", Kind: Counter, Description: "parallel workers unavailable at plan time"},
		{Name: "plan_disk_spills", Kind: Counter, Description: "plans whose execution spilled to disk"},
		{Name: "disk_read_bytes", Kind: Counter, Description: "bytes read from disk"},
		{Name: "disk_write_bytes", Kind: Counter, Description: "bytes written to disk (all writers)"},
		{Name: "active_connections", Kind: Gauge, Description: "connections executing"},
		{Name: "buffer_used_bytes", Kind: Gauge, Description: "buffer pool bytes in use"},
		{Name: "dirty_bytes", Kind: Gauge, Description: "dirty bytes awaiting writeback"},
		{Name: "working_set_bytes", Kind: Gauge, Description: "estimated working-set size (gauged)"},
		{Name: "disk_latency_ms", Kind: Gauge, Description: "current average device latency"},
		{Name: "disk_write_latency_ms", Kind: Gauge, Description: "current write-side disk latency"},
		{Name: "iops", Kind: Gauge, Description: "current device IO operations per second"},
		{Name: "throughput_qps", Kind: Gauge, Description: "queries completed per second"},
		{Name: "p99_latency_ms", Kind: Gauge, Description: "99th-percentile query latency"},
	})
}

// MySQLCatalog returns the MySQL-flavoured metric set (SHOW STATUS style).
// The simulator keeps the same underlying signals but surfaces them under
// engine-native names, so tuners see per-engine metric schemas as they
// would in production.
func MySQLCatalog() *Catalog {
	return NewCatalog([]Def{
		{Name: "com_commit", Kind: Counter, Description: "committed transactions"},
		{Name: "com_rollback", Kind: Counter, Description: "rolled-back transactions"},
		{Name: "innodb_rows_read", Kind: Counter, Description: "rows read"},
		{Name: "innodb_rows_inserted", Kind: Counter, Description: "rows inserted"},
		{Name: "innodb_rows_updated", Kind: Counter, Description: "rows updated"},
		{Name: "innodb_rows_deleted", Kind: Counter, Description: "rows deleted"},
		{Name: "innodb_buffer_pool_reads", Kind: Counter, Description: "pages read from disk"},
		{Name: "innodb_buffer_pool_read_requests", Kind: Counter, Description: "logical page reads"},
		{Name: "created_tmp_disk_tables", Kind: Counter, Description: "on-disk temporary tables"},
		{Name: "sort_merge_passes", Kind: Counter, Description: "sort spill merge passes"},
		{Name: "innodb_checkpoints", Kind: Counter, Description: "checkpoint cycles"},
		{Name: "innodb_checkpoint_write_bytes", Kind: Counter, Description: "bytes written by checkpoint flushing"},
		{Name: "innodb_buffer_pool_pages_flushed", Kind: Counter, Description: "pages flushed"},
		{Name: "innodb_bg_flush_pages", Kind: Counter, Description: "pages flushed by background threads"},
		{Name: "innodb_os_log_written", Kind: Counter, Description: "redo bytes written"},
		{Name: "innodb_purge_pages", Kind: Counter, Description: "pages processed by purge"},
		{Name: "innodb_deadlocks", Kind: Counter, Description: "deadlocks detected"},
		{Name: "threadpool_threads_started", Kind: Counter, Description: "worker threads started"},
		{Name: "threadpool_threads_denied", Kind: Counter, Description: "worker thread requests denied"},
		{Name: "select_full_join_disk", Kind: Counter, Description: "joins that spilled to disk"},
		{Name: "innodb_data_read", Kind: Counter, Description: "bytes read from disk"},
		{Name: "innodb_data_written", Kind: Counter, Description: "bytes written to disk"},
		{Name: "threads_running", Kind: Gauge, Description: "threads executing"},
		{Name: "innodb_buffer_pool_bytes_data", Kind: Gauge, Description: "buffer pool bytes in use"},
		{Name: "innodb_buffer_pool_bytes_dirty", Kind: Gauge, Description: "dirty bytes awaiting flush"},
		{Name: "working_set_bytes", Kind: Gauge, Description: "estimated working-set size (gauged)"},
		{Name: "disk_latency_ms", Kind: Gauge, Description: "current average device latency"},
		{Name: "disk_write_latency_ms", Kind: Gauge, Description: "current write-side disk latency"},
		{Name: "iops", Kind: Gauge, Description: "current device IO operations per second"},
		{Name: "throughput_qps", Kind: Gauge, Description: "queries completed per second"},
		{Name: "p99_latency_ms", Kind: Gauge, Description: "99th-percentile query latency"},
	})
}

// catalogs holds one shared catalogue per engine. A catalogue is never
// modified after NewCatalog, so every reader may share it.
var catalogs = map[string]*Catalog{"postgres": PostgresCatalog(), "mysql": MySQLCatalog()}

// CatalogFor returns the shared metric catalogue for an engine name
// ("postgres" or "mysql").
func CatalogFor(engine string) (*Catalog, error) {
	if c, ok := catalogs[engine]; ok {
		return c, nil
	}
	return nil, fmt.Errorf("metrics: unsupported engine %q", engine)
}

// Decile bins every component of vec into {0,…,9} according to the
// per-component min/max over the reference rows, OtterTune's
// preprocessing before workload mapping. Constant components map to 0.
func Decile(rows [][]float64) [][]float64 {
	if len(rows) == 0 {
		return nil
	}
	out := make([][]float64, len(rows))
	for i := range out {
		out[i] = make([]float64, len(rows[0]))
	}
	var scratch []float64
	DecileInto(out, rows, &scratch)
	return out
}

// DecileInto is Decile writing the bins into dst, whose rows match rows
// in number and length. dst may be rows itself: the ranges are taken
// before any row is written. The per-column ranges go to *scratch,
// grown as needed, so a caller that bins repeatedly with the same
// scratch allocates nothing once it has grown.
func DecileInto(dst, rows [][]float64, scratch *[]float64) {
	if len(rows) == 0 {
		return
	}
	p := len(rows[0])
	*scratch = slices.Grow((*scratch)[:0], 2*p)[:2*p]
	mins, maxs := (*scratch)[:p], (*scratch)[p:]
	copy(mins, rows[0])
	copy(maxs, rows[0])
	for _, r := range rows[1:] {
		for j, v := range r {
			if v < mins[j] {
				mins[j] = v
			}
			if v > maxs[j] {
				maxs[j] = v
			}
		}
	}
	for i, r := range rows {
		br := dst[i]
		for j, v := range r {
			var b float64
			if maxs[j] > mins[j] {
				b = math.Floor(10 * (v - mins[j]) / (maxs[j] - mins[j]))
				if b > 9 {
					b = 9
				}
			}
			br[j] = b
		}
	}
}

// Prune selects informative metric indices from sample rows: it drops
// components whose variance is below varEps and, among the survivors,
// keeps only the first of any group whose pairwise |Pearson| exceeds
// corrMax. Returned indices are sorted ascending. This approximates
// OtterTune's factor-analysis + k-means pruning with a deterministic,
// dependency-free procedure.
//
// Each column is centred and its sum of squares taken once, so a
// Pearson pair costs one dot product. The arithmetic is the same as
// linalg.Variance and linalg.Pearson, in the same order, so the result
// is bit-identical to calling them per column and per pair.
func Prune(rows [][]float64, varEps, corrMax float64) []int {
	var p Pruner
	return p.Prune(rows, varEps, corrMax)
}

// Pruner runs Prune on working memory it keeps between calls, so a
// caller that prunes repeatedly allocates nothing once the buffers have
// grown. The indices it returns are valid until its next Prune. The
// zero value is ready to use; a Pruner is not safe for concurrent use.
type Pruner struct {
	centred []float64 // column j at [j*n, (j+1)*n), minus its mean
	ss      []float64 // Σ(x − mean)² of column j
	kept    []int
}

// Prune is the package-level Prune on p's buffers.
func (p *Pruner) Prune(rows [][]float64, varEps, corrMax float64) []int {
	if len(rows) == 0 {
		return nil
	}
	n, cols := len(rows), len(rows[0])
	// The buffers grow to twice what they must hold: a caller adding a
	// row per call reallocates O(log n) times.
	if cap(p.centred) < n*cols {
		p.centred = make([]float64, n*cols, 2*n*cols)
	}
	if cap(p.ss) < cols {
		p.ss = make([]float64, cols)
	}
	centred, ss := p.centred[:n*cols], p.ss[:cols]
	for j := range ss {
		col := centred[j*n : (j+1)*n]
		for i, r := range rows {
			col[i] = r[j]
		}
		m := linalg.Mean(col)
		var s float64
		for i, v := range col {
			d := v - m
			col[i] = d
			s += d * d
		}
		ss[j] = s
	}
	kept := p.kept[:0]
	for j := range ss {
		var variance float64 // linalg.Variance: 0 below two rows
		if n >= 2 {
			variance = ss[j] / float64(n)
		}
		if variance <= varEps {
			continue
		}
		cj := centred[j*n : (j+1)*n]
		dup := false
		for _, k := range kept {
			if math.Abs(pearsonCentred(cj, centred[k*n:(k+1)*n], ss[j], ss[k])) >= corrMax {
				dup = true
				break
			}
		}
		if !dup {
			kept = append(kept, j)
		}
	}
	p.kept = kept
	return kept
}

// pearsonCentred is linalg.Pearson over columns already centred, with
// their sums of squares saa and sbb.
func pearsonCentred(a, b []float64, saa, sbb float64) float64 {
	var sab float64
	for i, da := range a {
		sab += da * b[i]
	}
	if saa == 0 || sbb == 0 {
		return 0
	}
	return sab / math.Sqrt(saa*sbb)
}

// Project keeps only the given indices of vec, in order.
func Project(vec []float64, idx []int) []float64 {
	out := make([]float64, len(idx))
	for i, j := range idx {
		out[i] = vec[j]
	}
	return out
}
