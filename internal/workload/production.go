package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"
)

// Production substitutes for the paper's 33-day live customer trace:
// 132 tables, 59 GB, an average of 42.13M queries/day composed of 41M
// inserts, 71K selects, 34K updates and 0.8K deletes (an ingest-heavy
// telemetry shape), with the diurnal arrival curve of Figure 8 — a
// pronounced morning surge between 8 AM and 11 AM when "most of the
// microservice usages surge", plus a smaller afternoon shoulder.
//
// The paper's per-class counts do not quite sum to the daily total; the
// remainder is modelled as light dashboard reads (simple selects plus a
// small share of aggregation/join queries that appear during the morning
// reporting window), which is also what gives the TDE's async/planner
// and memory detectors something to observe on this workload.
type Production struct {
	mix *mixSampler
	// The events_<i> call sites, each with one template per table.
	insert, lookup, dashboard, join, purge identSite
}

// ProductionTables is the table count of the traced customer schema.
const ProductionTables = 132

// ProductionDBSize is the traced database size (59 GB).
const ProductionDBSize = 59 * GiB

// NewProduction returns the production-trace generator.
func NewProduction() *Production {
	p := &Production{}
	row := 700.0
	table := func(rng *rand.Rand) int { return rng.Intn(ProductionTables) }
	// The events_%d sites interpolate table names: one template per
	// table — the point of the 132-table schema — derived on first draw.
	p.insert = newIdentSite("INSERT INTO events_%d (device_id, ts, payload) VALUES (%d, %d, '%x')", ProductionTables)
	p.lookup = newIdentSite("SELECT payload FROM events_%d WHERE device_id = %d AND ts > %d", ProductionTables)
	p.dashboard = newIdentSite("SELECT device_id, COUNT(*), MAX(ts) FROM events_%d WHERE ts > %d GROUP BY device_id ORDER BY 2 DESC", ProductionTables)
	p.join = newIdentSite("SELECT a.device_id FROM events_%d a JOIN devices d ON a.device_id = d.id WHERE d.region = 'R%d'", ProductionTables)
	p.purge = newIdentSite("DELETE FROM events_%d WHERE ts < %d", ProductionTables)
	devUpdateSQL := compileSQL("UPDATE devices SET last_seen = %d WHERE id = %d")
	devUpdateTpl := litTpl(devUpdateSQL, 0, 0)
	p.mix = newMixSampler([]choice{
		// Telemetry ingest: the overwhelming majority (41M/day).
		{41_000_000, func(rng *rand.Rand) Query {
			t := table(rng)
			return qt(p.insert.tpl(int64(t)), p.insert.sql.with(int64(t), intn(rng, 500_000), rng.Int63n(2e9), rng.Int63()),
				Profile{WriteBytes: jitter(rng, row), IndexFriendly: true})
		}},
		// Point lookups (71K/day stated + unaccounted remainder ≈ 1M/day).
		{1_000_000, func(rng *rand.Rand) Query {
			t := table(rng)
			return qt(p.lookup.tpl(int64(t)), p.lookup.sql.with(int64(t), intn(rng, 500_000), rng.Int63n(2e9)),
				Profile{ReadBytes: jitter(rng, 20*row), IndexFriendly: true})
		}},
		// Dashboard aggregations (reporting, mornings in practice).
		{80_000, func(rng *rand.Rand) Query {
			t := table(rng)
			return qt(p.dashboard.tpl(int64(t)), p.dashboard.sql.with(int64(t), rng.Int63n(2e9)),
				Profile{MemDemand: jitter(rng, 48*MiB), ReadBytes: jitter(rng, 200*MiB), Parallelizable: true})
		}},
		// Cross-table correlation joins.
		{30_000, func(rng *rand.Rand) Query {
			t := table(rng)
			return qt(p.join.tpl(int64(t)), p.join.sql.with(int64(t), intn(rng, 20)),
				Profile{MemDemand: jitter(rng, 24*MiB), ReadBytes: jitter(rng, 80*MiB), Parallelizable: true})
		}},
		// Updates (34K/day).
		{34_000, func(rng *rand.Rand) Query {
			return qt(devUpdateTpl, devUpdateSQL.with(rng.Int63n(2e9), intn(rng, 500_000)),
				Profile{ReadBytes: jitter(rng, 2*row), WriteBytes: jitter(rng, row), IndexFriendly: true})
		}},
		// Deletes (0.8K/day, retention cleanup).
		{800, func(rng *rand.Rand) Query {
			t := table(rng)
			return qt(p.purge.tpl(int64(t)), p.purge.sql.with(int64(t), rng.Int63n(1e9)),
				Profile{MaintMem: jitter(rng, 16*MiB), ReadBytes: jitter(rng, 10*MiB), WriteBytes: jitter(rng, 5*MiB)})
		}},
	})
	return p
}

// Name implements Generator.
func (p *Production) Name() string { return "production" }

// DBSizeBytes implements Generator.
func (p *Production) DBSizeBytes() float64 { return ProductionDBSize }

// RequestRate implements Generator. The curve integrates to
// approximately the traced 42.13M daily queries: a base load, a
// sharp 8–11 AM surge peaking around 9:30, an afternoon shoulder and a
// low-amplitude ripple from batch jobs.
func (p *Production) RequestRate(at time.Time) float64 {
	h := float64(at.Hour()) + float64(at.Minute())/60 + float64(at.Second())/3600
	base := 300.0
	morning := 900 * math.Exp(-sq((h-9.5)/1.4))
	afternoon := 500 * math.Exp(-sq((h-15.0)/2.5))
	ripple := 30 * math.Sin(h*2*math.Pi/1.5)
	r := base + morning + afternoon + ripple
	if r < 0 {
		return 0
	}
	return r
}

func sq(x float64) float64 { return x * x }

// Sample implements Generator.
func (p *Production) Sample(rng *rand.Rand) Query { return p.mix.sample(rng) }

// AdulteratedTPCC is the paper's probe workload (§3.1, Figs. 3–4): plain
// TPCC whose per-query work_mem footprint (~0.5 MB) is too small to
// throttle any memory knob, "adulterated" with the query families that
// pressure each knob class — complex sorts/aggregations (work_mem /
// sort_buffer_size / join_buffer_size), CREATE/DROP INDEX
// (maintenance_work_mem / key_buffer_size), DELETEs
// (maintenance_work_mem), and temp-table aggregations (temp_buffers /
// tmp_table_size).
type AdulteratedTPCC struct {
	base *TPCC
	// P is the adulteration probability: each sampled query is replaced
	// by an adulterant with probability P (the paper plots P=0.8 and 0.5).
	P          float64
	adulterant *mixSampler
	// The DDL sites, each naming one of adulterantIdents indexes or
	// temp tables: one template per identifier.
	createIdx, dropIdx, scratch identSite
}

// adulterantIdents is how many indexes and temp tables the DDL
// adulterants name.
const adulterantIdents = 1000

// NewAdulteratedTPCC wraps a TPCC of the given size/rate with
// adulteration probability p ∈ [0,1].
func NewAdulteratedTPCC(size, rate, p float64) *AdulteratedTPCC {
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	a := &AdulteratedTPCC{
		base:      NewTPCC(size, rate),
		P:         p,
		createIdx: newIdentSite("CREATE INDEX idx_adult_%d ON order_line (ol_i_id, ol_w_id)", adulterantIdents),
		dropIdx:   newIdentSite("DROP INDEX idx_adult_%d", adulterantIdents),
		scratch:   newIdentSite("CREATE TEMP TABLE scratch_%d AS SELECT ol_i_id, SUM(ol_amount) s FROM order_line GROUP BY ol_i_id", adulterantIdents),
	}
	var (
		aggSQL     = compileSQL("SELECT ol_i_id, SUM(ol_amount), COUNT(*) FROM order_line JOIN stock ON ol_i_id = s_i_id GROUP BY ol_i_id ORDER BY SUM(ol_amount) DESC LIMIT %d")
		sortSQL    = compileSQL("SELECT c_id, c_balance FROM customer WHERE c_w_id < %d ORDER BY c_balance DESC")
		cleanupSQL = compileSQL("DELETE FROM history WHERE h_date < %d")
	)
	var (
		aggTpl     = litTpl(aggSQL, 50)
		sortTpl    = litTpl(sortSQL, 20)
		cleanupTpl = litTpl(cleanupSQL, 0)
	)
	a.adulterant = newMixSampler([]choice{
		// Complex sorts/aggregations: ~350 MB of working memory (Fig. 2's
		// "TPCC + aggregation" row).
		{30, func(rng *rand.Rand) Query {
			return qt(aggTpl, aggSQL.with(50+intn(rng, 100)),
				Profile{MemDemand: jitter(rng, 350*MiB), ReadBytes: jitter(rng, 400*MiB), Parallelizable: true})
		}},
		// Heavy standalone sorts.
		{20, func(rng *rand.Rand) Query {
			return qt(sortTpl, sortSQL.with(20+intn(rng, 50)),
				Profile{MemDemand: jitter(rng, 200*MiB), ReadBytes: jitter(rng, 300*MiB), Parallelizable: true})
		}},
		// Index create/drop: maintenance_work_mem pressure.
		{15, func(rng *rand.Rand) Query {
			i := intn(rng, adulterantIdents)
			return qt(a.createIdx.tpl(i), a.createIdx.sql.with(i),
				Profile{MaintMem: jitter(rng, 512*MiB), ReadBytes: jitter(rng, 800*MiB), WriteBytes: jitter(rng, 200*MiB)})
		}},
		{5, func(rng *rand.Rand) Query {
			i := intn(rng, adulterantIdents)
			return qt(a.dropIdx.tpl(i), a.dropIdx.sql.with(i),
				Profile{MaintMem: jitter(rng, 32*MiB), WriteBytes: jitter(rng, 8*MiB)})
		}},
		// Bulk deletes: maintenance pressure via cleanup.
		{10, func(rng *rand.Rand) Query {
			return qt(cleanupTpl, cleanupSQL.with(rng.Int63n(1e9)),
				Profile{MaintMem: jitter(rng, 128*MiB), ReadBytes: jitter(rng, 150*MiB), WriteBytes: jitter(rng, 80*MiB)})
		}},
		// Temp tables + aggregation over them: temp_buffers pressure.
		{20, func(rng *rand.Rand) Query {
			i := intn(rng, adulterantIdents)
			return qt(a.scratch.tpl(i), a.scratch.sql.with(i),
				Profile{MemDemand: jitter(rng, 150*MiB), TempBytes: jitter(rng, 400*MiB), ReadBytes: jitter(rng, 400*MiB)})
		}},
	})
	return a
}

// Name implements Generator.
func (a *AdulteratedTPCC) Name() string { return fmt.Sprintf("tpcc-adulterated-%.0f%%", a.P*100) }

// DBSizeBytes implements Generator.
func (a *AdulteratedTPCC) DBSizeBytes() float64 { return a.base.DBSizeBytes() }

// RequestRate implements Generator.
func (a *AdulteratedTPCC) RequestRate(at time.Time) float64 { return a.base.RequestRate(at) }

// Sample implements Generator.
func (a *AdulteratedTPCC) Sample(rng *rand.Rand) Query {
	if rng.Float64() < a.P {
		return a.adulterant.sample(rng)
	}
	return a.base.Sample(rng)
}
