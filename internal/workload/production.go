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
	mix mixSampler
	// The events_<i> call sites, each with one template per table.
	insert, lookup, dashboard, join, purge identSite
	devUpdate                              litSite
}

// ProductionTables is the table count of the traced customer schema.
const ProductionTables = 132

// ProductionDBSize is the traced database size (59 GB).
const ProductionDBSize = 59 * GiB

// NewProduction returns the production-trace generator.
func NewProduction() *Production {
	// The events_%d sites interpolate table names: one template per
	// table — the point of the 132-table schema — derived on first draw.
	return &Production{
		// Queries per day, in SampleInto's case order.
		mix:       newMixSampler(41_000_000, 1_000_000, 80_000, 30_000, 34_000, 800),
		insert:    newIdentSite("INSERT INTO events_%d (device_id, ts, payload) VALUES (%d, %d, '%x')", ProductionTables),
		lookup:    newIdentSite("SELECT payload FROM events_%d WHERE device_id = %d AND ts > %d", ProductionTables),
		dashboard: newIdentSite("SELECT device_id, COUNT(*), MAX(ts) FROM events_%d WHERE ts > %d GROUP BY device_id ORDER BY 2 DESC", ProductionTables),
		join:      newIdentSite("SELECT a.device_id FROM events_%d a JOIN devices d ON a.device_id = d.id WHERE d.region = 'R%d'", ProductionTables),
		purge:     newIdentSite("DELETE FROM events_%d WHERE ts < %d", ProductionTables),
		devUpdate: newLitSite("UPDATE devices SET last_seen = %d WHERE id = %d", 0, 0),
	}
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
func (p *Production) Sample(rng *rand.Rand) (q Query) { p.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (p *Production) SampleInto(rng *rand.Rand, q *Query) {
	const row = 700.0
	switch p.mix.pick(rng) {
	case 0: // Telemetry ingest: the overwhelming majority (41M/day).
		p.insert.fill(q, intn(rng, ProductionTables), intn(rng, 500_000), rng.Int63n(2e9), rng.Int63())
		q.Profile = Profile{WriteBytes: jitter(rng, row), IndexFriendly: true}
	case 1: // Point lookups (71K/day stated + unaccounted remainder ≈ 1M/day).
		p.lookup.fill(q, intn(rng, ProductionTables), intn(rng, 500_000), rng.Int63n(2e9))
		q.Profile = Profile{ReadBytes: jitter(rng, 20*row), IndexFriendly: true}
	case 2: // Dashboard aggregations (reporting, mornings in practice).
		p.dashboard.fill(q, intn(rng, ProductionTables), rng.Int63n(2e9))
		q.Profile = Profile{MemDemand: jitter(rng, 48*MiB), ReadBytes: jitter(rng, 200*MiB), Parallelizable: true}
	case 3: // Cross-table correlation joins.
		p.join.fill(q, intn(rng, ProductionTables), intn(rng, 20))
		q.Profile = Profile{MemDemand: jitter(rng, 24*MiB), ReadBytes: jitter(rng, 80*MiB), Parallelizable: true}
	case 4: // Updates (34K/day).
		p.devUpdate.fill(q, rng.Int63n(2e9), intn(rng, 500_000))
		q.Profile = Profile{ReadBytes: jitter(rng, 2*row), WriteBytes: jitter(rng, row), IndexFriendly: true}
	default: // Deletes (0.8K/day, retention cleanup).
		p.purge.fill(q, intn(rng, ProductionTables), rng.Int63n(1e9))
		q.Profile = Profile{MaintMem: jitter(rng, 16*MiB), ReadBytes: jitter(rng, 10*MiB), WriteBytes: jitter(rng, 5*MiB)}
	}
}

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
	adulterant mixSampler
	// The DDL sites, each naming one of adulterantIdents indexes or
	// temp tables: one template per identifier.
	createIdx, dropIdx, scratch identSite
	agg, sort, cleanup          litSite
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
	return &AdulteratedTPCC{
		base:       NewTPCC(size, rate),
		P:          p,
		adulterant: newMixSampler(30, 20, 15, 5, 10, 20),
		createIdx:  newIdentSite("CREATE INDEX idx_adult_%d ON order_line (ol_i_id, ol_w_id)", adulterantIdents),
		dropIdx:    newIdentSite("DROP INDEX idx_adult_%d", adulterantIdents),
		scratch:    newIdentSite("CREATE TEMP TABLE scratch_%d AS SELECT ol_i_id, SUM(ol_amount) s FROM order_line GROUP BY ol_i_id", adulterantIdents),
		agg:        newLitSite("SELECT ol_i_id, SUM(ol_amount), COUNT(*) FROM order_line JOIN stock ON ol_i_id = s_i_id GROUP BY ol_i_id ORDER BY SUM(ol_amount) DESC LIMIT %d", 50),
		sort:       newLitSite("SELECT c_id, c_balance FROM customer WHERE c_w_id < %d ORDER BY c_balance DESC", 20),
		cleanup:    newLitSite("DELETE FROM history WHERE h_date < %d", 0),
	}
}

// Name implements Generator.
func (a *AdulteratedTPCC) Name() string { return fmt.Sprintf("tpcc-adulterated-%.0f%%", a.P*100) }

// DBSizeBytes implements Generator.
func (a *AdulteratedTPCC) DBSizeBytes() float64 { return a.base.DBSizeBytes() }

// RequestRate implements Generator.
func (a *AdulteratedTPCC) RequestRate(at time.Time) float64 { return a.base.RequestRate(at) }

// Sample implements Generator.
func (a *AdulteratedTPCC) Sample(rng *rand.Rand) (q Query) { a.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (a *AdulteratedTPCC) SampleInto(rng *rand.Rand, q *Query) {
	if rng.Float64() < a.P {
		a.adulterate(rng, q)
		return
	}
	a.base.SampleInto(rng, q)
}

// adulterate draws one adulterant into q.
func (a *AdulteratedTPCC) adulterate(rng *rand.Rand, q *Query) {
	switch a.adulterant.pick(rng) {
	case 0:
		// Complex sorts/aggregations: ~350 MB of working memory (Fig. 2's
		// "TPCC + aggregation" row).
		a.agg.fill(q, 50+intn(rng, 100))
		q.Profile = Profile{MemDemand: jitter(rng, 350*MiB), ReadBytes: jitter(rng, 400*MiB), Parallelizable: true}
	case 1: // Heavy standalone sorts.
		a.sort.fill(q, 20+intn(rng, 50))
		q.Profile = Profile{MemDemand: jitter(rng, 200*MiB), ReadBytes: jitter(rng, 300*MiB), Parallelizable: true}
	case 2: // Index create/drop: maintenance_work_mem pressure.
		a.createIdx.fill(q, intn(rng, adulterantIdents))
		q.Profile = Profile{MaintMem: jitter(rng, 512*MiB), ReadBytes: jitter(rng, 800*MiB), WriteBytes: jitter(rng, 200*MiB)}
	case 3:
		a.dropIdx.fill(q, intn(rng, adulterantIdents))
		q.Profile = Profile{MaintMem: jitter(rng, 32*MiB), WriteBytes: jitter(rng, 8*MiB)}
	case 4: // Bulk deletes: maintenance pressure via cleanup.
		a.cleanup.fill(q, rng.Int63n(1e9))
		q.Profile = Profile{MaintMem: jitter(rng, 128*MiB), ReadBytes: jitter(rng, 150*MiB), WriteBytes: jitter(rng, 80*MiB)}
	default: // Temp tables + aggregation over them: temp_buffers pressure.
		a.scratch.fill(q, intn(rng, adulterantIdents))
		q.Profile = Profile{MemDemand: jitter(rng, 150*MiB), TempBytes: jitter(rng, 400*MiB), ReadBytes: jitter(rng, 400*MiB)}
	}
}
