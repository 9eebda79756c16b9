package workload

import (
	"math/rand"
	"time"
)

// TPCH is the decision-support mix: large scan-heavy joins, aggregations
// and sorts with hundreds of megabytes of working-memory demand —
// exactly the query shapes §3.1 lists as triggering work_mem throttles.
type TPCH struct {
	size float64
	rate float64
	mix  mixSampler

	q1, q3, q6, q18 litSite
}

// NewTPCH returns a TPCH generator over size bytes offering rate
// queries/second (analytic rates are low; the paper's Fig. 14 uses a
// 24 GB TPCH load).
func NewTPCH(size, rate float64) *TPCH {
	return &TPCH{
		size: size,
		rate: rate,
		mix:  newMixSampler(30, 25, 25, 20),
		q1:   newLitSite("SELECT l_returnflag, l_linestatus, SUM(l_quantity), AVG(l_extendedprice) FROM lineitem WHERE l_shipdate <= '1998-%02d-01' GROUP BY l_returnflag, l_linestatus", 1),
		q3:   newLitSite("SELECT o_orderkey, SUM(l_extendedprice) FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON l_orderkey = o_orderkey WHERE c_mktsegment = 'SEG%d' GROUP BY o_orderkey ORDER BY 2 DESC", 0),
		q6:   newLitSite("SELECT SUM(l_extendedprice * l_discount) FROM lineitem WHERE l_discount BETWEEN 0.0%d AND 0.0%d", 1, 5),
		q18:  newLitSite("SELECT c_name, o_orderkey, SUM(l_quantity) FROM customer JOIN orders ON c_custkey = o_custkey JOIN lineitem ON o_orderkey = l_orderkey GROUP BY c_name, o_orderkey ORDER BY SUM(l_quantity) DESC LIMIT %d", 100),
	}
}

// Name implements Generator.
func (t *TPCH) Name() string { return "tpch" }

// DBSizeBytes implements Generator.
func (t *TPCH) DBSizeBytes() float64 { return t.size }

// RequestRate implements Generator.
func (t *TPCH) RequestRate(time.Time) float64 { return t.rate }

// Sample implements Generator.
func (t *TPCH) Sample(rng *rand.Rand) (q Query) { t.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (t *TPCH) SampleInto(rng *rand.Rand, q *Query) {
	// Scan volumes scale with the dataset: lineitem is ~70% of TPCH.
	lineitem := t.size * 0.7
	switch t.mix.pick(rng) {
	case 0: // Q1-style: full scan + wide aggregation.
		t.q1.fill(q, 1+intn(rng, 12))
		q.Profile = Profile{MemDemand: jitter(rng, 180*MiB), ReadBytes: jitter(rng, lineitem*0.6), Parallelizable: true}
	case 1: // Q3-style: 3-way join + sort.
		t.q3.fill(q, intn(rng, 5))
		q.Profile = Profile{MemDemand: jitter(rng, 350*MiB), ReadBytes: jitter(rng, lineitem*0.3), Parallelizable: true}
	case 2: // Q6-style: selective scan, light memory.
		t.q6.fill(q, 1+intn(rng, 4), 5+intn(rng, 4))
		q.Profile = Profile{MemDemand: jitter(rng, 8*MiB), ReadBytes: jitter(rng, lineitem*0.2), Parallelizable: true}
	default: // Q18-style: big hash join + ORDER BY.
		t.q18.fill(q, 100*(1+intn(rng, 3)))
		q.Profile = Profile{MemDemand: jitter(rng, 420*MiB), ReadBytes: jitter(rng, lineitem*0.5), Parallelizable: true}
	}
}

// CHBench is the CH-benCHmark: TPCC transactions with concurrent
// TPCH-style analytic queries over the same schema (the mixed workload
// the paper's Fig. 2 row "CH-Bench" measures at ~350 MB work_mem use).
type CHBench struct {
	size float64
	rate float64
	oltp *TPCC
	olap *TPCH
	// olapFraction is the probability a sampled query is analytic.
	olapFraction float64
}

// NewCHBench returns a CH-benCHmark generator.
func NewCHBench(size, rate float64) *CHBench {
	return &CHBench{
		size:         size,
		rate:         rate,
		oltp:         NewTPCC(size*0.8, rate),
		olap:         NewTPCH(size*0.2, rate*0.02),
		olapFraction: 0.05,
	}
}

// Name implements Generator.
func (c *CHBench) Name() string { return "chbench" }

// DBSizeBytes implements Generator.
func (c *CHBench) DBSizeBytes() float64 { return c.size }

// RequestRate implements Generator.
func (c *CHBench) RequestRate(time.Time) float64 { return c.rate }

// Sample implements Generator.
func (c *CHBench) Sample(rng *rand.Rand) (q Query) { c.SampleInto(rng, &q); return q }

// SampleInto implements Generator.
func (c *CHBench) SampleInto(rng *rand.Rand, q *Query) {
	if rng.Float64() < c.olapFraction {
		c.olap.SampleInto(rng, q)
		return
	}
	c.oltp.SampleInto(rng, q)
}
