// Package workload models the SQL workloads the paper evaluates on:
// the OLTP-Bench suites (TPCC, YCSB, Wikipedia, Twitter), the analytic
// TPCH / CH-benCHmark mixes, the "adulterated TPCC" used to exercise
// every throttle class, and a synthetic stand-in for the paper's 33-day
// production customer trace (132 tables, 42.13M queries/day, 59 GB).
//
// A Generator produces Query values: each carries its template and class
// (what the TDE's log pipeline reads), the means to render its SQL text
// on demand, and an execution profile (memory demand, read/write volume)
// the simulated engine prices. Offered load comes
// from RequestRate, which for the production workload reproduces the
// diurnal arrival curve of the paper's Figure 8.
package workload

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"autodbaas/internal/sqlparse"
)

// Byte-size helpers.
const (
	KiB = 1024.0
	MiB = 1024 * KiB
	GiB = 1024 * MiB
)

// Profile quantifies the resource demand of one query for the simulated
// engine's cost model.
type Profile struct {
	// MemDemand is the working memory (bytes) needed by sorts, hashes
	// and joins; execution spills to disk when the engine's working-area
	// knob grants less.
	MemDemand float64
	// MaintMem is maintenance memory (bytes) needed by index builds,
	// ALTER TABLE and delete cleanup.
	MaintMem float64
	// TempBytes is temporary-table volume (bytes).
	TempBytes float64
	// ReadBytes is the logical data volume read.
	ReadBytes float64
	// WriteBytes is the data volume written (generates WAL and dirty pages).
	WriteBytes float64
	// Parallelizable marks queries whose plans can use parallel workers.
	Parallelizable bool
	// IndexFriendly marks queries that profit from index access (their
	// read volume shrinks when the planner chooses an index scan).
	IndexFriendly bool
}

// Query is one SQL statement with its execution profile.
//
// Template is the pre-computed normalized form of the statement:
// generators fill it once at construction so the engine's per-query hot
// path (query log, profile memoisation) never templates text. Class
// always equals Template.Class when Template is set.
//
// A statement drawn from a compiled format carries the format and its
// drawn arguments, not text: Text renders it on demand, and only the
// readers of text (trace recording, the entropy figure, workloadgen)
// pay for that. SQL holds the text of a statement built from text — a
// trace replay, or a site whose template must be derived from its text
// — and is empty otherwise.
type Query struct {
	SQL      string
	Class    sqlparse.Class
	Template sqlparse.Template
	Profile  Profile
	stmt     stmt
}

// Text returns the statement's SQL text: SQL for a statement built from
// text, else its format rendered with its arguments, byte for byte what
// fmt.Sprintf of the format would give.
func (q Query) Text() string {
	if q.stmt.f == nil {
		return q.SQL
	}
	return q.stmt.f.render(q.stmt.args[:len(q.stmt.f.verbs)]...)
}

// Generator produces a stream of queries plus offered load over time.
type Generator interface {
	// Name identifies the workload ("tpcc", "ycsb", ...).
	Name() string
	// DBSizeBytes is the loaded dataset size.
	DBSizeBytes() float64
	// RequestRate is the offered load (queries/second) at the given time.
	RequestRate(at time.Time) float64
	// Sample draws one query.
	Sample(rng *rand.Rand) Query
}

// Window draws n queries from g.
func Window(g Generator, rng *rand.Rand, n int) []Query {
	out := make([]Query, n)
	for i := range out {
		out[i] = g.Sample(rng)
	}
	return out
}

// choice is an internal weighted query-template sampler shared by the
// concrete generators.
type choice struct {
	weight float64
	make   func(rng *rand.Rand) Query
}

type mixSampler struct {
	choices []choice
	total   float64
}

func newMixSampler(choices []choice) *mixSampler {
	var total float64
	for _, c := range choices {
		total += c.weight
	}
	return &mixSampler{choices: choices, total: total}
}

func (m *mixSampler) sample(rng *rand.Rand) Query {
	r := rng.Float64() * m.total
	for _, c := range m.choices {
		if r < c.weight {
			return c.make(rng)
		}
		r -= c.weight
	}
	return m.choices[len(m.choices)-1].make(rng)
}

// litTpl derives the template of a compiled SQL format whose verbs all
// expand to literal values (bare numbers, or text inside quotes).
// Normalization replaces literals with placeholders, so every
// instantiation of such a format shares one template; deriving it once
// at generator construction — from a canonical instantiation with the
// given args — takes the normalize/hash work off the per-query path.
// A format that interpolates an identifier (table, column or index
// name) yields a different template per identifier: an identSite holds
// one per identifier of a bounded set, derived on its first draw.
// TestGeneratorTemplatesMatchSQL enforces the contract.
func litTpl(f *sqlFormat, canon ...int64) sqlparse.Template {
	return sqlparse.TemplateOf(f.render(canon...))
}

// intn draws rng.Intn(n) as a render argument.
func intn(rng *rand.Rand, n int) int64 { return int64(rng.Intn(n)) }

// qt builds a Query from a drawn statement whose template is already
// known (a litTpl constant for its call site, or an identSite's
// template for the statement's identifier). Nothing is rendered.
func qt(tpl sqlparse.Template, s stmt, p Profile) Query {
	return Query{Class: tpl.Class, Template: tpl, Profile: p, stmt: s}
}

// jitter returns v scaled by a lognormal-ish factor in roughly [0.5, 2].
func jitter(rng *rand.Rand, v float64) float64 {
	return v * math.Exp(rng.NormFloat64()*0.25)
}

// constRate adapts a fixed request rate.
type constRate float64

func (c constRate) rate(time.Time) float64 { return float64(c) }

// FixedRate wraps a generator overriding its request rate, used by
// experiments that pin offered load (e.g. Fig. 10's 3300 rps TPCC).
type FixedRate struct {
	Generator
	Rate float64
}

// RequestRate implements Generator.
func (f FixedRate) RequestRate(time.Time) float64 { return f.Rate }

// Registry returns a named standard workload with the paper's Fig. 10
// parameters (rate, database size). Unknown names yield an error.
func Registry(name string) (Generator, error) {
	switch name {
	case "tpcc":
		return NewTPCC(26*GiB, 3300), nil
	case "ycsb":
		return NewYCSB(20*GiB, 5000), nil
	case "wikipedia":
		return NewWikipedia(12*GiB, 1000), nil
	case "twitter":
		return NewTwitter(22*GiB, 10000), nil
	case "tpch":
		return NewTPCH(24*GiB, 40), nil
	case "chbench":
		return NewCHBench(24*GiB, 2000), nil
	case "production":
		return NewProduction(), nil
	default:
		return nil, fmt.Errorf("workload: unknown workload %q", name)
	}
}
