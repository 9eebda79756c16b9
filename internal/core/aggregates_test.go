package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/checkpoint"
	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// editInstance decodes an instance section, applies edit to its state
// and re-encodes it.
func editInstance(t *testing.T, payload []byte, edit func(st *checkpoint.InstanceState)) []byte {
	t.Helper()
	st, _, err := checkpoint.ParseInstance(payload)
	if err != nil {
		t.Fatal(err)
	}
	edit(&st)
	return checkpoint.AppendInstance(nil, &st, knobs.Postgres)
}

// TestRestoreRejectsBadAggregates: an instance section whose class
// histogram or monitor count is negative is refused with an error
// naming the section before that section restores anything.
func TestRestoreRejectsBadAggregates(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	data, build := snapshotForCorruption(t)
	const target = "instance/db-02"
	cases := map[string]func(t *testing.T, p []byte) []byte{
		"negative histogram count": func(t *testing.T, p []byte) []byte {
			return editInstance(t, p, func(st *checkpoint.InstanceState) { st.Agent.TDE.Classes[sqlparse.ClassJoin] = -1 })
		},
		"negative monitor count": func(t *testing.T, p []byte) []byte {
			return editInstance(t, p, func(st *checkpoint.InstanceState) { st.Monitor.Count = -1 })
		},
	}
	for name, corrupt := range cases {
		t.Run(name, func(t *testing.T) {
			restaged := restage(t, data, func(sec string, p []byte) ([]byte, bool) {
				if sec == target {
					return corrupt(t, p), true
				}
				return p, true
			})
			fresh, s := build(), build()
			err := s.Restore(bytes.NewReader(restaged))
			if err == nil || !strings.Contains(err.Error(), target) {
				t.Fatalf("want an error naming %q, got: %v", target, err)
			}
			for i, a := range s.Agents() {
				if a.Instance().ID != strings.TrimPrefix(target, "instance/") {
					continue
				}
				want := fresh.Agents()[i]
				if !a.Instance().Replica.Master().Now().Equal(want.Instance().Replica.Master().Now()) || a.TDE().Ticks() != 0 {
					t.Errorf("%s restored state before it was refused", target)
				}
			}
		})
	}
}

// distinctScans is a generator that cycles through n tables, so its
// statement stream carries n distinct templates.
type distinctScans struct {
	tpls []sqlparse.Template
	next int
}

func newDistinctScans(n int) *distinctScans {
	g := &distinctScans{}
	for i := 0; i < n; i++ {
		g.tpls = append(g.tpls, sqlparse.TemplateOf(fmt.Sprintf("SELECT v FROM t_%d ORDER BY v", i)))
	}
	return g
}

func (g *distinctScans) Name() string                  { return "distinct-scans" }
func (g *distinctScans) DBSizeBytes() float64          { return 4 * workload.GiB }
func (g *distinctScans) RequestRate(time.Time) float64 { return 500 }
func (g *distinctScans) Sample(*rand.Rand) workload.Query {
	tpl := g.tpls[g.next%len(g.tpls)]
	g.next++
	return workload.Query{Class: tpl.Class, Template: tpl, Profile: workload.Profile{ReadBytes: 64 * workload.KiB, MemDemand: 8 << 20}}
}
func (g *distinctScans) SampleInto(rng *rand.Rand, q *workload.Query) { *q = g.Sample(rng) }

// aggregateBytes runs one instance of g for windows windows and returns
// the bytes its instance section spends on the agent (the TDE within it)
// and the monitor.
func aggregateBytes(t *testing.T, g workload.Generator, windows int) (tdeBytes, monBytes int) {
	t.Helper()
	s := newSystem(t)
	if _, err := s.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{
			ID: "db-1", Plan: "m4.large", Engine: knobs.Postgres,
			DBSizeBytes: g.DBSizeBytes(), Seed: 5,
		},
		Workload: g,
		Agent:    agent.Options{TickEvery: 5 * time.Minute},
	}); err != nil {
		t.Fatal(err)
	}
	stepN(s, windows)
	payload, _, err := s.ExportInstanceSection("db-1")
	if err != nil {
		t.Fatal(err)
	}
	_, sz, err := checkpoint.ParseInstance(payload)
	if err != nil {
		t.Fatal(err)
	}
	return sz.Agent, sz.Monitor
}

// TestAggregateBytesFlat: what an instance's snapshot spends on its TDE
// and its monitor depends neither on how long it ran nor on how many
// distinct templates its workload carries. Counter and float widths
// still vary, so sizes may differ by a few bytes; a per-template table
// or a per-window series would differ by kilobytes.
func TestAggregateBytesFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("runs 200 windows")
	}
	const slack = 64 // bytes
	baseTDE, baseMon := aggregateBytes(t, newDistinctScans(10), 20)
	t.Logf("10 templates, 20 windows: TDE %d bytes, monitor %d bytes", baseTDE, baseMon)
	for _, c := range []struct {
		templates, windows int
	}{{10, 200}, {1000, 20}} {
		tdeBytes, monBytes := aggregateBytes(t, newDistinctScans(c.templates), c.windows)
		t.Logf("%d templates, %d windows: TDE %d bytes, monitor %d bytes", c.templates, c.windows, tdeBytes, monBytes)
		if d := tdeBytes - baseTDE; d > slack || d < -slack {
			t.Errorf("%d templates, %d windows: TDE bytes %d, want %d ± %d", c.templates, c.windows, tdeBytes, baseTDE, slack)
		}
		if d := monBytes - baseMon; d > slack || d < -slack {
			t.Errorf("%d templates, %d windows: monitor bytes %d, want %d ± %d", c.templates, c.windows, monBytes, baseMon, slack)
		}
	}
}
