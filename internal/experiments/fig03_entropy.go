package experiments

import (
	"math/rand"

	"autodbaas/internal/entropy"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// Fig3Result holds the entropy-variation series of Figs. 3 and 4.
type Fig3Result struct {
	AdulterationP float64
	// Plain is the normalized entropy of unmodified TPCC per window.
	Plain Series
	// Adulterated is the entropy with adulteration probability P.
	Adulterated Series
}

// Fig3Entropy reproduces Figs. 3 (p=0.8) and 4 (p=0.5): the normalized
// entropy η of the query-class histogram, per observation window, for
// plain TPCC versus TPCC adulterated with index-DDL, complex joins,
// temp-table, ORDER BY and aggregation queries.
//
// Paper shape: the two curves are clearly separated — the adulterated
// workload's class distribution differs strongly from plain TPCC's, and
// the probability distributions "vary hugely ... and result in entropy
// difference". Plain TPCC concentrates its mass on a few transaction
// classes; adulteration spreads the histogram across all throttle-prone
// classes, raising η toward 1.
func Fig3Entropy(p float64, windows, queriesPerWindow int, seed int64) Fig3Result {
	res := Fig3Result{AdulterationP: p}
	res.Plain = entropySeries("tpcc", workload.NewTPCC(21*workload.GiB, 3000), windows, queriesPerWindow, seed)
	res.Adulterated = entropySeries(
		"tpcc-adulterated",
		workload.NewAdulteratedTPCC(21*workload.GiB, 3000, p),
		windows, queriesPerWindow, seed+1,
	)
	return res
}

// entropySeries templates windows of query text, counts each window's
// statements per class and evaluates η per window.
func entropySeries(name string, gen workload.Generator, windows, perWindow int, seed int64) Series {
	rng := rand.New(rand.NewSource(seed))
	s := Series{Name: name}
	for w := 0; w < windows; w++ {
		counts := make([]int, sqlparse.NumClasses)
		for i := 0; i < perWindow; i++ {
			counts[sqlparse.TemplateOf(gen.Sample(rng).Text()).Class]++
		}
		s.Points = append(s.Points, Point{X: float64(w), Y: entropy.Normalized(counts)})
	}
	return s
}

// Render renders both series.
func (r Fig3Result) Render() string {
	title := "Fig. 3 — Entropy variation, 80% adulteration"
	if r.AdulterationP < 0.65 {
		title = "Fig. 4 — Entropy variation, 50% adulteration"
	}
	return RenderSeries(title, r.Plain, r.Adulterated)
}
