// Package experiments contains one harness per table and figure of the
// AutoDBaaS paper's evaluation (§3 and §5). Every harness returns a
// structured result plus a plain-text rendering, so the same code backs
// the shape tests and TestPaperArtifacts, which pins every rendered
// artifact byte for byte (testdata/quick/ by default, the committed
// results/ with -full).
//
// Absolute numbers differ from the paper — the substrate here is a
// simulator, not the authors' AWS testbed — but each harness's doc
// comment states the paper's qualitative result, and the tests assert
// that shape.
package experiments

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Point is one (x, y) sample of a series.
type Point struct {
	X float64
	Y float64
}

// Series is a named line on a figure.
type Series struct {
	Name   string
	Points []Point
}

// Mean returns the mean Y of the series (0 if empty).
func (s Series) Mean() float64 {
	if len(s.Points) == 0 {
		return 0
	}
	var sum float64
	for _, p := range s.Points {
		sum += p.Y
	}
	return sum / float64(len(s.Points))
}

// MaxY returns the maximum Y and its X.
func (s Series) MaxY() (x, y float64) {
	y = math.Inf(-1)
	for _, p := range s.Points {
		if p.Y > y {
			x, y = p.X, p.Y
		}
	}
	return x, y
}

// Table is a simple labelled grid for table-style artifacts.
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// Render renders the table as aligned text.
func (t Table) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for _, row := range t.Rows {
		writeRow(row)
	}
	return b.String()
}

// RenderSeries renders series as a TSV block with a shared X column.
func RenderSeries(title string, series ...Series) string {
	var b strings.Builder
	fmt.Fprintf(&b, "## %s\n", title)
	b.WriteString("x")
	for _, s := range series {
		b.WriteString("\t" + s.Name)
	}
	b.WriteByte('\n')
	// Union of X values across series.
	xsSet := map[float64]bool{}
	for _, s := range series {
		for _, p := range s.Points {
			xsSet[p.X] = true
		}
	}
	xs := make([]float64, 0, len(xsSet))
	for x := range xsSet {
		xs = append(xs, x)
	}
	sort.Float64s(xs)
	lookup := make([]map[float64]float64, len(series))
	for i, s := range series {
		m := make(map[float64]float64, len(s.Points))
		for _, p := range s.Points {
			m[p.X] = p.Y
		}
		lookup[i] = m
	}
	for _, x := range xs {
		fmt.Fprintf(&b, "%g", x)
		for i := range series {
			if y, ok := lookup[i][x]; ok {
				fmt.Fprintf(&b, "\t%g", y)
			} else {
				b.WriteString("\t")
			}
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// mb formats bytes as megabytes.
func mb(v float64) string {
	return fmt.Sprintf("%.1f MB", v/(1024*1024))
}
