package workload

import (
	"fmt"
	"math"
	"time"
)

// SimEpoch is the virtual-time origin every simulated engine starts its
// own clock at. Scenario load shapes are phrased in
// minutes since scenario start; an instance provisioned mid-scenario
// still starts its own clock at SimEpoch, so its shape carries the
// offset between the two timelines.
var SimEpoch = time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)

// Term kinds accepted by Shape.
const (
	// TermDiurnal is a 24-hour cosine between a trough and a peak
	// multiplier, peaking at PeakMin minutes past midnight.
	TermDiurnal = "diurnal"
	// TermSpike is a flash crowd: Factor inside [AtMin, AtMin+DurMin),
	// 1 elsewhere.
	TermSpike = "spike"
	// TermBatch is a recurring batch/maintenance window: Factor for
	// DurMin minutes every EveryMin minutes, starting at AtMin.
	TermBatch = "batch"
	// TermDrift ramps linearly from 1 at AtMin to Factor at
	// AtMin+DurMin and holds there — multi-day growth or decay.
	TermDrift = "drift"
	// TermScale is a constant multiplier.
	TermScale = "scale"
)

// Term is one multiplicative component of a load shape. All times are
// whole virtual minutes so shapes serialize exactly (no float drift
// between a scenario file and the schedule compiled from it).
type Term struct {
	Kind string `json:"kind"`
	// Factor is the term's multiplier: the diurnal peak, the spike or
	// batch height, the drift target, or the scale constant.
	Factor float64 `json:"factor"`
	// Trough is the diurnal off-peak multiplier.
	Trough float64 `json:"trough,omitempty"`
	// PeakMin is the diurnal peak as minutes past (virtual) midnight.
	PeakMin int `json:"peak_min,omitempty"`
	// AtMin anchors spike/batch/drift terms, in minutes since scenario
	// start.
	AtMin int `json:"at_min,omitempty"`
	// DurMin is the spike/batch width or the drift ramp length.
	DurMin int `json:"dur_min,omitempty"`
	// EveryMin is the batch recurrence period.
	EveryMin int `json:"every_min,omitempty"`
}

// minutesPerDay is the diurnal period.
const minutesPerDay = 24 * 60

// Validate rejects malformed terms with an error naming the field.
func (t Term) Validate() error {
	bad := func(field string, v float64) error {
		return fmt.Errorf("workload: %s term: %s %v out of range", t.Kind, field, v)
	}
	if math.IsNaN(t.Factor) || math.IsInf(t.Factor, 0) || t.Factor <= 0 {
		return bad("factor", t.Factor)
	}
	switch t.Kind {
	case TermDiurnal:
		if math.IsNaN(t.Trough) || math.IsInf(t.Trough, 0) || t.Trough <= 0 {
			return bad("trough", t.Trough)
		}
		if t.PeakMin < 0 || t.PeakMin >= minutesPerDay {
			return fmt.Errorf("workload: diurnal term: peak %d min outside [0,%d)", t.PeakMin, minutesPerDay)
		}
	case TermSpike, TermDrift:
		if t.AtMin < 0 {
			return fmt.Errorf("workload: %s term: negative start %d min", t.Kind, t.AtMin)
		}
		if t.DurMin <= 0 {
			return fmt.Errorf("workload: %s term: duration %d min must be positive", t.Kind, t.DurMin)
		}
	case TermBatch:
		if t.AtMin < 0 {
			return fmt.Errorf("workload: batch term: negative start %d min", t.AtMin)
		}
		if t.DurMin <= 0 {
			return fmt.Errorf("workload: batch term: duration %d min must be positive", t.DurMin)
		}
		if t.EveryMin < t.DurMin {
			return fmt.Errorf("workload: batch term: period %d min shorter than duration %d min", t.EveryMin, t.DurMin)
		}
	case TermScale:
		// Factor alone.
	default:
		return fmt.Errorf("workload: unknown shape term kind %q", t.Kind)
	}
	return nil
}

// factor evaluates the term at m minutes of scenario time.
func (t Term) factor(m float64) float64 {
	switch t.Kind {
	case TermDiurnal:
		phase := 2 * math.Pi * (m - float64(t.PeakMin)) / minutesPerDay
		return t.Trough + (t.Factor-t.Trough)*(1+math.Cos(phase))/2
	case TermSpike:
		if m >= float64(t.AtMin) && m < float64(t.AtMin+t.DurMin) {
			return t.Factor
		}
		return 1
	case TermBatch:
		if m < float64(t.AtMin) {
			return 1
		}
		phase := math.Mod(m-float64(t.AtMin), float64(t.EveryMin))
		if phase < float64(t.DurMin) {
			return t.Factor
		}
		return 1
	case TermDrift:
		if m <= float64(t.AtMin) {
			return 1
		}
		if m >= float64(t.AtMin+t.DurMin) {
			return t.Factor
		}
		return 1 + (t.Factor-1)*(m-float64(t.AtMin))/float64(t.DurMin)
	case TermScale:
		return t.Factor
	}
	return 1
}

// Shape is a serializable, multiplicative load modulation: the product
// of its terms scales a base generator's request rate over scenario
// time. OffsetMin aligns the two clocks — an instance provisioned w
// windows into a scenario starts its own virtual clock at SimEpoch, so
// the scenario compiler pins the shape with the join offset and the
// shape evaluates at (engine time - SimEpoch) + OffsetMin.
type Shape struct {
	OffsetMin int    `json:"offset_min,omitempty"`
	Terms     []Term `json:"terms"`
}

// Empty reports whether the shape modulates nothing.
func (s Shape) Empty() bool { return len(s.Terms) == 0 }

// Validate checks every term.
func (s Shape) Validate() error {
	if s.OffsetMin < 0 {
		return fmt.Errorf("workload: shape: negative offset %d min", s.OffsetMin)
	}
	for _, t := range s.Terms {
		if err := t.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// FactorAt evaluates the shape at an engine timestamp.
func (s Shape) FactorAt(at time.Time) float64 {
	m := at.Sub(SimEpoch).Minutes() + float64(s.OffsetMin)
	f := 1.0
	for _, t := range s.Terms {
		f *= t.factor(m)
	}
	if f < 0 || math.IsNaN(f) {
		return 0
	}
	return f
}

// Shaped modulates a base generator's offered load by a Shape. The
// query mix and database size are untouched — only RequestRate bends.
type Shaped struct {
	Generator
	Shape Shape
}

// RequestRate implements Generator.
func (s Shaped) RequestRate(at time.Time) float64 {
	return s.Generator.RequestRate(at) * s.Shape.FactorAt(at)
}
