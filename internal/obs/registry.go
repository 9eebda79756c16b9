package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one metric dimension (e.g. {Key: "tuner", Value: "bo"}).
type Label struct {
	Key   string
	Value string
}

// L is shorthand for building a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// DefBuckets are the default histogram bucket upper bounds, in seconds,
// stretched to cover both sub-millisecond control-plane operations and
// the O(n³) GPR fits the paper reports at 100+ seconds.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120,
}

// instrumentKind discriminates registry entries.
type instrumentKind uint8

const (
	kindCounter instrumentKind = iota
	kindGauge
	kindHistogram
)

func (k instrumentKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// Counter is a monotonically increasing metric. Safe for concurrent
// use; updates are a single CAS loop on float64 bits.
type Counter struct {
	bits atomic.Uint64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds v (negative deltas are ignored: counters only go up).
func (c *Counter) Add(v float64) {
	if v < 0 {
		return
	}
	addFloatBits(&c.bits, v)
}

// Value returns the current count.
func (c *Counter) Value() float64 { return math.Float64frombits(c.bits.Load()) }

// Gauge is a metric that can go up and down.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Add adds v (which may be negative).
func (g *Gauge) Add(v float64) { addFloatBits(&g.bits, v) }

// Value returns the current value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

func addFloatBits(bits *atomic.Uint64, v float64) {
	for {
		old := bits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if bits.CompareAndSwap(old, next) {
			return
		}
	}
}

// Histogram counts observations into fixed buckets (cumulative
// Prometheus semantics on exposition: le is an inclusive upper bound).
type Histogram struct {
	bounds  []float64 // sorted upper bounds; +Inf bucket is implicit
	buckets []atomic.Uint64
	count   atomic.Uint64
	sumBits atomic.Uint64
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose bound is >= v; beyond the last bound lands in
	// the implicit +Inf bucket.
	i := sort.SearchFloat64s(h.bounds, v)
	h.buckets[i].Add(1)
	h.count.Add(1)
	addFloatBits(&h.sumBits, v)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sumBits.Load()) }

// BucketCounts returns the per-bucket (non-cumulative) counts; the last
// entry is the +Inf bucket.
func (h *Histogram) BucketCounts() []uint64 {
	out := make([]uint64, len(h.buckets))
	for i := range h.buckets {
		out[i] = h.buckets[i].Load()
	}
	return out
}

// Bounds returns the bucket upper bounds (without +Inf).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// entry is one registered instrument with its identity.
type entry struct {
	name   string
	labels []Label
	kind   instrumentKind

	counter *Counter
	gauge   *Gauge
	hist    *Histogram
}

const registryShards = 16

type registryShard struct {
	mu      sync.RWMutex
	entries map[string]*entry
}

// Registry holds labeled metric instruments, sharded by identity so
// lazy lookups from many goroutines don't contend on one lock. Handles
// returned by Counter/Gauge/Histogram are stable: resolve once at
// construction time, update lock-free afterwards.
type Registry struct {
	shards [registryShards]registryShard

	helpMu sync.RWMutex
	help   map[string]string
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	r := &Registry{help: make(map[string]string)}
	for i := range r.shards {
		r.shards[i].entries = make(map[string]*entry)
	}
	return r
}

// key builds the identity string for name + sorted labels.
func key(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	n := len(name)
	for _, l := range labels {
		n += 2 + len(l.Key) + len(l.Value)
	}
	var b strings.Builder
	b.Grow(n)
	b.WriteString(name)
	for _, l := range labels {
		b.WriteByte(0xff)
		b.WriteString(l.Key)
		b.WriteByte(0xfe)
		b.WriteString(l.Value)
	}
	return b.String()
}

func sortLabels(labels []Label) []Label {
	if len(labels) < 2 {
		return labels
	}
	out := append([]Label(nil), labels...)
	slices.SortStableFunc(out, func(a, b Label) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// shard picks k's shard by its 32-bit FNV-1a hash, computed inline: a
// hash.Hash32 and the []byte copy of k it would take cost two
// allocations per lookup.
func (r *Registry) shard(k string) *registryShard {
	h := uint32(2166136261)
	for i := 0; i < len(k); i++ {
		h ^= uint32(k[i])
		h *= 16777619
	}
	return &r.shards[h%registryShards]
}

// lookup returns the entry for (name, labels), creating it with mk when
// absent. Mismatched kinds on the same identity panic: that is a
// programming error, not a runtime condition.
func (r *Registry) lookup(name string, labels []Label, kind instrumentKind, mk func() *entry) *entry {
	labels = sortLabels(labels)
	k := key(name, labels)
	s := r.shard(k)
	s.mu.RLock()
	e, ok := s.entries[k]
	s.mu.RUnlock()
	if !ok {
		s.mu.Lock()
		if e, ok = s.entries[k]; !ok {
			e = mk()
			e.name, e.labels, e.kind = name, labels, kind
			s.entries[k] = e
		}
		s.mu.Unlock()
	}
	if e.kind != kind {
		panic(fmt.Sprintf("obs: metric %q registered as %s, requested as %s", name, e.kind, kind))
	}
	return e
}

// Counter returns the counter for (name, labels), registering it on
// first use. help is recorded for the family (first writer wins).
func (r *Registry) Counter(name, help string, labels ...Label) *Counter {
	r.setHelp(name, help)
	e := r.lookup(name, labels, kindCounter, func() *entry {
		return &entry{counter: &Counter{}}
	})
	return e.counter
}

// Gauge returns the gauge for (name, labels).
func (r *Registry) Gauge(name, help string, labels ...Label) *Gauge {
	r.setHelp(name, help)
	e := r.lookup(name, labels, kindGauge, func() *entry {
		return &entry{gauge: &Gauge{}}
	})
	return e.gauge
}

// Histogram returns the histogram for (name, labels). bounds are the
// bucket upper bounds (nil: DefBuckets); only the first registration's
// bounds are kept.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...Label) *Histogram {
	r.setHelp(name, help)
	e := r.lookup(name, labels, kindHistogram, func() *entry {
		bs := bounds
		if len(bs) == 0 {
			bs = DefBuckets
		}
		bs = append([]float64(nil), bs...)
		sort.Float64s(bs)
		return &entry{hist: &Histogram{bounds: bs, buckets: make([]atomic.Uint64, len(bs)+1)}}
	})
	return e.hist
}

// RemoveGauge deletes the series (name, labels) if the registry still
// holds g there, and reports whether it did. It is how a component that
// goes away takes its labeled series with it: a handle the registry no
// longer holds under that identity (Reset detached it, or it was
// removed and registered anew) removes nothing.
func (r *Registry) RemoveGauge(g *Gauge, name string, labels ...Label) bool {
	k := key(name, sortLabels(labels))
	s := r.shard(k)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[k]; ok && e.kind == kindGauge && e.gauge == g {
		delete(s.entries, k)
		return true
	}
	return false
}

func (r *Registry) setHelp(name, help string) {
	if help == "" {
		return
	}
	r.helpMu.RLock()
	_, ok := r.help[name]
	r.helpMu.RUnlock()
	if ok {
		return
	}
	r.helpMu.Lock()
	if _, ok := r.help[name]; !ok {
		r.help[name] = help
	}
	r.helpMu.Unlock()
}

// Reset drops every registered instrument (help strings are kept).
// Handles held by long-lived components keep updating their detached
// instruments harmlessly; the next lookup re-registers from zero.
// Tests use it to read counters from a clean slate.
func (r *Registry) Reset() {
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.Lock()
		s.entries = make(map[string]*entry)
		s.mu.Unlock()
	}
}

// snapshotEntries collects all entries sorted by family then label set.
func (r *Registry) snapshotEntries() []*entry {
	var all []*entry
	for i := range r.shards {
		s := &r.shards[i]
		s.mu.RLock()
		for _, e := range s.entries {
			all = append(all, e)
		}
		s.mu.RUnlock()
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].name != all[j].name {
			return all[i].name < all[j].name
		}
		return key("", all[i].labels) < key("", all[j].labels)
	})
	return all
}

// Families returns the distinct registered metric family names, sorted.
func (r *Registry) Families() []string {
	var out []string
	last := ""
	for _, e := range r.snapshotEntries() {
		if e.name != last {
			out = append(out, e.name)
			last = e.name
		}
	}
	return out
}

// ---- Prometheus text exposition ----

// WritePrometheus writes the registry contents in the Prometheus text
// exposition format (version 0.0.4).
func (r *Registry) WritePrometheus(w io.Writer) error {
	entries := r.snapshotEntries()
	last := ""
	for _, e := range entries {
		if e.name != last {
			last = e.name
			r.helpMu.RLock()
			help := r.help[e.name]
			r.helpMu.RUnlock()
			if help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", e.name, escapeHelp(help)); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", e.name, e.kind); err != nil {
				return err
			}
		}
		if err := writeEntry(w, e); err != nil {
			return err
		}
	}
	return nil
}

func writeEntry(w io.Writer, e *entry) error {
	switch e.kind {
	case kindCounter:
		_, err := fmt.Fprintf(w, "%s%s %s\n", e.name, formatLabels(e.labels, "", 0), formatValue(e.counter.Value()))
		return err
	case kindGauge:
		_, err := fmt.Fprintf(w, "%s%s %s\n", e.name, formatLabels(e.labels, "", 0), formatValue(e.gauge.Value()))
		return err
	default:
		h := e.hist
		counts := h.BucketCounts()
		var cum uint64
		for i, b := range h.bounds {
			cum += counts[i]
			if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, formatLabels(e.labels, "le", b), cum); err != nil {
				return err
			}
		}
		cum += counts[len(counts)-1]
		if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n", e.name, formatLabels(e.labels, "le", math.Inf(1)), cum); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s_sum%s %s\n", e.name, formatLabels(e.labels, "", 0), formatValue(h.Sum())); err != nil {
			return err
		}
		_, err := fmt.Fprintf(w, "%s_count%s %d\n", e.name, formatLabels(e.labels, "", 0), h.Count())
		return err
	}
}

// formatLabels renders {k="v",...}; leKey non-empty appends the
// histogram le label with the given bound.
func formatLabels(labels []Label, leKey string, le float64) string {
	if len(labels) == 0 && leKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteByte('"')
	}
	if leKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		b.WriteString(leKey)
		b.WriteString(`="`)
		if math.IsInf(le, 1) {
			b.WriteString("+Inf")
		} else {
			b.WriteString(formatValue(le))
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

func escapeLabel(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	s = strings.ReplaceAll(s, "\n", `\n`)
	return strings.ReplaceAll(s, `"`, `\"`)
}

func escapeHelp(s string) string {
	s = strings.ReplaceAll(s, `\`, `\\`)
	return strings.ReplaceAll(s, "\n", `\n`)
}

// ---- JSON snapshot ----

// MetricSnapshot is one instrument's state in a registry snapshot.
type MetricSnapshot struct {
	Name   string            `json:"name"`
	Kind   string            `json:"kind"`
	Labels map[string]string `json:"labels,omitempty"`
	// Value is set for counters and gauges.
	Value float64 `json:"value"`
	// Histogram-only fields.
	Count   uint64    `json:"count,omitempty"`
	Sum     float64   `json:"sum,omitempty"`
	Bounds  []float64 `json:"bounds,omitempty"`
	Buckets []uint64  `json:"buckets,omitempty"`
}

// Snapshot returns the state of every registered instrument, sorted by
// family then labels.
func (r *Registry) Snapshot() []MetricSnapshot {
	entries := r.snapshotEntries()
	out := make([]MetricSnapshot, 0, len(entries))
	for _, e := range entries {
		m := MetricSnapshot{Name: e.name, Kind: e.kind.String()}
		if len(e.labels) > 0 {
			m.Labels = make(map[string]string, len(e.labels))
			for _, l := range e.labels {
				m.Labels[l.Key] = l.Value
			}
		}
		switch e.kind {
		case kindCounter:
			m.Value = e.counter.Value()
		case kindGauge:
			m.Value = e.gauge.Value()
		default:
			m.Count = e.hist.Count()
			m.Sum = e.hist.Sum()
			m.Bounds = e.hist.Bounds()
			m.Buckets = e.hist.BucketCounts()
		}
		out = append(out, m)
	}
	return out
}

// WriteJSON writes the Snapshot as JSON.
func (r *Registry) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r.Snapshot())
}
