package obs

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// SpanData is one finished span. Start/End are the instants the caller
// passed — for the simulated fleet that is *virtual* time, so a span
// dump of a simulated day reads as a coherent timeline regardless of how
// fast the simulation actually ran. Wall-clock costs travel in Attrs.
type SpanData struct {
	ID        uint64            `json:"id"`
	ParentID  uint64            `json:"parent_id,omitempty"`
	Component string            `json:"component"`
	Name      string            `json:"name"`
	Start     time.Time         `json:"start"`
	End       time.Time         `json:"end"`
	Attrs     map[string]string `json:"attrs,omitempty"`
}

// Span is an in-flight span; call EndAt exactly once to record it into
// the tracer's per-component ring buffer.
type Span struct {
	tr   *Tracer
	data SpanData
	mu   sync.Mutex
	done bool
}

// SetAttr attaches a key/value attribute.
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.data.Attrs == nil {
		s.data.Attrs = make(map[string]string, 4)
	}
	s.data.Attrs[k] = v
	s.mu.Unlock()
}

// StartChildAt opens a child span at an explicit instant.
func (s *Span) StartChildAt(name string, at time.Time) *Span {
	if s == nil {
		return nil
	}
	c := s.tr.StartAt(s.data.Component, name, at)
	c.data.ParentID = s.data.ID
	return c
}

// EndAt closes the span at an explicit instant and records it.
func (s *Span) EndAt(at time.Time) {
	if s == nil {
		return
	}
	s.mu.Lock()
	if s.done {
		s.mu.Unlock()
		return
	}
	s.done = true
	s.data.End = at
	data := s.data
	s.mu.Unlock()
	s.tr.record(data)
}

// spanRing is a fixed-capacity ring of finished spans.
type spanRing struct {
	mu   sync.Mutex
	buf  []SpanData
	next int
	full bool
}

func (r *spanRing) add(d SpanData) {
	r.mu.Lock()
	if len(r.buf) < cap(r.buf) {
		r.buf = append(r.buf, d)
	} else {
		r.buf[r.next] = d
		r.next = (r.next + 1) % cap(r.buf)
		r.full = true
	}
	r.mu.Unlock()
}

func (r *spanRing) spans() []SpanData {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]SpanData, 0, len(r.buf))
	if r.full {
		out = append(out, r.buf[r.next:]...)
		out = append(out, r.buf[:r.next]...)
	} else {
		out = append(out, r.buf...)
	}
	return out
}

// Tracer records spans into per-component ring buffers. Callers pass
// every instant explicitly, because each simulated engine keeps its own
// virtual timeline.
type Tracer struct {
	ringCap int
	nextID  atomic.Uint64

	mu    sync.RWMutex
	rings map[string]*spanRing
}

// NewTracer returns a tracer with per-component rings of ringCap
// finished spans (<=0: 256).
func NewTracer(ringCap int) *Tracer {
	if ringCap <= 0 {
		ringCap = 256
	}
	return &Tracer{ringCap: ringCap, rings: make(map[string]*spanRing)}
}

// StartAt opens a span at an explicit instant.
func (t *Tracer) StartAt(component, name string, at time.Time) *Span {
	return &Span{tr: t, data: SpanData{
		ID:        t.nextID.Add(1),
		Component: component,
		Name:      name,
		Start:     at,
	}}
}

func (t *Tracer) record(d SpanData) {
	t.mu.RLock()
	r, ok := t.rings[d.Component]
	t.mu.RUnlock()
	if !ok {
		t.mu.Lock()
		if r, ok = t.rings[d.Component]; !ok {
			r = &spanRing{buf: make([]SpanData, 0, t.ringCap)}
			t.rings[d.Component] = r
		}
		t.mu.Unlock()
	}
	r.add(d)
}

// Components returns the component names with recorded spans, sorted.
func (t *Tracer) Components() []string {
	t.mu.RLock()
	out := make([]string, 0, len(t.rings))
	for c := range t.rings {
		out = append(out, c)
	}
	t.mu.RUnlock()
	sort.Strings(out)
	return out
}

// Spans returns the finished spans for one component, ordered by start
// instant (ties broken by span ID, i.e. creation order).
func (t *Tracer) Spans(component string) []SpanData {
	t.mu.RLock()
	r, ok := t.rings[component]
	t.mu.RUnlock()
	if !ok {
		return nil
	}
	out := r.spans()
	sort.SliceStable(out, func(i, j int) bool {
		if !out[i].Start.Equal(out[j].Start) {
			return out[i].Start.Before(out[j].Start)
		}
		return out[i].ID < out[j].ID
	})
	return out
}

// WriteJSON writes all spans grouped by component; component filters to
// one component when non-empty.
func (t *Tracer) WriteJSON(w io.Writer, component string) error {
	groups := make(map[string][]SpanData)
	if component != "" {
		groups[component] = t.Spans(component)
	} else {
		for _, c := range t.Components() {
			groups[c] = t.Spans(c)
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(groups)
}
