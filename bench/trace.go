package main

import (
	"errors"
	"sort"
	"sync"
	"time"

	"autodbaas/internal/core"
	"autodbaas/internal/metrics"
	"autodbaas/internal/shard"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
)

// span is one timed call at a layer boundary. Times are nanoseconds
// since the recorder's epoch. Parent is the span ID that caused it
// (0: none); Window is the measured window index (negative: set-up).
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent int    `json:"parent,omitempty"`
	Window int    `json:"window"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() int64 { return s.End - s.Start }

// setupWindow marks spans recorded outside the measured windows.
const setupWindow = -1

// recorder keeps spans in memory until the run ends. The harness is a
// single closed-loop client, so the span it currently has open is the
// parent of whatever the decorators record meanwhile. A nil recorder
// records nothing: the untraced pass carries no tracing code at all.
type recorder struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	current int // open harness span (0: none)
	window  int
}

func newRecorder() *recorder {
	return &recorder{epoch: time.Now(), window: setupWindow}
}

// setWindow stamps subsequent spans with a measured window index.
func (r *recorder) setWindow(w int) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.window = w
	r.mu.Unlock()
}

// begin opens a span under the harness's current span.
func (r *recorder) begin(name string) int {
	if r == nil {
		return 0
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{ID: id, Name: name, Parent: r.current, Window: r.window, Start: now})
	r.mu.Unlock()
	return id
}

func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := int64(time.Since(r.epoch))
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// scope times fn as a harness span: spans recorded while it runs (by
// the decorators, from any goroutine) become its children.
func (r *recorder) scope(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	id := r.begin(name)
	r.mu.Lock()
	prev := r.current
	r.current = id
	r.mu.Unlock()
	err := fn()
	r.end(id)
	r.mu.Lock()
	r.current = prev
	r.mu.Unlock()
	return err
}

// snapshot copies the recorded spans.
func (r *recorder) snapshot() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]span(nil), r.spans...)
}

// selfTimes returns, per span ID, the span's duration minus the part of
// its interval that its child spans cover. Children may overlap each
// other (two shards stepping at once) and are clipped to the parent.
func selfTimes(spans []span) map[int]int64 {
	children := make(map[int][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	out := make(map[int]int64, len(spans))
	for _, s := range spans {
		out[s.ID] = s.dur() - coveredBy(s, children[s.ID])
	}
	return out
}

// coveredBy is the length of the union of the children's intervals,
// clipped to the parent's.
func coveredBy(parent span, kids []span) int64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.Start, parent.Start), min(k.End, parent.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].lo < ivs[j].lo })
	var covered, reach int64
	for i, v := range ivs {
		if i == 0 || v.lo > reach {
			covered += v.hi - v.lo
			reach = v.hi
		} else if v.hi > reach {
			covered += v.hi - reach
			reach = v.hi
		}
	}
	return covered
}

// Span names the decorators and the harness record.
const (
	spanStep        = "fleet.Step"
	spanCreate      = "fleet.CreateDatabase"
	spanDelete      = "fleet.DeleteDatabase"
	spanResize      = "fleet.ResizeDatabase"
	spanCheckpoint  = "fleet.CheckpointNow"
	spanRestore     = "fleet.RestoreFrom"
	spanFingerprint = "fleet.Fingerprint"
	spanRecommend   = "tuner.Recommend"
	spanObserve     = "tuner.Observe"
	spanShardStep   = "shard.Step/" // + shard name
)

// timedTuner is the timing decorator over tuner.Tuner. It adds nothing
// but spans: Name, errors and results pass through, and Unwrap lets the
// checkpoint codec reach the concrete tuner, as the fault wrapper does.
type timedTuner struct {
	inner tuner.Tuner
	rec   *recorder

	mu         sync.Mutex
	notTrained int
}

func (t *timedTuner) Name() string        { return t.inner.Name() }
func (t *timedTuner) Unwrap() tuner.Tuner { return t.inner }

func (t *timedTuner) Observe(s tuner.Sample) error {
	id := t.rec.begin(spanObserve)
	err := t.inner.Observe(s)
	t.rec.end(id)
	return err
}

func (t *timedTuner) Recommend(req tuner.Request) (tuner.Recommendation, error) {
	id := t.rec.begin(spanRecommend)
	rec, err := t.inner.Recommend(req)
	t.rec.end(id)
	if errors.Is(err, tuner.ErrNotTrained) {
		t.mu.Lock()
		t.notTrained++
		t.mu.Unlock()
	}
	return rec, err
}

func (t *timedTuner) notTrainedCount() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.notTrained
}

// timedBaselineTuner keeps the tde.Baseline capability of the wrapped
// tuner: core picks the bgwriter baseline by asserting it on the tuner
// it was given, so dropping it would change what the fleet computes.
type timedBaselineTuner struct {
	*timedTuner
	baseline tde.Baseline
}

func (t *timedBaselineTuner) BgWriterBaseline(sample metrics.Snapshot) (float64, float64, bool) {
	return t.baseline.BgWriterBaseline(sample)
}

// wrapTuner decorates t, preserving tde.Baseline when t has it. The
// returned *timedTuner is the handle the ledger reads counts from.
func wrapTuner(t tuner.Tuner, rec *recorder) (tuner.Tuner, *timedTuner) {
	tt := &timedTuner{inner: t, rec: rec}
	if b, ok := t.(tde.Baseline); ok {
		return &timedBaselineTuner{timedTuner: tt, baseline: b}, tt
	}
	return tt, tt
}

// timedShard is the timing decorator over shard.Shard: Step is a span
// (child of the service step that fanned it out); every other method
// forwards untouched, so the coordinator's window-agreement check sees
// exactly what the wrapped shard reports.
type timedShard struct {
	inner shard.Shard
	rec   *recorder
}

func (s *timedShard) Name() string { return s.inner.Name() }

func (s *timedShard) Step(dur time.Duration) (shard.StepResult, error) {
	id := s.rec.begin(spanShardStep + s.inner.Name())
	res, err := s.inner.Step(dur)
	s.rec.end(id)
	return res, err
}

func (s *timedShard) AddInstance(spec shard.InstanceSpec) error { return s.inner.AddInstance(spec) }
func (s *timedShard) RemoveInstance(id string) error            { return s.inner.RemoveInstance(id) }
func (s *timedShard) ResizeInstance(id, plan string, seed int64, a shard.AgentConfig) error {
	return s.inner.ResizeInstance(id, plan, seed, a)
}
func (s *timedShard) Members() ([]core.Member, error)             { return s.inner.Members() }
func (s *timedShard) Counters() (shard.Counters, error)           { return s.inner.Counters() }
func (s *timedShard) Fingerprint() (shard.Fingerprint, error)     { return s.inner.Fingerprint() }
func (s *timedShard) Checkpoint() ([]byte, error)                 { return s.inner.Checkpoint() }
func (s *timedShard) Restore(snapshot []byte) error               { return s.inner.Restore(snapshot) }
func (s *timedShard) ImportInstance(e shard.InstanceExport) error { return s.inner.ImportInstance(e) }
func (s *timedShard) ExportInstance(id string) (shard.InstanceExport, error) {
	return s.inner.ExportInstance(id)
}
func (s *timedShard) Close() error { return s.inner.Close() }

var (
	_ shard.Shard  = (*timedShard)(nil)
	_ tuner.Tuner  = (*timedTuner)(nil)
	_ tde.Baseline = (*timedBaselineTuner)(nil)
)
