package obs

import (
	"bytes"
	"encoding/json"
	"sync"
	"testing"
	"time"
)

// t0 is the virtual instant the tracer tests start their timelines at.
var t0 = time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)

// TestSpanParentChildVirtualTime records spans at explicit virtual
// instants and asserts parent/child linkage and ordering on start.
func TestSpanParentChildVirtualTime(t *testing.T) {
	tr := NewTracer(16)

	root := tr.StartAt("director", "recommend", t0)
	child := root.StartChildAt("gpr-fit", t0.Add(2*time.Minute))
	child.EndAt(t0.Add(5 * time.Minute))
	root.EndAt(t0.Add(6 * time.Minute))

	spans := tr.Spans("director")
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Ordering is by virtual start: root (t0) before child (t0+2m),
	// even though the child *ended* first.
	if spans[0].Name != "recommend" || spans[1].Name != "gpr-fit" {
		t.Fatalf("span order = [%s, %s], want [recommend, gpr-fit]", spans[0].Name, spans[1].Name)
	}
	if spans[1].ParentID != spans[0].ID {
		t.Errorf("child ParentID = %d, want %d", spans[1].ParentID, spans[0].ID)
	}
	if got := spans[0].End.Sub(spans[0].Start); got != 6*time.Minute {
		t.Errorf("root virtual duration = %v, want 6m", got)
	}
	if got := spans[1].End.Sub(spans[1].Start); got != 3*time.Minute {
		t.Errorf("child virtual duration = %v, want 3m", got)
	}
	if !spans[1].Start.Equal(spans[0].Start.Add(2 * time.Minute)) {
		t.Errorf("child start %v not 2m after root start %v", spans[1].Start, spans[0].Start)
	}
}

func TestTracerExplicitInstants(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.StartAt("agent", "tde-tick", t0)
	sp.SetAttr("instance", "db-001")
	sp.EndAt(t0.Add(5 * time.Minute))
	spans := tr.Spans("agent")
	if len(spans) != 1 {
		t.Fatalf("got %d spans, want 1", len(spans))
	}
	if spans[0].Attrs["instance"] != "db-001" {
		t.Errorf("attr lost: %+v", spans[0].Attrs)
	}
	if d := spans[0].End.Sub(spans[0].Start); d != 5*time.Minute {
		t.Errorf("duration = %v", d)
	}
}

func TestTracerRingEviction(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 10; i++ {
		sp := tr.StartAt("c", "s", t0.Add(time.Duration(i)*time.Second))
		sp.EndAt(t0.Add(time.Duration(i)*time.Second + time.Millisecond))
	}
	spans := tr.Spans("c")
	if len(spans) != 4 {
		t.Fatalf("ring holds %d spans, want 4", len(spans))
	}
	// Oldest surviving span is i=6.
	if !spans[0].Start.Equal(t0.Add(6 * time.Second)) {
		t.Errorf("oldest span start = %v, want t0+6s", spans[0].Start)
	}
}

func TestTracerConcurrent(t *testing.T) {
	tr := NewTracer(64)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				sp := tr.StartAt("comp", "op", t0)
				sp.SetAttr("g", "x")
				sp.EndAt(t0)
			}
		}(g)
	}
	wg.Wait()
	if got := len(tr.Spans("comp")); got != 64 {
		t.Fatalf("ring holds %d, want 64", got)
	}
}

func TestTracerWriteJSON(t *testing.T) {
	tr := NewTracer(8)
	sp := tr.StartAt("dfa", "apply", t0)
	sp.EndAt(t0)
	var b bytes.Buffer
	if err := tr.WriteJSON(&b, ""); err != nil {
		t.Fatal(err)
	}
	var out map[string][]SpanData
	if err := json.Unmarshal(b.Bytes(), &out); err != nil {
		t.Fatalf("span JSON does not parse: %v", err)
	}
	if len(out["dfa"]) != 1 {
		t.Fatalf("span dump = %+v", out)
	}
	// A second EndAt must not duplicate the span.
	sp.EndAt(t0)
	if got := len(tr.Spans("dfa")); got != 1 {
		t.Fatalf("double EndAt recorded %d spans", got)
	}
}
