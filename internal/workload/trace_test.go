package workload

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"
)

func TestTraceRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	gen := NewAdulteratedTPCC(21*GiB, 3000, 0.5)
	rng := rand.New(rand.NewSource(1))
	if err := RecordTrace(&buf, gen, rng, 500); err != nil {
		t.Fatal(err)
	}
	tr, err := LoadTrace(&buf, "replay", 21*GiB, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Len() != 500 {
		t.Fatalf("trace len = %d", tr.Len())
	}
	if tr.Name() != "replay" || tr.DBSizeBytes() != 21*GiB || tr.RequestRate(time.Now()) != 3000 {
		t.Fatal("trace identity wrong")
	}
	// Replay preserves the profile distribution: some heavy queries.
	rng2 := rand.New(rand.NewSource(2))
	var heavy int
	for i := 0; i < 500; i++ {
		q := tr.Sample(rng2)
		if q.Text() == "" {
			t.Fatal("empty replayed SQL")
		}
		if q.Profile.MemDemand > 50*MiB {
			heavy++
		}
	}
	if heavy == 0 {
		t.Fatal("replay lost the heavy queries")
	}
}

func TestLoadTraceValidation(t *testing.T) {
	if _, err := LoadTrace(strings.NewReader(""), "x", GiB, 10); err == nil {
		t.Fatal("empty trace accepted")
	}
	if _, err := LoadTrace(strings.NewReader("{}"), "x", 0, 10); err == nil {
		t.Fatal("zero dbSize accepted")
	}
	if _, err := LoadTrace(strings.NewReader("not json"), "x", GiB, 10); err == nil {
		t.Fatal("garbage trace accepted")
	}
}

func TestTraceClassesReclassified(t *testing.T) {
	// Classes are re-derived from SQL on load, so a hand-edited trace
	// stays consistent with the TDE's log pipeline.
	line := `{"sql":"SELECT COUNT(*) FROM t GROUP BY k","read_mb":1}` + "\n"
	tr, err := LoadTrace(strings.NewReader(line), "x", GiB, 10)
	if err != nil {
		t.Fatal(err)
	}
	q := tr.Sample(rand.New(rand.NewSource(1)))
	if q.Class.String() != "aggregate" {
		t.Fatalf("class = %v", q.Class)
	}
}
