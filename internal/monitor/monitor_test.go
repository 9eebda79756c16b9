package monitor

import (
	"errors"
	"testing"
	"time"
)

var t0 = time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)

func at(sec int) time.Time { return t0.Add(time.Duration(sec) * time.Second) }

func TestAppendCountsAccepted(t *testing.T) {
	s := NewAgent(0).Series("disk_latency_ms")
	for i := 0; i < 10; i++ {
		if err := s.Append(at(i), float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 10 {
		t.Fatalf("Len = %d", s.Len())
	}
}

func TestAppendOutOfOrderRejected(t *testing.T) {
	s := NewAgent(0).Series("disk_latency_ms")
	if err := s.Append(at(5), 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(at(4), 2); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("err = %v", err)
	}
	// Equal timestamps are allowed.
	if err := s.Append(at(5), 3); err != nil {
		t.Fatal(err)
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want the 2 accepted samples", s.Len())
	}
}

func TestRetentionBound(t *testing.T) {
	a := NewAgent(5)
	for i := 0; i < 20; i++ {
		a.Series("disk_latency_ms").Append(at(i), float64(i))
	}
	if n := a.Series("disk_latency_ms").Len(); n != 5 {
		t.Fatalf("Len = %d, want 5", n)
	}
	if st := a.CheckpointState(); st.Count != 5 || !st.Last.Equal(at(19)) {
		t.Fatalf("state = %+v, want 5 samples, the last at %v", st, at(19))
	}
}

// TestLastEmpty: a fresh agent has no last sample, so any timestamp is
// in order.
func TestLastEmpty(t *testing.T) {
	a := NewAgent(0)
	if st := a.CheckpointState(); st.Count != 0 || !st.Last.IsZero() {
		t.Fatalf("fresh agent state = %+v", st)
	}
	if err := a.Series("iops").Append(time.Time{}, 1); err != nil {
		t.Fatal(err)
	}
}

func TestAgentSeriesIdentity(t *testing.T) {
	a := NewAgent(100)
	if a.Series("disk_latency_ms") != a.Series("iops") {
		t.Fatal("an agent's metrics do not share one series")
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	a := NewAgent(100)
	for i := 0; i < 7; i++ {
		a.Series("disk_latency_ms").Append(at(i), 1)
	}
	b := NewAgent(100)
	b.RestoreCheckpointState(a.CheckpointState())
	if b.CheckpointState() != a.CheckpointState() {
		t.Fatalf("restored %+v, want %+v", b.CheckpointState(), a.CheckpointState())
	}
	if err := b.Series("iops").Append(at(5), 1); !errors.Is(err, ErrOutOfOrder) {
		t.Fatalf("restored agent accepted a sample older than its last: %v", err)
	}
}
