package core

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"strings"
	"testing"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/tuner"
)

// storeDominated steps a two-instance fleet and then fills its
// repository store with copies of the samples the fleet uploaded, one
// workload per copy, until the store is most of a snapshot.
func storeDominated(t *testing.T, copies int) *System {
	t.Helper()
	s := buildCkptFleetOf(t, 2, nil, 2)
	stepN(s, 12)
	var uploaded []tuner.Sample
	s.Repository.Store().Range(func(sm *tuner.Sample) { uploaded = append(uploaded, *sm) })
	if len(uploaded) == 0 {
		t.Fatal("the fleet uploaded no samples")
	}
	for c := 0; c < copies; c++ {
		for _, sm := range uploaded {
			sm.WorkloadID = fmt.Sprintf("copy-%04d/%s", c, sm.WorkloadID)
			s.Repository.Store().Add(sm)
		}
	}
	return s
}

// TestSnapshotStreamsTheStore: writing a snapshot whose repository store
// is most of its bytes allocates a small fraction of its length: the
// store section encodes from the store as it is written, so no copy of
// it is ever whole in memory.
func TestSnapshotStreamsTheStore(t *testing.T) {
	s := storeDominated(t, 2000)
	_, sections, err := checkpoint.Parse(containerBytes(t, mustSnapshot(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, p := range sections {
		total += len(p)
	}
	if share := float64(len(sections["repository/store"])) / float64(total); share < 0.8 {
		t.Fatalf("the store is %.2f of the snapshot's section bytes, want at least 0.8", share)
	}
	var least uint64
	var size int64
	for i := 0; i < 3; i++ {
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		c := mustSnapshot(t, s)
		if _, err := c.WriteTo(io.Discard); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&m1)
		if n := m1.TotalAlloc - m0.TotalAlloc; i == 0 || n < least {
			least = n
		}
		size = c.Len()
	}
	ratio := float64(least) / float64(size)
	t.Logf("a %d-byte snapshot allocated %.3f× its length", size, ratio)
	if ratio > 0.25 {
		t.Fatalf("writing a %d-byte snapshot allocated %.2f× its length, want at most 0.25×", size, ratio)
	}
}

// TestSnapshotWriteFailsWhenTheStoreGrew: a sample added between
// staging a snapshot and writing it fails the write with an error
// naming the store section, rather than writing a wrong file.
func TestSnapshotWriteFailsWhenTheStoreGrew(t *testing.T) {
	s := storeDominated(t, 1)
	c := mustSnapshot(t, s)
	var first tuner.Sample
	s.Repository.Store().Range(func(sm *tuner.Sample) {
		if first.WorkloadID == "" {
			first = *sm
		}
	})
	s.Repository.Store().Add(first)
	_, err := c.WriteTo(io.Discard)
	if err == nil || !strings.Contains(err.Error(), `"repository/store"`) {
		t.Fatalf("writing a snapshot of a store that grew after staging: err = %v, want one naming repository/store", err)
	}
}

// TestSnapshotSectionsMatchTheirEncoders: every section a snapshot
// streams or stages holds, byte for byte, what the section's own
// encoder gives for the same state — Repository.Save for the store,
// EncodeInstance (through ExportInstanceSection) for each instance —
// the payloads a snapshot staged whole before the store streamed.
func TestSnapshotSectionsMatchTheirEncoders(t *testing.T) {
	s := storeDominated(t, 40)
	_, sections, err := checkpoint.Parse(containerBytes(t, mustSnapshot(t, s)))
	if err != nil {
		t.Fatal(err)
	}
	store, err := s.Repository.Save()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(sections["repository/store"], store) {
		t.Errorf("the streamed store section (%d bytes) differs from Save's (%d bytes)", len(sections["repository/store"]), len(store))
	}
	for _, m := range s.Members() {
		raw, _, err := s.ExportInstanceSection(m.ID)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(sections["instance/"+m.ID], raw) {
			t.Errorf("section instance/%s differs from EncodeInstance's bytes", m.ID)
		}
	}
}

func mustSnapshot(t *testing.T, s *System) *checkpoint.Container {
	t.Helper()
	c, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	return c
}
