package repository

import (
	"bytes"
	"fmt"
	"io"
	"runtime"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/metrics"
	"autodbaas/internal/tuner"
)

// agentShapedSamples returns n samples in the order a fleet of 80
// Postgres databases uploads them, each database taking its turn every
// window. As an agent's are, each sample's metric vector is its own,
// while its workload ID and its config vector are shared with the
// database's other samples until the config changes, every 12th upload.
func agentShapedSamples(t testing.TB, n int) []tuner.Sample {
	t.Helper()
	const dbs, applyEvery = 80, 12
	kc, mc := knobs.PostgresCatalog(), metrics.PostgresCatalog()
	at := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
	ids := make([]string, dbs)
	cfgs := make([]knobs.Vector, dbs)
	for i := range ids {
		ids[i] = fmt.Sprintf("db-%02d/tpcc", i)
	}
	before, after := metrics.Snapshot{}, metrics.Snapshot{}
	out := make([]tuner.Sample, n)
	for i := range out {
		db, upload := i%dbs, i/dbs
		if upload%applyEvery == 0 {
			cfg := kc.DefaultConfig()
			cfg["work_mem"] = float64((upload/applyEvery + 1) << 20)
			v, err := kc.FromConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			cfgs[db] = v
		}
		for j, name := range mc.Names() {
			after[name] = before[name] + float64(i*7+j)
		}
		out[i] = tuner.Sample{
			WorkloadID: ids[db], Engine: knobs.Postgres, Config: cfgs[db], Metrics: mc.Delta(before, after),
			Objective: float64(i), Quality: i%3 == 0, Window: 5 * time.Minute, At: at.Add(time.Duration(upload) * 5 * time.Minute),
		}
	}
	return out
}

// TestStoreSectionAllocations: the store section is planned from the
// store and then encoded from it as it is written, through a small
// buffer, so staging and writing it allocates a sliver of its length:
// no copy of the samples, and no copy of the section.
func TestStoreSectionAllocations(t *testing.T) {
	r := New()
	for _, s := range agentShapedSamples(t, 10_000) {
		r.Store().Add(s)
	}
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	sec, err := r.StageStore()
	if err != nil {
		t.Fatal(err)
	}
	n, err := sec.WriteTo(io.Discard)
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	if n != sec.Len() {
		t.Fatalf("wrote %d bytes of a %d-byte section", n, sec.Len())
	}
	ratio := float64(m1.TotalAlloc-m0.TotalAlloc) / float64(n)
	t.Logf("a %d-byte section allocated %.3f× its length", n, ratio)
	if ratio > 0.05 {
		t.Fatalf("staging and writing a %d-byte store section allocated %.3f× its length, want at most 0.05×", n, ratio)
	}
}

// TestLoadQuietAllocatesWhatItKeeps: a restore decodes the section in
// place into chunks the store then keeps, so it allocates little more
// than the heap the restored store holds: no copy of the section, no
// intermediate slice of samples, and no chunk that growth discards.
func TestLoadQuietAllocatesWhatItKeeps(t *testing.T) {
	const n = 10_000
	src := New()
	for _, s := range agentShapedSamples(t, n) {
		src.Store().Add(s)
	}
	section := saved(t, src)
	src = nil
	var m0, m1, m2 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	restored := New()
	if _, err := restored.LoadQuiet(section); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	runtime.GC()
	runtime.ReadMemStats(&m2)
	runtime.KeepAlive(section)
	if restored.Len() != n {
		t.Fatalf("restored %d samples, want %d", restored.Len(), n)
	}
	allocated := float64(m1.TotalAlloc - m0.TotalAlloc)
	kept := float64(m2.HeapAlloc) - float64(m0.HeapAlloc)
	runtime.KeepAlive(restored)
	t.Logf("loading %d samples allocated %.0f B and kept %.0f B (%.2f×)", n, allocated, kept, allocated/kept)
	if !(allocated <= 1.25*kept) {
		t.Fatalf("loading %d samples allocated %.0f B for the %.0f B the store keeps (%.2f×), want at most 1.25×", n, allocated, kept, allocated/kept)
	}
}

// TestRestoredStoreHeapMatchesLive: a store restored from its section
// holds what the live store held: a config that repeats within a
// workload decodes into one shared vector, as the live samples shared
// it, rather than into a copy per sample.
func TestRestoredStoreHeapMatchesLive(t *testing.T) {
	const n = 10_000
	var m0, m1, m2, m3 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	live := New()
	for _, s := range agentShapedSamples(t, n) {
		live.Store().Add(s)
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	section, err := live.Save()
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m2)
	restored := New()
	if _, err := restored.LoadQuiet(section); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&m3)
	runtime.KeepAlive(section)
	if restored.Len() != n {
		t.Fatalf("restored %d samples, want %d", restored.Len(), n)
	}
	if got, err := restored.Save(); err != nil || !bytes.Equal(got, section) {
		t.Fatalf("the restored store re-encodes to different bytes (err %v)", err)
	}
	livePer := (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / n
	restoredPer := (float64(m3.HeapAlloc) - float64(m2.HeapAlloc)) / n
	runtime.KeepAlive(live)
	runtime.KeepAlive(restored)
	t.Logf("heap per sample: live %.0f B, restored %.0f B", livePer, restoredPer)
	if !(restoredPer <= 1.1*livePer) {
		t.Fatalf("a restored sample keeps %.0f B of heap, a live one %.0f B: want within 1.1×", restoredPer, livePer)
	}
}
