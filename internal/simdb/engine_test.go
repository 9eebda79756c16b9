package simdb

import (
	"errors"
	"testing"
	"time"

	"autodbaas/internal/knobs"
	"autodbaas/internal/workload"
)

// m4Large mirrors the paper's m4.large evaluation instances.
func m4Large() Resources {
	return Resources{MemoryBytes: 8 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true}
}

func m4XLarge() Resources {
	return Resources{MemoryBytes: 16 * workload.GiB, VCPU: 4, DiskIOPS: 6000, DiskSSD: true}
}

func newPG(t *testing.T, res Resources, size float64) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Engine: knobs.Postgres, Resources: res, DBSizeBytes: size, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func newMy(t *testing.T, res Resources, size float64) *Engine {
	t.Helper()
	e, err := NewEngine(Options{Engine: knobs.MySQL, Resources: res, DBSizeBytes: size, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewEngineValidation(t *testing.T) {
	if _, err := NewEngine(Options{Engine: "oracle", Resources: m4Large(), DBSizeBytes: 1}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	if _, err := NewEngine(Options{Engine: knobs.Postgres, DBSizeBytes: 1}); err == nil {
		t.Fatal("zero resources accepted")
	}
	if _, err := NewEngine(Options{Engine: knobs.Postgres, Resources: m4Large()}); err == nil {
		t.Fatal("zero DB size accepted")
	}
	if _, err := NewEngine(Options{Engine: knobs.Postgres, Resources: m4Large(), DBSizeBytes: 1, Config: knobs.Config{"work_mem": -1}}); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestRunWindowAdvancesTimeAndProducesStats(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	before := e.Now()
	st, err := e.RunWindow(gen, 5*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if got := e.Now().Sub(before); got != 5*time.Minute {
		t.Fatalf("time advanced %v", got)
	}
	if st.Offered != 3300 {
		t.Fatalf("offered = %g", st.Offered)
	}
	if st.Achieved <= 0 || st.Achieved > st.Offered {
		t.Fatalf("achieved = %g", st.Achieved)
	}
	if st.AvgServiceMs <= 0 || st.P99Ms < st.AvgServiceMs {
		t.Fatalf("latency stats: avg=%g p99=%g", st.AvgServiceMs, st.P99Ms)
	}
	if st.DiskLatencyMs <= 0 || st.IOPS < 0 {
		t.Fatalf("disk stats: lat=%g iops=%g", st.DiskLatencyMs, st.IOPS)
	}
}

func TestSnapshotCountersGrow(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	s0 := e.Snapshot()
	for i := 0; i < 3; i++ {
		if _, err := e.RunWindow(gen, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	s1 := e.Snapshot()
	if !(s1["xact_commit"] > s0["xact_commit"]) {
		t.Fatalf("commits did not grow: %g → %g", s0["xact_commit"], s1["xact_commit"])
	}
	if !(s1["wal_bytes"] > 0) {
		t.Fatal("no WAL written by a write-heavy workload")
	}
	if s1["throughput_qps"] <= 0 {
		t.Fatal("throughput gauge not set")
	}
}

func TestMySQLSnapshotUsesNativeNames(t *testing.T) {
	e := newMy(t, m4Large(), 20*workload.GiB)
	gen := workload.NewYCSB(20*workload.GiB, 5000)
	if _, err := e.RunWindow(gen, time.Minute); err != nil {
		t.Fatal(err)
	}
	s := e.Snapshot()
	if s["com_commit"] <= 0 {
		t.Fatal("com_commit not populated")
	}
	if _, ok := s["xact_commit"]; ok {
		t.Fatal("postgres metric leaked into mysql snapshot")
	}
}

func TestSpillsWhenWorkMemTooSmall(t *testing.T) {
	e := newPG(t, m4XLarge(), 24*workload.GiB)
	gen := workload.NewTPCH(24*workload.GiB, 40) // 100s of MB work-mem demand
	st, err := e.RunWindow(gen, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillQueries == 0 || st.SpillBytes == 0 {
		t.Fatal("TPCH under 4MB work_mem must spill")
	}
	// Raising work_mem to 2 GiB removes (most) spills.
	cfg := knobs.Config{"work_mem": 2 * workload.GiB}
	if err := e.ApplyConfig(cfg, ApplyReload); err != nil {
		t.Fatal(err)
	}
	st2, err := e.RunWindow(gen, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st2.SpillBytes >= st.SpillBytes {
		t.Fatalf("spills did not shrink: %g → %g", st.SpillBytes, st2.SpillBytes)
	}
}

func TestTPCCDoesNotSpillWorkMem(t *testing.T) {
	// Paper Fig. 2: TPCC's ~0.5MB demand fits the 4MB default work_mem.
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	st, err := e.RunWindow(gen, time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if st.SpillQueries > st.Achieved*60*0.02 {
		t.Fatalf("TPCC spilled %g queries — work_mem model wrong", st.SpillQueries)
	}
}

func TestWriteHeavyTriggersRequestedCheckpoints(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	var req, timed int
	for i := 0; i < 60; i++ {
		st, err := e.RunWindow(gen, time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		req += st.CheckpointsReq
		timed += st.CheckpointsTimed
	}
	if req == 0 {
		t.Fatalf("write-heavy TPCC at default max_wal_size triggered no requested checkpoints (timed=%d)", timed)
	}
}

func TestLargerWALSpacingReducesCheckpoints(t *testing.T) {
	mk := func(walSize float64) int {
		e := newPG(t, m4Large(), 26*workload.GiB)
		if err := e.ApplyConfig(knobs.Config{"max_wal_size": walSize}, ApplyReload); err != nil {
			t.Fatal(err)
		}
		gen := workload.NewTPCC(26*workload.GiB, 3300)
		var n int
		for i := 0; i < 30; i++ {
			st, err := e.RunWindow(gen, time.Minute)
			if err != nil {
				t.Fatal(err)
			}
			n += st.CheckpointsReq + st.CheckpointsTimed
		}
		return n
	}
	small := mk(256 * 1024 * 1024)
	big := mk(16 * workload.GiB)
	if !(big < small) {
		t.Fatalf("checkpoints: wal=256MB → %d, wal=16GB → %d; want fewer with larger WAL", small, big)
	}
}

func TestTunedBgWriterLowersDiskLatency(t *testing.T) {
	run := func(cfg knobs.Config) float64 {
		e := newPG(t, m4Large(), 26*workload.GiB)
		if cfg != nil {
			if err := e.ApplyConfig(cfg, ApplyReload); err != nil {
				t.Fatal(err)
			}
		}
		gen := workload.NewTPCC(26*workload.GiB, 3300)
		var sum float64
		var n int
		for i := 0; i < 40; i++ {
			st, err := e.RunWindow(gen, 30*time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if i >= 10 { // skip warmup
				sum += st.DiskLatencyMs
				n++
			}
		}
		return sum / float64(n)
	}
	defLat := run(nil)
	tunedLat := run(knobs.Config{
		"max_wal_size":                 16 * workload.GiB,
		"checkpoint_timeout":           1_800_000,
		"checkpoint_completion_target": 0.9,
		"bgwriter_lru_maxpages":        800,
		"bgwriter_delay":               50,
	})
	if !(tunedLat < defLat) {
		t.Fatalf("tuned disk latency %.2fms not below default %.2fms (Fig. 5 shape)", tunedLat, defLat)
	}
}

func TestHitRatioImprovesWithBiggerBufferPool(t *testing.T) {
	e := newPG(t, m4Large(), 30*workload.GiB)
	gen := workload.NewTwitter(30*workload.GiB, 10000)
	for i := 0; i < 10; i++ {
		if _, err := e.RunWindow(gen, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	small := e.HitRatio()
	// Grow the buffer pool via restart (it is a restart knob).
	if err := e.ApplyConfig(knobs.Config{"shared_buffers": 6 * workload.GiB}, ApplyReload); err != nil {
		t.Fatal(err)
	}
	if e.Config()["shared_buffers"] != 128*1024*1024 {
		t.Fatal("restart knob applied without restart")
	}
	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}
	if e.Config()["shared_buffers"] != 6*workload.GiB {
		t.Fatal("staged restart knob not applied on restart")
	}
	for i := 0; i < 10; i++ {
		if _, err := e.RunWindow(gen, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	if big := e.HitRatio(); !(big > small) {
		t.Fatalf("hit ratio did not improve: %.3f → %.3f", small, big)
	}
}

func TestApplyOOMCrashes(t *testing.T) {
	e := newPG(t, Resources{MemoryBytes: 2 * workload.GiB, VCPU: 2, DiskIOPS: 3000, DiskSSD: true}, 10*workload.GiB)
	err := e.ApplyConfig(knobs.Config{"work_mem": 2 * workload.GiB, "maintenance_work_mem": 1 * workload.GiB}, ApplyReload)
	if !errors.Is(err, ErrCrashed) {
		t.Fatalf("err = %v, want ErrCrashed", err)
	}
	if !e.Down() {
		t.Fatal("engine should be down after OOM")
	}
	gen := workload.NewYCSB(workload.GiB, 100)
	if _, err := e.RunWindow(gen, time.Minute); !errors.Is(err, ErrDown) {
		t.Fatalf("RunWindow on crashed engine err = %v", err)
	}
	if err := e.Restart(); err != nil {
		t.Fatalf("restart after crash: %v", err)
	}
	if e.Down() {
		t.Fatal("restart did not clear down state")
	}
}

func TestReloadJitterSmallerThanSocketActivation(t *testing.T) {
	measure := func(method ApplyMethod) float64 {
		e := newMy(t, m4Large(), 20*workload.GiB)
		gen := workload.NewTPCC(20*workload.GiB, 3300)
		for i := 0; i < 5; i++ {
			if _, err := e.RunWindow(gen, 10*time.Second); err != nil {
				t.Fatal(err)
			}
		}
		if err := e.ApplyConfig(knobs.Config{"sort_buffer_size": 1024 * 1024}, method); err != nil {
			t.Fatal(err)
		}
		st, err := e.RunWindow(gen, 10*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		return st.AvgServiceMs
	}
	reload := measure(ApplyReload)
	socket := measure(ApplySocketActivation)
	if !(reload < socket) {
		t.Fatalf("reload latency %.3f not below socket-activation %.3f (Fig. 7 shape)", reload, socket)
	}
}

// TestQueryLogCapturesSQL: each executed statement is logged by its
// template ID and class.
func TestQueryLogCapturesSQL(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTPCC(26*workload.GiB, 3300)
	if _, err := e.RunWindow(gen, time.Minute); err != nil {
		t.Fatal(err)
	}
	log := e.QueryLog(50)
	if len(log) != 50 {
		t.Fatalf("log returned %d lines", len(log))
	}
	for _, l := range log {
		if l.TemplateID == "" {
			t.Fatalf("empty log entry %+v", l)
		}
	}
	if huge := e.QueryLog(1 << 20); len(huge) == 0 || len(huge) > 4096 {
		t.Fatalf("oversized request returned %d", len(huge))
	}
}

func TestRestartColdCache(t *testing.T) {
	e := newPG(t, m4Large(), 26*workload.GiB)
	gen := workload.NewTwitter(26*workload.GiB, 10000)
	for i := 0; i < 10; i++ {
		if _, err := e.RunWindow(gen, time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	warm := e.WorkingSetBytes()
	if err := e.Restart(); err != nil {
		t.Fatal(err)
	}
	if cold := e.WorkingSetBytes(); !(cold < warm) {
		t.Fatalf("restart did not reset working set: %.0f → %.0f", warm, cold)
	}
	if e.Restarts() != 1 {
		t.Fatalf("Restarts = %d", e.Restarts())
	}
}

func TestDownEngineTimePasses(t *testing.T) {
	e := newPG(t, m4Large(), workload.GiB)
	e.SetFaultHooks(&FaultHooks{WindowStart: func() WindowFault { return WindowFault{Crash: true} }})
	before := e.Now()
	_, err := e.RunWindow(workload.NewYCSB(workload.GiB, 10), time.Minute)
	if !errors.Is(err, ErrDown) {
		t.Fatalf("err = %v", err)
	}
	if e.Now().Sub(before) != time.Minute {
		t.Fatal("time frozen while down")
	}
}

// TestConfigVectorSharedPerConfig: ConfigVector hands out one vector per
// configuration: the same backing array until ApplyConfig, Restart,
// crash recovery or RestoreCheckpointState changes the config, then a
// new one with the new values. A vector handed out earlier keeps its
// values, so the samples that share it stay as they were uploaded.
func TestConfigVectorSharedPerConfig(t *testing.T) {
	e := newPG(t, m4Large(), 4*workload.GiB)
	gen := workload.NewTPCC(4*workload.GiB, 500)
	var fault WindowFault
	e.SetFaultHooks(&FaultHooks{WindowStart: func() WindowFault {
		wf := fault
		fault = WindowFault{}
		return wf
	}})
	if _, err := e.RunWindow(gen, time.Minute); err != nil {
		t.Fatal(err)
	}
	initial := e.CheckpointState()
	kc := e.KnobCatalog()
	workMem, _ := kc.Index("work_mem")
	sharedBuffers, _ := kc.Index("shared_buffers")

	type handed struct {
		v    knobs.Vector
		vals []float64
	}
	var earlier []handed
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step := func(name string, change func(), slot int, want float64) {
		t.Helper()
		before := e.ConfigVector()
		if again := e.ConfigVector(); &again.Vals[0] != &before.Vals[0] {
			t.Fatalf("before %s: an unchanged config gave a new vector", name)
		}
		earlier = append(earlier, handed{before, append([]float64(nil), before.Vals...)})
		change()
		after := e.ConfigVector()
		if &after.Vals[0] == &before.Vals[0] {
			t.Fatalf("%s: ConfigVector still returns the vector of the config before it", name)
		}
		if after.Vals[slot] != want {
			t.Fatalf("%s: vector holds %s = %g, want %g", name, kc.Names()[slot], after.Vals[slot], want)
		}
		for i, h := range earlier {
			for j, v := range h.v.Vals {
				if v != h.vals[j] {
					t.Fatalf("%s: vector %d handed out earlier changed at %s", name, i, kc.Names()[j])
				}
			}
		}
	}

	step("ApplyConfig", func() { must(e.ApplyConfig(knobs.Config{"work_mem": 64 << 20}, ApplyReload)) }, workMem, 64<<20)
	must(e.ApplyConfig(knobs.Config{"shared_buffers": 2 * workload.GiB}, ApplyReload)) // staged
	step("Restart", func() { must(e.Restart()) }, sharedBuffers, 2*workload.GiB)
	must(e.ApplyConfig(knobs.Config{"shared_buffers": 3 * workload.GiB}, ApplyReload)) // staged
	step("crash recovery", func() {
		fault = WindowFault{Crash: true}
		if _, err := e.RunWindow(gen, time.Minute); !errors.Is(err, ErrDown) {
			t.Fatalf("crashed window: err = %v, want ErrDown", err)
		}
		fault = WindowFault{Recover: true}
		if _, err := e.RunWindow(gen, time.Minute); err != nil {
			t.Fatalf("recovered window: %v", err)
		}
	}, sharedBuffers, 3*workload.GiB)
	step("RestoreCheckpointState", func() { must(e.RestoreCheckpointState(initial)) }, workMem, initial.Cfg["work_mem"])
}
