package shard

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/knobs"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner/bo"
)

// testConfig is the shard config the suite reuses; tuner defaults
// (postgres, 60 candidates) keep windows fast.
func testConfig(name string, seed int64) Config {
	return Config{Name: name, Seed: seed, Parallelism: 2}
}

// testSpec builds the i-th deterministic instance spec. Classes and
// plans cycle so cohorts mix workloads, like the core determinism
// suite's fleet.
func testSpec(i int) InstanceSpec {
	classes := []tenant.WorkloadSpec{
		{Class: "adulterated-tpcc", SizeGiB: 21, Rate: 3000, Mix: 0.8},
		{Class: "production"},
		{Class: "ycsb", SizeGiB: 10, Rate: 2000},
	}
	plans := []string{"m4.large", "t2.large", "m4.xlarge"}
	return InstanceSpec{
		ID:       fmt.Sprintf("db-%02d", i),
		Plan:     plans[i%len(plans)],
		Engine:   "postgres",
		Slaves:   i % 2,
		Seed:     100 + int64(i),
		Workload: classes[i%len(classes)],
		Agent:    AgentConfig{TickEveryMin: 5, GateSamples: true},
	}
}

func stepN(t *testing.T, sh Shard, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := sh.Step(5 * time.Minute); err != nil {
			t.Fatalf("step %d: %v", i, err)
		}
	}
}

func TestLocalShardLifecycle(t *testing.T) {
	l, err := NewLocal(testConfig("s0", 42))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := l.AddInstance(testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.AddInstance(testSpec(0)); err == nil {
		t.Fatal("duplicate instance accepted")
	}
	if err := l.AddInstance(InstanceSpec{ID: "bad", Engine: "oracle", Workload: tenant.WorkloadSpec{Class: "tpcc"}}); err == nil {
		t.Fatal("unknown engine accepted")
	}
	stepN(t, l, 6)
	c, err := l.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if c.Windows != 6 || c.Instances != 3 || c.Generation != 3 {
		t.Fatalf("degenerate counters: %+v", c)
	}
	members, err := l.Members()
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 3 || members[0].ID != "db-00" {
		t.Fatalf("members = %+v", members)
	}
	if err := l.ResizeInstance("db-01", "m4.xlarge", 777, AgentConfig{TickEveryMin: 5, GateSamples: true}); err != nil {
		t.Fatal(err)
	}
	if got := l.Specs()[1]; got.Plan != "m4.xlarge" || got.Seed != 777 {
		t.Fatalf("resize did not update the spec: %+v", got)
	}
	if err := l.RemoveInstance("db-00"); err != nil {
		t.Fatal(err)
	}
	if err := l.RemoveInstance("db-00"); err == nil {
		t.Fatal("double remove accepted")
	}
	if got := len(l.Specs()); got != 2 {
		t.Fatalf("specs after remove = %d, want 2", got)
	}
	stepN(t, l, 2)
}

// TestLocalSnapshotRestoreReplay is the shard-scope determinism
// contract: snapshot at window k, restore into a fresh shard built
// from the same Config (the cohort rebuilds from the snapshot's specs
// section alone), replay to window n, and the fingerprint matches the
// uninterrupted run bit-for-bit.
func TestLocalSnapshotRestoreReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("shard replay sweep")
	}
	cfg := testConfig("s0", 42)
	cfg.FaultProfile = "medium"
	cfg.FaultSeed = 99

	run := func() *Local {
		l, err := NewLocal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			if err := l.AddInstance(testSpec(i)); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}

	full := run()
	stepN(t, full, 12)
	want, err := full.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	interrupted := run()
	stepN(t, interrupted, 6)
	snap, err := interrupted.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	// The restored shard starts EMPTY — no specs are re-declared; the
	// snapshot itself carries the cohort.
	resumed, err := NewLocal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if got := len(resumed.Specs()); got != 4 {
		t.Fatalf("restored cohort = %d specs, want 4", got)
	}
	stepN(t, resumed, 6)
	got, err := resumed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("restore+replay diverged from uninterrupted run:\n  want: %+v\n  got:  %+v", want, got)
	}
}

// TestLocalRestoreRejectsForeignSnapshot: a container without the
// shard specs section is not a shard snapshot and must fail with
// ErrManifest before any state mutates.
func TestLocalRestoreRejectsForeignSnapshot(t *testing.T) {
	foreign, err := checkpoint.NewContainer(checkpoint.Manifest{}, []checkpoint.RawSection{
		{Name: "coordinator", Payload: []byte(`{}`)},
	})
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLocal(testConfig("s0", 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Restore(mustBytes(t, foreign)); !errors.Is(err, checkpoint.ErrManifest) {
		t.Fatalf("err = %v, want ErrManifest", err)
	}
	// Bit rot inside the snapshot is caught by the container CRC.
	good, err := NewLocal(testConfig("s1", 2))
	if err != nil {
		t.Fatal(err)
	}
	if err := good.AddInstance(testSpec(0)); err != nil {
		t.Fatal(err)
	}
	snap, err := good.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	snap[len(snap)/2] ^= 0x10
	if err := good.Restore(snap); err == nil {
		t.Fatal("corrupted snapshot accepted")
	}
}

// TestLocalExportImportMovesLiveState: the migration round trip. The
// migrated instance's engine config and monitor series survive the
// move byte-for-byte, and the destination can keep stepping it.
func TestLocalExportImportMovesLiveState(t *testing.T) {
	src, err := NewLocal(testConfig("a", 42))
	if err != nil {
		t.Fatal(err)
	}
	dst, err := NewLocal(testConfig("b", 43))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := src.AddInstance(testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	stepN(t, src, 5)

	fpBefore, err := src.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	exp, err := src.ExportInstance("db-01")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Spec.ID != "db-01" || len(exp.Section) == 0 {
		t.Fatalf("export = %+v", exp)
	}
	if _, err := src.ExportInstance("nope"); err == nil {
		t.Fatal("export of unknown instance accepted")
	}
	if err := dst.ImportInstance(exp); err != nil {
		t.Fatal(err)
	}
	if err := src.RemoveInstance("db-01"); err != nil {
		t.Fatal(err)
	}
	fpAfter, err := dst.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fpBefore.Configs["db-01"], fpAfter.Configs["db-01"]) {
		t.Errorf("config changed in flight:\n  before: %+v\n  after:  %+v", fpBefore.Configs["db-01"], fpAfter.Configs["db-01"])
	}
	if fpBefore.MonitorPoints["db-01"] != fpAfter.MonitorPoints["db-01"] {
		t.Errorf("monitor series changed in flight: %d -> %d", fpBefore.MonitorPoints["db-01"], fpAfter.MonitorPoints["db-01"])
	}
	stepN(t, dst, 2)

	// A tampered section must fail the import AND roll the provisioned
	// member back out of the destination.
	exp2, err := dst.ExportInstance("db-01")
	if err != nil {
		t.Fatal(err)
	}
	exp2.Meta.Plan = "t2.small" // lie about the topology pin
	third, err := NewLocal(testConfig("c", 44))
	if err != nil {
		t.Fatal(err)
	}
	if err := third.ImportInstance(exp2); !errors.Is(err, checkpoint.ErrManifest) {
		t.Fatalf("tampered import: err = %v, want ErrManifest", err)
	}
	if members, _ := third.Members(); len(members) != 0 {
		t.Fatalf("failed import left %d members behind", len(members))
	}
}

// TestLocalFailedRestoreKeepsTunersBound: a NewLocalWith shard shares
// its tuners with the system a restore rebuilds, and the rebuild binds
// them to its own repository's store. When the restore then fails, the
// live shard must keep running exactly as a twin that never tried it —
// its tuners reading the live repository's samples, not the discarded
// rebuild's.
func TestLocalFailedRestoreKeepsTunersBound(t *testing.T) {
	build := func() *Local {
		tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		l, err := NewLocalWith(testConfig("s0", 42), nil, tn)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 3; i++ {
			if err := l.AddInstance(testSpec(i)); err != nil {
				t.Fatal(err)
			}
		}
		return l
	}
	twin, tried := build(), build()
	stepN(t, twin, 9)
	want, err := twin.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	stepN(t, tried, 6)
	snap, err := tried.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	man, sections, err := checkpoint.Parse(snap)
	if err != nil {
		t.Fatal(err)
	}
	var kept []checkpoint.RawSection
	for _, sm := range man.Sections {
		if sm.Name != "director" {
			kept = append(kept, checkpoint.RawSection{Name: sm.Name, Payload: sections[sm.Name]})
		}
	}
	broken, err := checkpoint.NewContainer(man, kept)
	if err != nil {
		t.Fatal(err)
	}
	if err := tried.Restore(mustBytes(t, broken)); !errors.Is(err, checkpoint.ErrManifest) {
		t.Fatalf("restore without the director section: err = %v, want ErrManifest", err)
	}
	stepN(t, tried, 3)
	got, err := tried.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("failed restore changed the live shard:\n  want: %+v\n  got:  %+v", want, got)
	}
}

// mustBytes writes a staged container into one slice.
func mustBytes(t testing.TB, c *checkpoint.Container) []byte {
	t.Helper()
	b, err := c.Bytes()
	if err != nil {
		t.Fatal(err)
	}
	return b
}
