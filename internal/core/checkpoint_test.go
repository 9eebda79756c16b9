package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/checkpoint"
	"autodbaas/internal/cluster"
	"autodbaas/internal/faults"
	"autodbaas/internal/knobs"
	"autodbaas/internal/monitor"
	"autodbaas/internal/prng"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/tuner/bo"
	"autodbaas/internal/tuner/rl"
	"autodbaas/internal/workload"
)

// ckptFingerprint is the deep fleet fingerprint the resume guarantee is
// stated over: everything fleetFingerprint covers, plus each monitor's
// state (its last sample's timestamp, not just its count), each TDE's
// class histogram and the per-class TDE throttle counters.
type ckptFingerprint struct {
	Throttles       map[string]map[knobs.Class]int
	Samples         int
	TuningRequests  int
	Recommendations int
	ApplyFailures   int
	PlanUpgrades    int
	Monitor         map[string]monitor.State
	Classes         map[string][sqlparse.NumClasses]int
	Configs         map[string]knobs.Config
	Clocks          map[string]time.Time
}

// fingerprintSystem derives the fingerprint from system state alone (no
// step-result accumulation), so interrupted and uninterrupted runs are
// compared on equal terms.
func fingerprintSystem(s *System) ckptFingerprint {
	fp := ckptFingerprint{
		Throttles: make(map[string]map[knobs.Class]int),
		Samples:   s.Repository.Len(),
		Monitor:   make(map[string]monitor.State),
		Classes:   make(map[string][sqlparse.NumClasses]int),
		Configs:   make(map[string]knobs.Config),
		Clocks:    make(map[string]time.Time),
	}
	fp.TuningRequests, fp.Recommendations, fp.ApplyFailures, fp.PlanUpgrades = s.Director.Counters()
	for _, a := range s.Agents() {
		id := a.Instance().ID
		fp.Throttles[id] = a.TDE().Throttles()
		fp.Classes[id] = a.TDE().CheckpointState().Classes
		fp.Configs[id] = a.Instance().Replica.Master().Config()
		fp.Clocks[id] = a.Instance().Replica.Master().Now()
		if m, ok := s.Monitor(id); ok {
			fp.Monitor[id] = m.CheckpointState()
		}
	}
	return fp
}

// buildCkptFleet constructs the mixed 6-instance checkpoint fleet with
// a BO + RL tuner pair. Identical arguments produce identical systems —
// the rebuild-then-restore contract's "same construction parameters".
func buildCkptFleet(t *testing.T, parallelism int, in *faults.Injector) *System {
	t.Helper()
	return buildCkptFleetOf(t, parallelism, in, 6)
}

// buildCkptFleetOf is buildCkptFleet with n instances; every odd one
// carries a replica.
func buildCkptFleetOf(t *testing.T, parallelism int, in *faults.Injector, n int) *System {
	t.Helper()
	tb, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rl.New(rl.Options{Engine: knobs.Postgres, Hidden: 16, ReplayCap: 256, BatchSize: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemWithOptions(Options{Parallelism: parallelism, Faults: in}, tb, tr)
	if err != nil {
		t.Fatal(err)
	}
	gens := []func() workload.Generator{
		func() workload.Generator { return workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8) },
		func() workload.Generator { return workload.NewProduction() },
		func() workload.Generator { return workload.NewYCSB(10*cluster.GiB, 2000) },
	}
	plans := []string{"m4.large", "t2.large", "m4.xlarge"}
	for i := 0; i < n; i++ {
		gen := gens[i%len(gens)]()
		if _, err := s.AddInstance(InstanceSpec{
			Provision: cluster.ProvisionSpec{
				ID: fmt.Sprintf("db-%02d", i), Plan: plans[i%len(plans)],
				Engine: knobs.Postgres, DBSizeBytes: gen.DBSizeBytes(),
				Slaves: i % 2, Seed: 100 + int64(i),
			},
			Workload: gen,
			Agent:    agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
		}); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// stepN advances n five-minute windows.
func stepN(s *System, n int) {
	for i := 0; i < n; i++ {
		s.Step(5 * time.Minute)
	}
}

// TestCheckpointResumeEquivalence is the subsystem's hard guarantee:
// run-to-N and run-to-K/snapshot/restore-into-fresh-process/continue-
// to-N produce bit-for-bit identical fleet fingerprints, at parallelism
// 1, 4, 8 and 16, clean and under the medium fault profile.
func TestCheckpointResumeEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("checkpoint equivalence sweep")
	}
	const total, cut = 24, 11 // windows; cut deliberately not a step multiple of anything
	for _, par := range []int{1, 4, 8, 16} {
		for _, chaos := range []bool{false, true} {
			name := fmt.Sprintf("par=%d,chaos=%v", par, chaos)
			t.Run(name, func(t *testing.T) {
				inject := func() *faults.Injector {
					if !chaos {
						return nil
					}
					return faults.New(99, faults.Medium())
				}

				// Uninterrupted reference run.
				ref := buildCkptFleet(t, par, inject())
				stepN(ref, total)
				want := fingerprintSystem(ref)
				if want.Samples == 0 || want.TuningRequests == 0 {
					t.Fatalf("degenerate reference run: %+v", want)
				}

				// Interrupted run: step to cut, snapshot, abandon.
				first := buildCkptFleet(t, par, inject())
				stepN(first, cut)
				var snap bytes.Buffer
				if err := first.Checkpoint(&snap); err != nil {
					t.Fatalf("checkpoint: %v", err)
				}

				// Fresh process: rebuild, restore, continue.
				resumed := buildCkptFleet(t, par, inject())
				if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
					t.Fatalf("restore: %v", err)
				}
				if got := resumed.Windows(); got != cut {
					t.Fatalf("restored window counter = %d, want %d", got, cut)
				}
				stepN(resumed, total-cut)
				got := fingerprintSystem(resumed)
				if !reflect.DeepEqual(want, got) {
					t.Errorf("resumed run diverged from uninterrupted run\n  want: %+v\n  got:  %+v", want, got)
				}
			})
		}
	}
}

// TestCheckpointCrashResumeSoak is the crown-jewel scenario: a
// 20-instance fleet under the medium fault profile snapshots every 6
// windows; the process "dies" at a fault-injector-chosen window and a
// fresh process restores the last snapshot and replays to the horizon.
// The fingerprint must match the uninterrupted run's.
func TestCheckpointCrashResumeSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("20-instance crash-resume soak")
	}
	const faultSeed = 4242
	const totalWindows = 48 // 8 simulated hours at 10-minute windows
	const every = 6

	// The kill point is drawn from the fault seed itself — the injector
	// chooses when the process dies, somewhere in the middle third.
	killSrc := prng.NewSource(faultSeed)
	kill := totalWindows/3 + int(killSrc.Uint64()%uint64(totalWindows/3))

	// Uninterrupted reference.
	ref := soakFleet(t, faults.New(faultSeed, faults.Medium()))
	for i := 0; i < totalWindows; i++ {
		ref.Step(10 * time.Minute)
	}
	want := fingerprintSystem(ref)

	// Doomed run, snapshotting every `every` windows and killed
	// mid-flight; only its last snapshot survives.
	doomed := soakFleet(t, faults.New(faultSeed, faults.Medium()))
	var last bytes.Buffer
	lastWindow := -1
	for w := 1; w <= kill; w++ {
		doomed.Step(10 * time.Minute)
		if w%every == 0 {
			last.Reset()
			if err := doomed.Checkpoint(&last); err != nil {
				t.Fatalf("checkpoint at window %d: %v", w, err)
			}
			lastWindow = w
		}
	}
	if lastWindow != (kill/every)*every {
		t.Fatalf("last snapshot at window %d, want %d", lastWindow, (kill/every)*every)
	}

	resumed := soakFleet(t, faults.New(faultSeed, faults.Medium()))
	if err := resumed.Restore(&last); err != nil {
		t.Fatalf("restore the window-%d snapshot: %v", lastWindow, err)
	}
	if got := resumed.Windows(); got != lastWindow {
		t.Fatalf("resumed at window %d, want %d", got, lastWindow)
	}
	for i := lastWindow; i < totalWindows; i++ {
		resumed.Step(10 * time.Minute)
	}
	got := fingerprintSystem(resumed)
	if !reflect.DeepEqual(want, got) {
		t.Errorf("crash-resumed soak diverged from uninterrupted run (killed at %d, resumed from %d)", kill, lastWindow)
	}
}

// snapshotForCorruption produces one small valid snapshot plus the
// builder for fresh systems to restore into.
func snapshotForCorruption(t *testing.T) ([]byte, func() *System) {
	t.Helper()
	build := func() *System { return buildCkptFleet(t, 2, nil) }
	s := build()
	stepN(s, 6)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), build
}

// frame locates every section frame in a container: header is 6 bytes,
// then [u16 nameLen][name][u64 len][payload][u32 crc] repeating.
type frame struct {
	name          string
	payloadOffset int
	payloadLen    int
}

func walkFrames(t *testing.T, data []byte) []frame {
	t.Helper()
	var out []frame
	off := 6
	for off < len(data) {
		nameLen := int(binary.LittleEndian.Uint16(data[off:]))
		name := string(data[off+2 : off+2+nameLen])
		plOff := off + 2 + nameLen + 8
		plLen := int(binary.LittleEndian.Uint64(data[off+2+nameLen:]))
		out = append(out, frame{name: name, payloadOffset: plOff, payloadLen: plLen})
		off = plOff + plLen + 4
	}
	return out
}

// TestRestoreRejectsTruncatedSnapshot: cutting the file anywhere must
// fail with a section-named truncation error, never restore silently.
func TestRestoreRejectsTruncatedSnapshot(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep builds fleets")
	}
	data, build := snapshotForCorruption(t)
	for _, cut := range []int{len(data) - 7, len(data) / 2, 40, 3} {
		s := build()
		err := s.Restore(bytes.NewReader(data[:cut]))
		if err == nil {
			t.Fatalf("truncation at %d restored successfully", cut)
		}
		if !errors.Is(err, checkpoint.ErrTruncated) && !errors.Is(err, checkpoint.ErrBadMagic) &&
			!errors.Is(err, checkpoint.ErrChecksum) && !errors.Is(err, checkpoint.ErrManifest) {
			t.Errorf("truncation at %d: unexpected error class: %v", cut, err)
		}
	}
}

// TestRestoreRejectsFlippedByte flips one payload byte in every section
// and asserts each restore fails with an error naming that section.
func TestRestoreRejectsFlippedByte(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep builds fleets")
	}
	data, build := snapshotForCorruption(t)
	frames := walkFrames(t, data)
	if len(frames) < 8 {
		t.Fatalf("expected a manifest plus 7+ sections, got %d frames", len(frames))
	}
	for _, fr := range frames {
		if fr.payloadLen == 0 {
			continue
		}
		corrupt := append([]byte(nil), data...)
		corrupt[fr.payloadOffset+fr.payloadLen/2] ^= 0x40
		s := build()
		err := s.Restore(bytes.NewReader(corrupt))
		if err == nil {
			t.Fatalf("flipped byte in section %q restored successfully", fr.name)
		}
		if !errors.Is(err, checkpoint.ErrChecksum) && !errors.Is(err, checkpoint.ErrManifest) {
			t.Errorf("section %q: want checksum/manifest error, got: %v", fr.name, err)
		}
		if !strings.Contains(err.Error(), fr.name) && fr.name != "manifest" {
			t.Errorf("section %q: error does not name the section: %v", fr.name, err)
		}
	}
}

// TestRestoreRejectsVersionSkew bumps the header version and asserts
// the reader refuses with ErrVersion.
func TestRestoreRejectsVersionSkew(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep builds fleets")
	}
	data, build := snapshotForCorruption(t)
	skewed := append([]byte(nil), data...)
	binary.LittleEndian.PutUint16(skewed[4:6], checkpoint.FormatVersion+1)
	s := build()
	if err := s.Restore(bytes.NewReader(skewed)); !errors.Is(err, checkpoint.ErrVersion) {
		t.Errorf("want ErrVersion, got: %v", err)
	}
	// Bad magic is its own precise failure.
	garbled := append([]byte(nil), data...)
	garbled[0] = 'X'
	s2 := build()
	if err := s2.Restore(bytes.NewReader(garbled)); !errors.Is(err, checkpoint.ErrBadMagic) {
		t.Errorf("want ErrBadMagic, got: %v", err)
	}
}

// TestRestoreRejectsTopologyMismatch: a snapshot must not restore into
// a system built with different construction parameters.
func TestRestoreRejectsTopologyMismatch(t *testing.T) {
	if testing.Short() {
		t.Skip("corruption sweep builds fleets")
	}
	data, _ := snapshotForCorruption(t)
	// Same tuners, one fewer instance.
	tb, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rl.New(rl.Options{Engine: knobs.Postgres, Hidden: 16, ReplayCap: 256, BatchSize: 8, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewSystemWithOptions(Options{Parallelism: 2}, tb, tr)
	if err != nil {
		t.Fatal(err)
	}
	gen := workload.NewProduction()
	if _, err := s.AddInstance(InstanceSpec{
		Provision: cluster.ProvisionSpec{ID: "db-00", Plan: "m4.large", Engine: knobs.Postgres, DBSizeBytes: gen.DBSizeBytes(), Seed: 100},
		Workload:  gen,
		Agent:     agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
	}); err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(data)); !errors.Is(err, checkpoint.ErrManifest) {
		t.Errorf("want ErrManifest for topology mismatch, got: %v", err)
	}
}

// TestTopologyMismatchNamesInstances: with dynamic cohorts a bare size
// mismatch is useless to an operator — the error must name which
// instance IDs differ between the snapshot and the rebuilt system.
func TestTopologyMismatchNamesInstances(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	build := func(ids ...string) *System {
		t.Helper()
		tb, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		s, err := NewSystem(tb)
		if err != nil {
			t.Fatal(err)
		}
		for i, id := range ids {
			gen := workload.NewProduction()
			if _, err := s.AddInstance(InstanceSpec{
				Provision: cluster.ProvisionSpec{ID: id, Plan: "m4.large", Engine: knobs.Postgres, DBSizeBytes: gen.DBSizeBytes(), Seed: 100 + int64(i)},
				Workload:  gen,
				Agent:     agent.Options{TickEvery: 5 * time.Minute, GateSamples: true},
			}); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	var buf bytes.Buffer
	if err := build("db-a", "db-b").Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	cases := []struct {
		name string
		sys  *System
		want []string
	}{
		{"snapshot member absent", build("db-a"), []string{"db-b", "which the system lacks"}},
		{"system member unknown to snapshot", build("db-a", "db-b", "db-c"), []string{"db-c", "which the snapshot lacks"}},
		{"disjoint drift names both sides", build("db-a", "db-x"), []string{"db-b", "db-x"}},
		{"same cohort, different onboarding order", build("db-b", "db-a"), []string{"different order"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.sys.Restore(bytes.NewReader(snap))
			if !errors.Is(err, checkpoint.ErrManifest) {
				t.Fatalf("want ErrManifest, got: %v", err)
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not mention %q", err, want)
				}
			}
		})
	}
}

// restage re-encodes a snapshot section by section through
// checkpoint.NewContainer, so every section keeps a valid CRC. edit sees
// each section's name and payload and returns the payload to keep, or
// false to drop the section.
func restage(t *testing.T, data []byte, edit func(name string, payload []byte) ([]byte, bool)) []byte {
	t.Helper()
	man, sections, err := checkpoint.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	var secs []checkpoint.RawSection
	for _, meta := range man.Sections {
		if p, keep := edit(meta.Name, sections[meta.Name]); keep {
			secs = append(secs, checkpoint.RawSection{Name: meta.Name, Payload: p})
		}
	}
	c, err := checkpoint.NewContainer(man, secs)
	if err != nil {
		t.Fatal(err)
	}
	return c.Bytes()
}

// TestRestoreRejectsMissingSectionBeforeMutating: a snapshot that lacks
// the last instance's section must be refused before anything is
// applied — the repository store, which restores first, stays empty.
func TestRestoreRejectsMissingSectionBeforeMutating(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	data, build := snapshotForCorruption(t)
	man, _, err := checkpoint.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	missing := "instance/" + man.Instances[len(man.Instances)-1].ID
	restaged := restage(t, data, func(name string, p []byte) ([]byte, bool) { return p, name != missing })

	s := build()
	err = s.Restore(bytes.NewReader(restaged))
	if !errors.Is(err, checkpoint.ErrManifest) || !strings.Contains(err.Error(), missing) {
		t.Fatalf("want ErrManifest naming %q, got: %v", missing, err)
	}
	if n := s.Repository.Len(); n != 0 {
		t.Errorf("rejected restore loaded %d repository samples", n)
	}
}

// TestRestoreRejectsCorruptInstancesInSerialOrder: when several
// sections fail to decode, the error names the one a serial restore
// would have hit first, however the concurrent jobs finish. The earlier
// payload fails only after decoding half a million counters, at its
// trailing byte; the later one at its first, so the later job fails
// first in time.
func TestRestoreRejectsCorruptInstancesInSerialOrder(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	data, build := snapshotForCorruption(t)
	const first, second = "instance/db-02", "instance/db-04"
	restaged := restage(t, data, func(name string, p []byte) ([]byte, bool) {
		switch name {
		case first:
			slow := editInstance(t, p, func(st *checkpoint.InstanceState) {
				for i := 0; i < 500_000; i++ {
					st.Nodes[0].Counters[fmt.Sprint("pad_", i)] = 1
				}
			})
			return append(slow, 0), true
		case second:
			return []byte("}"), true
		}
		return p, true
	})
	for i := 0; i < 4; i++ {
		err := build().Restore(bytes.NewReader(restaged))
		if err == nil || !strings.Contains(err.Error(), first) {
			t.Fatalf("attempt %d: want an error naming %q, got: %v", i, first, err)
		}
	}
}

// TestSnapshotDeterminismAcrossGOMAXPROCS: the codec encodes and
// restores on GOMAXPROCS workers, and its bytes must not depend on
// that count. A 12-instance fleet with replicas, stepped under the
// medium fault profile, snapshots to one container at 1 and 4 procs;
// restoring it at either setting gives the same fingerprint and
// re-encodes to the same bytes.
func TestSnapshotDeterminismAcrossGOMAXPROCS(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	build := func() *System { return buildCkptFleetOf(t, 2, faults.New(99, faults.Medium()), 12) }
	snapshotAt := func(s *System, procs int) []byte {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		c, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return c.Bytes()
	}

	s := build()
	stepN(s, 8)
	want := fingerprintSystem(s)
	snaps := [][]byte{snapshotAt(s, 1), snapshotAt(s, 4)}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Fatal("snapshot at GOMAXPROCS=4 differs from GOMAXPROCS=1")
	}
	for i, data := range snaps {
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			r := build()
			if err := r.Restore(bytes.NewReader(data)); err != nil {
				t.Fatalf("snapshot %d restored at GOMAXPROCS=%d: %v", i, procs, err)
			}
			if got := fingerprintSystem(r); !reflect.DeepEqual(want, got) {
				t.Errorf("snapshot %d restored at GOMAXPROCS=%d: fingerprint diverged", i, procs)
			}
			if !bytes.Equal(snapshotAt(r, procs), snaps[0]) {
				t.Errorf("snapshot %d restored at GOMAXPROCS=%d re-encodes to different bytes", i, procs)
			}
		}
	}
}

// TestCheckpointIdempotence: checkpoint → restore → checkpoint gives a
// byte-identical container, and the restored fleet and the one that
// wrote it snapshot identically again after stepping on. The fleet has
// 12 instances, every odd one with a replica, under the medium fault
// profile.
func TestCheckpointIdempotence(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	build := func() *System { return buildCkptFleetOf(t, 2, faults.New(99, faults.Medium()), 12) }
	snapshot := func(s *System) []byte {
		t.Helper()
		c, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		return c.Bytes()
	}
	live := build()
	stepN(live, 8)
	first := snapshot(live)
	restored := build()
	if err := restored.Restore(bytes.NewReader(first)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snapshot(restored), first) {
		t.Fatal("a restored fleet checkpoints to different bytes")
	}
	stepN(live, 4)
	stepN(restored, 4)
	if !bytes.Equal(snapshot(restored), snapshot(live)) {
		t.Fatal("after 4 more windows the restored fleet checkpoints to different bytes than the live one")
	}
}
