package shard

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"os/exec"
	"reflect"
	"sort"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"autodbaas/internal/checkpoint"
)

// shardConfigs is the fixed 3-shard map the determinism suite runs —
// the same value drives the in-process and the multi-process fleet, as
// the contract is parameterized by (seed, topology, shard map).
func shardConfigs(faultProfile string) []Config {
	cfgs := make([]Config, 3)
	for i := range cfgs {
		cfgs[i] = Config{
			Name:        fmt.Sprintf("s%d", i),
			Seed:        1000 + int64(i),
			Parallelism: 2,
		}
		if faultProfile != "" {
			cfgs[i].FaultProfile = faultProfile
			cfgs[i].FaultSeed = 99 + int64(i)
		}
	}
	return cfgs
}

// newLocalCoordinator builds the in-process fleet: one Local per config.
func newLocalCoordinator(t *testing.T, cfgs []Config) *Coordinator {
	t.Helper()
	shards := make([]Shard, 0, len(cfgs))
	for _, cfg := range cfgs {
		l, err := NewLocal(cfg)
		if err != nil {
			t.Fatal(err)
		}
		shards = append(shards, l)
	}
	c, err := NewCoordinator(shards...)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// populate onboards n instances round-robin across the shard map — the
// placement is part of the topology the determinism contract fixes, so
// both fleets place identically and every shard holds a cohort.
func populate(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	names := c.ShardNames()
	for i := 0; i < n; i++ {
		if err := c.AddInstanceTo(names[i%len(names)], testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlaceRendezvous pins the default placement: deterministic in
// (id, shard map), covering every shard over a reasonable cohort, and
// minimally disruptive — dropping one shard relocates only the
// instances that lived on it.
func TestPlaceRendezvous(t *testing.T) {
	cfgs := shardConfigs("")
	c := newLocalCoordinator(t, cfgs)
	used := make(map[string]int)
	first := make(map[string]string)
	for i := 0; i < 60; i++ {
		id := fmt.Sprintf("tenant-%d/db-%02d", i%7, i)
		name := c.Place(id)
		used[name]++
		first[id] = name
	}
	if len(used) != 3 {
		t.Fatalf("60 placements covered %d of 3 shards: %v", len(used), used)
	}
	for id, want := range first {
		if got := c.Place(id); got != want {
			t.Fatalf("placement of %s not deterministic: %s then %s", id, want, got)
		}
	}
	smaller := newLocalCoordinator(t, cfgs[:2])
	for id, before := range first {
		after := smaller.Place(id)
		if before != "s2" && after != before {
			t.Errorf("dropping s2 moved %s from %s to %s; rendezvous must only move s2 residents", id, before, after)
		}
	}
}

func fleetStepN(t *testing.T, c *Coordinator, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := c.Step(5 * time.Minute); err != nil {
			t.Fatalf("fleet step %d: %v", i, err)
		}
	}
}

// TestShardWorkerHelper is not a test: it is the worker process the
// multi-process suite re-execs this binary into. It prints its listen
// address and serves shard RPCs until killed.
func TestShardWorkerHelper(t *testing.T) {
	if os.Getenv("SHARD_WORKER_HELPER") != "1" {
		t.Skip("worker-process helper; spawned by the multi-process tests")
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		fmt.Printf("WORKER_ERR %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("WORKER_ADDR %s\n", l.Addr().String())
	_ = NewServer().Serve(l)
}

// spawnWorker re-execs the test binary as one worker process and
// returns its RPC address plus a kill switch.
func spawnWorker(t *testing.T) (string, func()) {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^TestShardWorkerHelper$")
	cmd.Env = append(os.Environ(), "SHARD_WORKER_HELPER=1")
	cmd.Stderr = io.Discard
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	var addr string
	sc := bufio.NewScanner(stdout)
	for sc.Scan() {
		if a, ok := strings.CutPrefix(sc.Text(), "WORKER_ADDR "); ok {
			addr = a
			break
		}
	}
	if addr == "" {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatal("worker process reported no address")
	}
	var once bool
	kill := func() {
		if once {
			return
		}
		once = true
		cmd.Process.Kill()
		cmd.Wait()
	}
	t.Cleanup(kill)
	return addr, kill
}

// newRemoteCoordinator spawns one worker process per config and builds
// the multi-process fleet over them. It returns per-shard kill
// switches keyed by shard name for the crash-recovery test.
func newRemoteCoordinator(t *testing.T, cfgs []Config) (*Coordinator, map[string]func()) {
	t.Helper()
	kills := make(map[string]func(), len(cfgs))
	shards := make([]Shard, 0, len(cfgs))
	for _, cfg := range cfgs {
		addr, kill := spawnWorker(t)
		r, err := Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Init(cfg); err != nil {
			t.Fatal(err)
		}
		shards = append(shards, r)
		kills[cfg.Name] = kill
	}
	c, err := NewCoordinator(shards...)
	if err != nil {
		t.Fatal(err)
	}
	return c, kills
}

// TestCrossProcessDeterminism: a fixed (seed, topology, shard map)
// produces bit-for-bit the same fleet fingerprint whether the shards run
// in-process or as three worker processes — clean and under medium
// fault injection — and, for the multi-process fleet, across killing
// one worker mid-run and restoring the fleet snapshot into a coordinator
// over the survivors plus a fresh worker.
func TestCrossProcessDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process determinism sweep")
	}
	for _, profile := range []string{"", "medium"} {
		name := "clean"
		if profile != "" {
			name = "faults-" + profile
		}
		t.Run(name, func(t *testing.T) {
			cfgs := shardConfigs(profile)
			const fleetSize, windows = 6, 24

			inproc := newLocalCoordinator(t, cfgs)
			populate(t, inproc, fleetSize)
			fleetStepN(t, inproc, windows)
			want, err := inproc.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if want.Throttles == 0 {
				t.Fatalf("degenerate baseline: %+v", want.Shards)
			}
			shardsUsed := 0
			for _, fp := range want.Shards {
				if fp.Counters.Instances > 0 {
					shardsUsed++
				}
			}
			if shardsUsed < 2 {
				t.Fatalf("placement degenerate: only %d shard(s) hold instances", shardsUsed)
			}

			first, kills := newRemoteCoordinator(t, cfgs)
			populate(t, first, fleetSize)

			// First leg, then the fleet snapshot; the windows after it
			// are lost with the worker.
			fleetStepN(t, first, 4)
			var snap bytes.Buffer
			if err := first.Checkpoint(&snap); err != nil {
				t.Fatal(err)
			}
			fleetStepN(t, first, 4)

			// Kill the middle worker mid-run and restore the snapshot
			// into a coordinator over the survivors and a fresh process.
			kills["s1"]()
			dead, _ := first.Shard("s1")
			dead.Close()
			addr, _ := spawnWorker(t)
			fresh, err := Dial("tcp", addr)
			if err != nil {
				t.Fatal(err)
			}
			if err := fresh.Init(cfgs[1]); err != nil {
				t.Fatal(err)
			}
			s0, _ := first.Shard("s0")
			s2, _ := first.Shard("s2")
			remote, err := NewCoordinator(s0, fresh, s2)
			if err != nil {
				t.Fatal(err)
			}
			defer remote.Close()
			_, sections, err := checkpoint.Inspect(&snap)
			if err != nil {
				t.Fatal(err)
			}
			if err := remote.RestoreSections(sections); err != nil {
				t.Fatal(err)
			}
			fleetStepN(t, remote, windows-4)

			got, err := remote.Fingerprint()
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("3-worker fleet diverged from in-process fleet:\n  want: %+v\n  got:  %+v", want, got)
			}
		})
	}
}

// TestSnapshotBytesReproducible: a fleet snapshot is a pure function of
// (config, seed, window). Fleets built from scratch with the same seeds
// and stepped the same windows write byte-identical snapshots, flat (one
// shard) and over 3 local shards, clean and under medium faults, and
// whatever their step parallelism.
func TestSnapshotBytesReproducible(t *testing.T) {
	if testing.Short() {
		t.Skip("snapshot reproducibility sweep")
	}
	for _, profile := range []string{"", "medium"} {
		for _, shards := range []int{1, 3} {
			t.Run(fmt.Sprintf("faults=%q/shards=%d", profile, shards), func(t *testing.T) {
				var want []byte
				for _, par := range []int{1, 1, 4, 4} {
					cfgs := shardConfigs(profile)[:shards]
					for i := range cfgs {
						cfgs[i].Parallelism = par
					}
					c := newLocalCoordinator(t, cfgs)
					populate(t, c, 12)
					fleetStepN(t, c, 24)
					var snap bytes.Buffer
					if err := c.Checkpoint(&snap); err != nil {
						t.Fatal(err)
					}
					c.Close()
					if want == nil {
						want = snap.Bytes()
					} else if !bytes.Equal(want, snap.Bytes()) {
						t.Fatalf("P=%d: snapshot differs from the first build's in %s", par, differingSection(t, want, snap.Bytes()))
					}
				}
			})
		}
	}
}

// differingSection names the first section, by name, whose bytes differ
// between two snapshot containers, descending into nested containers.
func differingSection(t *testing.T, a, b []byte) string {
	t.Helper()
	_, as, err := checkpoint.Parse(a)
	if err != nil {
		t.Fatal(err)
	}
	_, bs, err := checkpoint.Parse(b)
	if err != nil {
		t.Fatal(err)
	}
	names := make([]string, 0, len(as))
	for name := range as {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if bytes.Equal(as[name], bs[name]) {
			continue
		}
		if _, _, err := checkpoint.Parse(as[name]); err == nil {
			return name + " > " + differingSection(t, as[name], bs[name])
		}
		return name
	}
	return "the manifest"
}

// TestCoordinatorCheckpointRestore: a fleet snapshot (outer container
// nesting per-shard snapshots) restores into a freshly built fleet
// with the same shard map, and replaying reproduces the uninterrupted
// fingerprint.
func TestCoordinatorCheckpointRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet snapshot sweep")
	}
	cfgs := shardConfigs("")
	full := newLocalCoordinator(t, cfgs)
	populate(t, full, 6)
	fleetStepN(t, full, 10)
	want, err := full.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	half := newLocalCoordinator(t, cfgs)
	populate(t, half, 6)
	fleetStepN(t, half, 5)
	var snap bytes.Buffer
	if err := half.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}

	// Restore into a coordinator whose shards were never populated —
	// the snapshot carries every cohort.
	resumed := newLocalCoordinator(t, cfgs)
	if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	if resumed.Window() != 5 {
		t.Fatalf("resumed window = %d, want 5", resumed.Window())
	}
	if got := resumed.Instances(); len(got) != 6 {
		t.Fatalf("resumed cohort = %v", got)
	}
	fleetStepN(t, resumed, 5)
	got, err := resumed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("fleet restore+replay diverged:\n  want: %+v\n  got:  %+v", want, got)
	}
}

// TestRemoteCheckpointRestore drives fleet snapshots over two worker
// processes, where every shard container crosses the seam as a blob
// frame: a snapshot restored into fresh workers re-checkpoints to the
// same bytes and replays to the uninterrupted fleet's fingerprint; a
// corrupt container comes back as an envelope error on a connection
// that keeps serving; a "restore" whose blob arrives as the wrong frame
// type costs the connection.
func TestRemoteCheckpointRestore(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process snapshot sweep")
	}
	cfgs := shardConfigs("")[:2]
	const fleetSize, half, windows = 6, 5, 10
	full, _ := newRemoteCoordinator(t, cfgs)
	defer full.Close()
	populate(t, full, fleetSize)
	fleetStepN(t, full, half)
	var snap bytes.Buffer
	if err := full.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	fleetStepN(t, full, windows-half)
	want, err := full.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	resumed, _ := newRemoteCoordinator(t, cfgs)
	defer resumed.Close()
	if err := resumed.Restore(bytes.NewReader(snap.Bytes())); err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := resumed.Checkpoint(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap.Bytes(), again.Bytes()) {
		t.Fatalf("restored fleet re-checkpoints to different bytes (%d vs %d)", snap.Len(), again.Len())
	}
	fleetStepN(t, resumed, windows-half)
	got, err := resumed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Errorf("remote restore+replay diverged:\n  want: %+v\n  got:  %+v", want, got)
	}

	sh, _ := resumed.Shard("s0")
	r := sh.(*Remote)
	before, err := r.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	good, err := r.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), good...)
	bad[len(bad)/2] ^= 0x40
	if err := r.Restore(bad); err == nil || !strings.HasPrefix(err.Error(), "shard worker: ") {
		t.Fatalf("corrupt container: err = %v, want an error from the worker's envelope", err)
	}
	after, err := r.Fingerprint()
	if err != nil {
		t.Fatalf("connection unusable after a refused restore: %v", err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Errorf("refused restore changed the shard:\n  before: %+v\n  after:  %+v", before, after)
	}

	r.conn = blobAsRequestConn{r.conn}
	if err := r.Restore(good); err == nil || !strings.Contains(err.Error(), "restore") {
		t.Fatalf("restore with a non-blob frame: err = %v, want a connection error naming restore", err)
	}
}

// blobAsRequestConn retypes every outgoing blob frame as a request
// frame: the frame still verifies, but it is not the blob the worker
// waits for. WriteFrame writes each header in one Write call.
type blobAsRequestConn struct{ net.Conn }

func (c blobAsRequestConn) Write(p []byte) (int, error) {
	if len(p) == frameHeaderLen && bytes.Equal(p[:4], wireMagic[:]) && p[5] == FrameBlob {
		p = append([]byte(nil), p...)
		p[5] = FrameRequest
	}
	return c.Conn.Write(p)
}

// failingShard refuses every Checkpoint and Restore after its delay
// and counts the restores it was asked for. Any other Shard method
// panics.
type failingShard struct {
	Shard
	name     string
	delay    time.Duration
	restores atomic.Int32
}

func (f *failingShard) Name() string { return f.name }

func (f *failingShard) Checkpoint() ([]byte, error) {
	time.Sleep(f.delay)
	return nil, fmt.Errorf("%s refuses to checkpoint", f.name)
}

func (f *failingShard) Restore([]byte) error {
	f.restores.Add(1)
	time.Sleep(f.delay)
	return fmt.Errorf("%s refuses to restore", f.name)
}

// TestFanOutNamesFirstFailingShard: shards snapshot and restore
// concurrently, yet when both fail the error names the earlier shard
// in the map — here the slower one, so it also fails last in time. A
// snapshot missing a shard section fails before any shard restores.
func TestFanOutNamesFirstFailingShard(t *testing.T) {
	a := &failingShard{name: "a", delay: 20 * time.Millisecond}
	b := &failingShard{name: "b"}
	c, err := NewCoordinator(a, b)
	if err != nil {
		t.Fatal(err)
	}
	ctl, err := json.Marshal(coordinatorState{Shards: []string{"a", "b"}})
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string][]byte{coordinatorSection: ctl, "shard/a": {}}
	if err := c.RestoreSections(sections); !errors.Is(err, checkpoint.ErrManifest) || !strings.Contains(err.Error(), `"shard/b"`) {
		t.Fatalf("missing section: err = %v, want ErrManifest naming shard/b", err)
	}
	if n := a.restores.Load() + b.restores.Load(); n != 0 {
		t.Fatalf("%d shard restore(s) ran before the missing section was noticed", n)
	}
	sections["shard/b"] = []byte{}

	for op, err := range map[string]error{
		"checkpoint": c.Checkpoint(io.Discard),
		"restore":    c.RestoreSections(sections),
	} {
		if err == nil || !strings.HasPrefix(err.Error(), `shard "a": `+op+": ") {
			t.Errorf("%s: err = %v, want it to name shard \"a\"", op, err)
		}
	}
}

// TestCoordinatorRestoreStaleShardMap: restoring a fleet snapshot into
// a coordinator missing one of the snapshot's shards must fail with a
// manifest error naming the missing shard AND the instances stranded
// on it — and must not panic or mutate the surviving shards.
func TestCoordinatorRestoreStaleShardMap(t *testing.T) {
	cfgs := shardConfigs("")
	full := newLocalCoordinator(t, cfgs)
	populate(t, full, 6)
	fleetStepN(t, full, 2)
	var snap bytes.Buffer
	if err := full.Checkpoint(&snap); err != nil {
		t.Fatal(err)
	}
	// Which instances live on the shard we are about to drop?
	var stranded []string
	for _, id := range full.Instances() {
		if name, _ := full.Assignment(id); name == "s2" {
			stranded = append(stranded, id)
		}
	}
	if len(stranded) == 0 {
		t.Fatal("placement left s2 empty; test needs a populated shard to strand")
	}

	stale := newLocalCoordinator(t, cfgs[:2])
	err := stale.Restore(bytes.NewReader(snap.Bytes()))
	if !errors.Is(err, checkpoint.ErrManifest) {
		t.Fatalf("err = %v, want ErrManifest", err)
	}
	for _, id := range stranded {
		if !strings.Contains(err.Error(), id) {
			t.Errorf("error does not name stranded instance %s: %v", id, err)
		}
	}
	if !strings.Contains(err.Error(), `"s2"`) {
		t.Errorf("error does not name the missing shard: %v", err)
	}
	// The refusal happened before any shard state mutated.
	if stale.Window() != 0 {
		t.Errorf("stale coordinator advanced to window %d", stale.Window())
	}
}

// TestRebalanceManyPreservesSurvivors: migrating ten instances between
// shards preserves every instance's live state — engine configuration
// and monitor series — and the fleet keeps stepping afterwards.
func TestRebalanceManyPreservesSurvivors(t *testing.T) {
	if testing.Short() {
		t.Skip("rebalance sweep")
	}
	cfgs := shardConfigs("")[:2]
	c := newLocalCoordinator(t, cfgs)
	const fleetSize = 12
	// Stack everything on s0 so ten migrations have somewhere to go.
	for i := 0; i < fleetSize; i++ {
		if err := c.AddInstanceTo("s0", testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	fleetStepN(t, c, 4)
	before, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}

	moved := 0
	for _, id := range c.Instances() {
		if moved == 10 {
			break
		}
		if err := c.Rebalance(id, "s1"); err != nil {
			t.Fatalf("rebalance %s: %v", id, err)
		}
		if name, _ := c.Assignment(id); name != "s1" {
			t.Fatalf("%s assigned to %q after rebalance", id, name)
		}
		moved++
	}
	after, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	// Per-instance state is shard-agnostic: collect (config, monitor)
	// across shards and compare by instance.
	collect := func(fp FleetFingerprint) (map[string]any, map[string]int) {
		cfgs := make(map[string]any)
		mons := make(map[string]int)
		for _, sfp := range fp.Shards {
			for id, kc := range sfp.Configs {
				cfgs[id] = kc
			}
			for id, n := range sfp.MonitorPoints {
				mons[id] = n
			}
		}
		return cfgs, mons
	}
	cfgsBefore, monsBefore := collect(before)
	cfgsAfter, monsAfter := collect(after)
	if !reflect.DeepEqual(cfgsBefore, cfgsAfter) {
		t.Errorf("instance configs changed across rebalance:\n  before: %+v\n  after:  %+v", cfgsBefore, cfgsAfter)
	}
	if !reflect.DeepEqual(monsBefore, monsAfter) {
		t.Errorf("monitor series changed across rebalance:\n  before: %v\n  after:  %v", monsBefore, monsAfter)
	}
	if n := after.Shards["s1"].Counters.Instances; n != 10 {
		t.Errorf("s1 holds %d instances, want 10", n)
	}
	fleetStepN(t, c, 3)
	// A no-op rebalance (same shard) and unknown targets are handled.
	if err := c.Rebalance(c.Instances()[0], "s1"); err != nil {
		t.Fatalf("same-shard rebalance: %v", err)
	}
	if err := c.Rebalance(c.Instances()[0], "nope"); err == nil {
		t.Fatal("rebalance to unknown shard accepted")
	}
	if err := c.Rebalance("ghost", "s1"); err == nil {
		t.Fatal("rebalance of unknown instance accepted")
	}
}

// TestRebalanceMidWarmup: an instance migrated before its first window
// — nothing warmed up, no samples uploaded — lands cleanly and runs.
func TestRebalanceMidWarmup(t *testing.T) {
	cfgs := shardConfigs("")[:2]
	c := newLocalCoordinator(t, cfgs)
	if err := c.AddInstanceTo("s0", testSpec(0)); err != nil {
		t.Fatal(err)
	}
	if err := c.AddInstanceTo("s0", testSpec(1)); err != nil {
		t.Fatal(err)
	}
	// One window in: db-01 is mid-warmup (agents tick every 5m; one
	// 5m window is the first tick at best).
	fleetStepN(t, c, 1)
	if err := c.Rebalance("db-01", "s1"); err != nil {
		t.Fatalf("mid-warmup rebalance: %v", err)
	}
	// And a zero-window migration: provisioned, never stepped.
	if err := c.AddInstanceTo("s0", testSpec(2)); err != nil {
		t.Fatal(err)
	}
	if err := c.Rebalance("db-02", "s1"); err != nil {
		t.Fatalf("pre-first-window rebalance: %v", err)
	}
	fleetStepN(t, c, 3)
	fp, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fp.Shards["s1"].Counters.Instances != 2 {
		t.Fatalf("s1 = %+v", fp.Shards["s1"].Counters)
	}
}

// TestRebalanceWhileCircuitOpen: migrating an instance whose circuit
// breaker is open moves the instance; breaker state is shard-local and
// deliberately NOT migrated — the destination starts a fresh breaker,
// exactly as the director's ForgetInstance contract says.
func TestRebalanceWhileCircuitOpen(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep")
	}
	cfgs := shardConfigs("heavy")[:2]
	c := newLocalCoordinator(t, cfgs)
	for i := 0; i < 4; i++ {
		if err := c.AddInstanceTo("s0", testSpec(i)); err != nil {
			t.Fatal(err)
		}
	}
	src, _ := c.Shard("s0")
	srcSys := src.(*Local).System()
	tripped := ""
	for w := 0; w < 150 && tripped == ""; w++ {
		fleetStepN(t, c, 1)
		for _, id := range c.Instances() {
			if srcSys.Director.CircuitOpen(id) {
				tripped = id
				break
			}
		}
	}
	if tripped == "" {
		t.Fatal("heavy profile opened no circuit in 150 windows; pick a different fault seed")
	}
	if err := c.Rebalance(tripped, "s1"); err != nil {
		t.Fatalf("rebalance with open circuit: %v", err)
	}
	dst, _ := c.Shard("s1")
	if dst.(*Local).System().Director.CircuitOpen(tripped) {
		t.Errorf("destination inherited an open circuit for %s; breaker state must start fresh", tripped)
	}
	if srcSys.Director.CircuitOpen(tripped) {
		t.Errorf("source still tracks a circuit for migrated instance %s", tripped)
	}
	fleetStepN(t, c, 2)
}
