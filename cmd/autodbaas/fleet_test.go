package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/faults"
	"autodbaas/internal/fleet"
	"autodbaas/internal/knobs"
	"autodbaas/internal/safety"
	"autodbaas/internal/shard"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

// fleetRun is one runFleet call on a loopback port, stopped by cancel.
type fleetRun struct {
	url    string
	cancel context.CancelFunc
	done   chan error
}

func startFleet(t *testing.T, c cliConfig) *fleetRun {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	r := &fleetRun{url: "http://" + l.Addr().String(), cancel: cancel, done: make(chan error, 1)}
	go func() { r.done <- runFleet(ctx, c, l) }()
	t.Cleanup(func() { r.stop(t) })
	return r
}

// stop cancels the run and waits for runFleet to return; it fails the
// test on a run error. Safe to call twice.
func (r *fleetRun) stop(t *testing.T) {
	t.Helper()
	r.cancel()
	if r.done == nil {
		return
	}
	err := <-r.done
	r.done = nil
	if err != nil {
		t.Fatalf("runFleet: %v", err)
	}
}

// fetch GETs path and returns the status code and body.
func (r *fleetRun) fetch(t *testing.T, path string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(r.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// get fetches path and decodes its JSON body into out (when non-nil).
func (r *fleetRun) get(t *testing.T, path string, out any) {
	t.Helper()
	code, body := r.fetch(t, path)
	if code != http.StatusOK {
		t.Fatalf("GET %s: %d %s", path, code, body)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
	}
}

// metric reads one unlabelled sample from the run's /metrics exposition.
func (r *fleetRun) metric(t *testing.T, name string) float64 {
	t.Helper()
	code, body := r.fetch(t, "/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics: %d %s", code, body)
	}
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("/metrics: %s: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s sample", name)
	return 0
}

// checkNoSideDoors requires that the director and repository answer
// through /metrics only: their old routes are not mounted.
func (r *fleetRun) checkNoSideDoors(t *testing.T) {
	t.Helper()
	for _, path := range []string{"/director/v1/counters", "/repository/v1/stats"} {
		if code, _ := r.fetch(t, path); code != http.StatusNotFound {
			t.Errorf("GET %s = %d, want 404", path, code)
		}
	}
}

// waitWindow polls /v1/fleet until the fleet has completed window w
// and returns that summary.
func (r *fleetRun) waitWindow(t *testing.T, w int) fleet.Summary {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		select {
		case err := <-r.done:
			r.done = nil
			t.Fatalf("runFleet returned before window %d: %v", w, err)
		default:
		}
		var sum fleet.Summary
		r.get(t, "/v1/fleet", &sum)
		if sum.Window >= w {
			return sum
		}
		if time.Now().After(deadline) {
			t.Fatalf("fleet still at window %d, want %d", sum.Window, w)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// snapshotWindows returns the windows of dir's numbered snapshots, in
// order, and checks latest.ckpt is there too.
func snapshotWindows(t *testing.T, dir string) []int {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var windows []int
	latest := false
	for _, e := range entries {
		if e.Name() == "latest.ckpt" {
			latest = true
			continue
		}
		w, err := checkpoint.SnapshotWindow(e.Name())
		if err != nil {
			t.Fatal(err)
		}
		windows = append(windows, w)
	}
	if !latest {
		t.Fatalf("%s has no latest.ckpt", dir)
	}
	sort.Ints(windows)
	return windows
}

// TestRunFleetCheckpointsAndResumes drives the CLI's one fleet path end
// to end: `-fleet 2 -hours 1 -checkpoint-dir d -checkpoint-every 3`
// serves the tenant API and the metrics on one port and snapshots
// every 3 windows; rerun with -resume and -hours 2, it continues from
// the last snapshot's window instead of starting over.
func TestRunFleetCheckpointsAndResumes(t *testing.T) {
	if testing.Short() {
		t.Skip("two CLI fleet runs")
	}
	dir := t.TempDir()
	c := defaults()
	c.Fleet, c.Hours, c.CkptDir, c.CkptEvery = 2, 1, dir, 3

	first := startFleet(t, c)
	if sum := first.waitWindow(t, 12); sum.Instances != 2 || sum.Tenants != 1 {
		t.Fatalf("bootstrapped fleet: %+v", sum)
	}
	const requests = "autodbaas_director_tuning_requests_total"
	before := first.metric(t, requests)
	first.checkNoSideDoors(t)
	first.stop(t)
	if got, want := snapshotWindows(t, dir), []int{3, 6, 9, 12}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the first run: snapshots of windows %v, want %v", got, want)
	}
	// Keep only latest.ckpt: every numbered file from here on is one the
	// resumed run wrote.
	numbered, err := filepath.Glob(filepath.Join(dir, "checkpoint-*.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range numbered {
		if err := os.Remove(path); err != nil {
			t.Fatal(err)
		}
	}

	c.Resume, c.Hours = true, 2
	second := startFleet(t, c)
	if sum := second.waitWindow(t, 24); sum.Instances != 2 || sum.Tenants != 1 {
		t.Fatalf("resumed fleet: %+v", sum)
	}
	if after := second.metric(t, requests); after < before {
		t.Errorf("%s fell from %v to %v", requests, before, after)
	}
	second.checkNoSideDoors(t)
	second.stop(t)
	if got, want := snapshotWindows(t, dir), []int{15, 18, 21, 24}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after the resumed run: snapshots of windows %v, want %v (a run that started over rewrites 3..12)", got, want)
	}
}

// TestPeriodicBlueprints: -periodic puts every bootstrapped database's
// agent on the periodic baseline, on the default layout and on
// in-process shards alike; without it the seed blueprints are TDE-driven.
func TestPeriodicBlueprints(t *testing.T) {
	for _, tc := range []struct {
		shards   int
		periodic bool
	}{{0, false}, {0, true}, {2, true}} {
		t.Run(fmt.Sprintf("shards=%d/periodic=%v", tc.shards, tc.periodic), func(t *testing.T) {
			c := defaults()
			c.Tuners, c.Shards, c.Periodic = 1, tc.shards, tc.periodic
			fcfg, err := fleetConfig(c)
			if err != nil {
				t.Fatal(err)
			}
			svc, err := fleet.New(fcfg)
			if err != nil {
				t.Fatal(err)
			}
			defer svc.Close()
			if err := seedFleet(svc, 6); err != nil {
				t.Fatal(err)
			}
			if _, err := svc.Step(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
			n := 0
			for _, name := range svc.Coordinator().ShardNames() {
				sh, _ := svc.Coordinator().Shard(name)
				for _, spec := range sh.(*shard.Local).Specs() {
					n++
					if spec.Agent.Periodic != tc.periodic {
						t.Errorf("%s on shard %s: agent periodic = %v, want %v", spec.ID, name, spec.Agent.Periodic, tc.periodic)
					}
				}
			}
			if n != 6 {
				t.Fatalf("%d instance specs, want 6", n)
			}
		})
	}
}

// TestDefaultLayoutEquivalence pins the default layout's shard config to
// the recipe it replaced, written out here: one in-process shard named
// fleet.LocalShard around -tuners BO tuners at -seed+i (200 candidates,
// 150-sample fits, beta 0.5), an injector of the -faults profile seeded
// with -seed, and the default safety gate, all built by hand. At
// `-tuners 2 -faults medium -safety -parallelism 2` both fleets reach
// the same fingerprint after 36 windows, and again 12 windows after
// each resumes from its own snapshot.
func TestDefaultLayoutEquivalence(t *testing.T) {
	c := defaults()
	c.Tuners, c.FaultsProfile, c.Safety, c.Parallelism = 2, "medium", true, 2
	var injector *faults.Injector
	recipe := func() fleet.Config {
		tuners := make([]tuner.Tuner, c.Tuners)
		for i := range tuners {
			tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 200, MaxSamplesPerFit: 150, UCBBeta: 0.5, Seed: c.Seed + int64(i)})
			if err != nil {
				t.Fatal(err)
			}
			tuners[i] = tn
		}
		opts := safety.DefaultOptions()
		injector = faults.New(c.Seed, faults.Medium())
		l, err := shard.NewLocalWith(shard.Config{Name: fleet.LocalShard, Parallelism: c.Parallelism, Safety: &opts}, injector, tuners...)
		if err != nil {
			t.Fatal(err)
		}
		return fleet.Config{Seed: c.Seed, ShardHosts: []shard.Shard{l}}
	}
	flags := func() fleet.Config {
		fcfg, err := fleetConfig(c)
		if err != nil {
			t.Fatal(err)
		}
		return fcfg
	}
	// state is what must agree: the fingerprint, plus the counters it
	// leaves out (retries, safety-gate totals).
	type state struct {
		FP fleet.Fingerprint
		K  shard.Counters
	}
	stepTo := func(svc *fleet.Service, w int) state {
		for svc.Windows() < w {
			if _, err := svc.Step(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
		fp, err := svc.Fingerprint()
		if err != nil {
			t.Fatal(err)
		}
		k, err := svc.Counters()
		if err != nil {
			t.Fatal(err)
		}
		return state{fp, k}
	}
	const windows, more = 36, 12
	run := func(build func() fleet.Config) (atCut, resumed state) {
		svc, err := fleet.New(build())
		if err != nil {
			t.Fatal(err)
		}
		defer svc.Close()
		if err := seedFleet(svc, c.Fleet); err != nil {
			t.Fatal(err)
		}
		atCut = stepTo(svc, windows)
		dir := t.TempDir()
		if _, err := svc.CheckpointNow(dir); err != nil {
			t.Fatal(err)
		}
		next, err := fleet.New(build())
		if err != nil {
			t.Fatal(err)
		}
		defer next.Close()
		if err := next.RestoreLatest(dir); err != nil {
			t.Fatal(err)
		}
		return atCut, stepTo(next, windows+more)
	}
	wantCut, wantResumed := run(recipe)
	if k := wantCut.K; k.TuningRequests == 0 || k.SafetyCanaryRuns == 0 || injector.InjectedTotal() == 0 {
		t.Fatalf("degenerate run: no tuning, canaries or injected faults (%v): %+v", injector, k)
	}
	gotCut, gotResumed := run(flags)
	if !reflect.DeepEqual(wantCut, gotCut) {
		t.Fatalf("after %d windows:\n recipe %+v\n flags  %+v", windows, wantCut, gotCut)
	}
	if !reflect.DeepEqual(wantResumed, gotResumed) {
		t.Fatalf("%d windows after resuming:\n recipe %+v\n flags  %+v", more, wantResumed, gotResumed)
	}
}
