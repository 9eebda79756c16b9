package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/fleet"
	"autodbaas/internal/shard"
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

// get fetches path and decodes its JSON body into out (when non-nil).
func (r *fleetRun) get(t *testing.T, path string, out any) {
	t.Helper()
	resp, err := http.Get(r.url + path)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", path, resp.Status)
	}
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: %v", path, err)
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
// serves the tenant API and the director on one port and snapshots
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
	var counters map[string]any
	first.get(t, "/director/v1/counters", &counters)
	if len(counters) == 0 {
		t.Fatal("/director/v1/counters answered with no counters")
	}
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
	second.get(t, "/director/v1/counters", nil)
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
