package httpapi

import (
	"context"
	"math"
	"net"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"autodbaas/internal/cluster"
	"autodbaas/internal/dfa"
	"autodbaas/internal/director"
	"autodbaas/internal/knobs"
	"autodbaas/internal/orchestrator"
	"autodbaas/internal/repository"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
)

// fakeTuner is mutex-guarded: the repository's fan-out delivers from a
// background worker, not the HTTP handler goroutine.
type fakeTuner struct {
	mu                    sync.Mutex
	observed, recommended int
}

func (f *fakeTuner) Name() string { return "fake" }
func (f *fakeTuner) Observe(tuner.Sample) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.observed++
	return nil
}
func (f *fakeTuner) Recommend(tuner.Request) (tuner.Recommendation, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.recommended++
	return tuner.Recommendation{Config: knobs.Config{"work_mem": 16 * 1024 * 1024}}, nil
}

func (f *fakeTuner) counts() (int, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.observed, f.recommended
}

func TestRepositoryServerRoundTrip(t *testing.T) {
	repo := repository.New()
	ft := &fakeTuner{}
	repo.Subscribe(ft)
	srv := httptest.NewServer(NewRepositoryServer(repo))
	defer srv.Close()

	client := NewRepositoryClient(srv.URL)
	err := client.Observe(tuner.Sample{
		WorkloadID: "w1", Engine: knobs.Postgres,
		Config: knobs.Config{"work_mem": 1}, Objective: 42, At: time.Now(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if obs, _ := ft.counts(); repo.Len() != 1 || obs != 1 {
		t.Fatalf("repo=%d fanout=%d", repo.Len(), obs)
	}
	got := repo.Store().Samples("w1")
	if len(got) != 1 || got[0].Objective != 42 {
		t.Fatalf("stored = %+v", got)
	}
}

func TestRepositoryOverUnixSocket(t *testing.T) {
	repo := repository.New()
	dir := t.TempDir()
	sock := filepath.Join(dir, "repo.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, l, NewRepositoryServer(repo)) }()

	client := NewRepositoryClientUnix(sock)
	if err := client.Observe(tuner.Sample{WorkloadID: "unix-w", Engine: knobs.MySQL, Objective: 7}); err != nil {
		t.Fatal(err)
	}
	if repo.Len() != 1 {
		t.Fatalf("repo len = %d", repo.Len())
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("serve: %v", err)
	}
	if _, err := os.Stat(sock); err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}
}

func setupDirector(t *testing.T) (*director.Director, *fakeTuner, *cluster.Instance) {
	t.Helper()
	orch := orchestrator.New()
	inst, err := orch.Provision(cluster.ProvisionSpec{
		ID: "db-1", Plan: "m4.large", Engine: knobs.Postgres,
		DBSizeBytes: 10 * cluster.GiB, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	ft := &fakeTuner{}
	dir, err := director.New(orch, dfa.New(orch), ft)
	if err != nil {
		t.Fatal(err)
	}
	return dir, ft, inst
}

func TestDirectorServerEventFlow(t *testing.T) {
	dir, ft, inst := setupDirector(t)
	srv := httptest.NewServer(NewDirectorServer(dir))
	defer srv.Close()
	client := NewDirectorClient(srv.URL)

	ev := tde.Event{
		At: time.Now(), Kind: tde.KindThrottle, Class: knobs.Memory,
		Knob: "work_mem", Entropy: math.NaN(), Reason: "test",
	}
	if err := client.HandleEvent("db-1", ev, tuner.Request{Engine: knobs.Postgres}); err != nil {
		t.Fatal(err)
	}
	if _, recs := ft.counts(); recs != 1 {
		t.Fatal("throttle did not reach the tuner")
	}
	if inst.Replica.Master().Config()["work_mem"] != 16*1024*1024 {
		t.Fatal("recommendation not applied through HTTP path")
	}
	if err := client.RequestTuning("db-1", tuner.Request{Engine: knobs.Postgres}); err != nil {
		t.Fatal(err)
	}
	reqs, recs, fails, upgrades, err := client.Counters()
	if err != nil {
		t.Fatal(err)
	}
	if reqs != 2 || recs != 2 || fails != 0 || upgrades != 0 {
		t.Fatalf("counters = %d/%d/%d/%d", reqs, recs, fails, upgrades)
	}
}

func TestDirectorServerRejectsUnknownInstance(t *testing.T) {
	dir, _, _ := setupDirector(t)
	srv := httptest.NewServer(NewDirectorServer(dir))
	defer srv.Close()
	client := NewDirectorClient(srv.URL)
	ev := tde.Event{Kind: tde.KindThrottle, Class: knobs.Memory, Entropy: math.NaN()}
	if err := client.HandleEvent("ghost", ev, tuner.Request{}); err == nil {
		t.Fatal("unknown instance accepted over HTTP")
	}
}

func TestWireEventNaNEntropy(t *testing.T) {
	ev := tde.Event{Kind: tde.KindThrottle, Entropy: math.NaN()}
	w := toWireEvent(ev)
	if w.Entropy != nil {
		t.Fatal("NaN entropy should serialize as absent")
	}
	back := fromWireEvent(w)
	if !math.IsNaN(back.Entropy) {
		t.Fatal("absent entropy should deserialize as NaN")
	}
	ev2 := tde.Event{Kind: tde.KindPlanUpgrade, Entropy: 0.87}
	back2 := fromWireEvent(toWireEvent(ev2))
	if back2.Entropy != 0.87 || back2.Kind != tde.KindPlanUpgrade {
		t.Fatalf("round trip lost data: %+v", back2)
	}
}

func TestHTTPMethodValidation(t *testing.T) {
	repo := repository.New()
	srv := httptest.NewServer(NewRepositoryServer(repo))
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/samples")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Fatalf("GET /v1/samples = %d, want 405", resp.StatusCode)
	}
	resp2, err := srv.Client().Get(srv.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != 200 {
		t.Fatalf("GET /v1/stats = %d", resp2.StatusCode)
	}
}

func TestDirectorMaintenanceAndUpgradeEndpoints(t *testing.T) {
	dir, _, inst := setupDirector(t)
	srv := httptest.NewServer(NewDirectorServer(dir))
	defer srv.Close()
	client := NewDirectorClient(srv.URL)

	// Maintenance on a fresh instance is a no-op but must succeed.
	if err := client.MaintenanceWindow("db-1"); err != nil {
		t.Fatal(err)
	}
	if err := client.MaintenanceWindow("ghost"); err == nil {
		t.Fatal("unknown instance accepted")
	}
	// Upgrade queue starts empty, grows with plan-upgrade events.
	n, err := client.PendingUpgradeRequests("db-1")
	if err != nil || n != 0 {
		t.Fatalf("pending = %d, err %v", n, err)
	}
	ev := tde.Event{Kind: tde.KindPlanUpgrade, Class: knobs.Memory, Entropy: 0.9}
	if err := client.HandleEvent("db-1", ev, tuner.Request{}); err != nil {
		t.Fatal(err)
	}
	n, err = client.PendingUpgradeRequests("db-1")
	if err != nil || n != 1 {
		t.Fatalf("pending after event = %d, err %v", n, err)
	}
	_ = inst
}

// TestServeTimeouts pins the server hardening contract: every endpoint
// runs with header-read, body-read and idle deadlines, and a slow-loris
// client that never finishes its request line is disconnected once the
// header deadline passes instead of pinning a goroutine.
func TestServeTimeouts(t *testing.T) {
	srv := newServer(nil)
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 || srv.IdleTimeout <= 0 {
		t.Fatalf("server missing deadlines: header=%v read=%v idle=%v",
			srv.ReadHeaderTimeout, srv.ReadTimeout, srv.IdleTimeout)
	}

	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	loris := newServer(NewRepositoryServer(repository.New()))
	loris.ReadHeaderTimeout = 100 * time.Millisecond
	loris.ReadTimeout = 100 * time.Millisecond
	go loris.Serve(l)
	defer loris.Close()

	conn, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Dribble a partial request line and stall; the server must hang up.
	if _, err := conn.Write([]byte("GET /v1/sam")); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 256)
	for {
		if _, err := conn.Read(buf); err != nil {
			return // connection torn down by the deadline — hardened
		}
	}
}
