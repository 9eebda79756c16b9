package httpapi

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
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

// postJSON posts v, JSON-encoded, to path over a real connection.
func postJSON(t *testing.T, h http.Handler, path string, v interface{}) *httptest.ResponseRecorder {
	t.Helper()
	body, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return call(t, h, "POST", path, string(body))
}

func TestRepositoryServerRoundTrip(t *testing.T) {
	repo := repository.New()
	ft := &fakeTuner{}
	repo.Subscribe(ft)
	sample := tuner.Sample{WorkloadID: "w1", Engine: knobs.Postgres, Objective: 42, At: time.Now()}
	if err := sample.SetMaps(knobs.Config{"work_mem": 1}, nil); err != nil {
		t.Fatal(err)
	}
	rec := postJSON(t, NewRepositoryServer(repo), "/v1/samples", sample)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/samples = %d %s", rec.Code, rec.Body)
	}
	if obs, _ := ft.counts(); repo.Len() != 1 || obs != 1 {
		t.Fatalf("repo=%d fanout=%d", repo.Len(), obs)
	}
	got := repo.Store().Samples("w1")
	if len(got) != 1 || got[0].Objective != 42 || got[0].Config.Vals[0] != 0 || !got[0].Config.Has(1) || got[0].Config.Vals[1] != 1 {
		t.Fatalf("stored = %+v", got)
	}
}

// TestRepositoryServerRejectsUnknownNames: a sample naming a knob or
// metric its engine's catalogue lacks, or an engine without one, is a
// 400 that names it, and nothing is stored.
func TestRepositoryServerRejectsUnknownNames(t *testing.T) {
	repo := repository.New()
	h := NewRepositoryServer(repo)
	for _, tc := range []struct{ body, name string }{
		{`{"workload_id":"w","engine":"postgres","config":{"not_a_knob":1}}`, "not_a_knob"},
		{`{"workload_id":"w","engine":"mysql","metrics":{"xact_commit":1}}`, "xact_commit"},
		{`{"workload_id":"w","engine":"oracle"}`, "oracle"},
	} {
		rec := call(t, h, "POST", "/v1/samples", tc.body)
		if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), tc.name) {
			t.Errorf("%s: %d %s, want a 400 naming %s", tc.body, rec.Code, rec.Body, tc.name)
		}
	}
	if repo.Len() != 0 {
		t.Fatalf("rejected samples stored: %d", repo.Len())
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

	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	body, err := json.Marshal(tuner.Sample{WorkloadID: "unix-w", Engine: knobs.MySQL, Objective: 7})
	if err != nil {
		t.Fatal(err)
	}
	resp, err := hc.Post("http://unix/v1/samples", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || repo.Len() != 1 {
		t.Fatalf("POST over unix socket = %d, repo len = %d", resp.StatusCode, repo.Len())
	}
	hc.CloseIdleConnections()
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
	srv := NewDirectorServer(dir)

	ev := eventRequest{
		InstanceID: "db-1",
		Event: wireEvent{
			At: time.Now(), Kind: int(tde.KindThrottle), Class: int(knobs.Memory),
			Knob: "work_mem", Reason: "test",
		},
		Request: tuner.Request{Engine: knobs.Postgres},
	}
	if rec := postJSON(t, srv, "/v1/events", ev); rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/events = %d %s", rec.Code, rec.Body)
	}
	if _, recs := ft.counts(); recs != 1 {
		t.Fatal("throttle did not reach the tuner")
	}
	if inst.Replica.Master().Config()["work_mem"] != 16*1024*1024 {
		t.Fatal("recommendation not applied through HTTP path")
	}
	tr := tuningRequest{InstanceID: "db-1", Request: tuner.Request{Engine: knobs.Postgres}}
	if rec := postJSON(t, srv, "/v1/tuning-requests", tr); rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/tuning-requests = %d %s", rec.Code, rec.Body)
	}
	var c countersResponse
	rec := call(t, srv, "GET", "/v1/counters", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &c); err != nil {
		t.Fatal(err)
	}
	if c != (countersResponse{TuningRequests: 2, Recommendations: 2}) {
		t.Fatalf("counters = %+v", c)
	}
}

func TestDirectorServerRejectsUnknownInstance(t *testing.T) {
	dir, _, _ := setupDirector(t)
	ev := eventRequest{InstanceID: "ghost", Event: wireEvent{Kind: int(tde.KindThrottle), Class: int(knobs.Memory)}}
	if rec := postJSON(t, NewDirectorServer(dir), "/v1/events", ev); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown instance: %d %s", rec.Code, rec.Body)
	}
}

// TestWireEventNaNEntropy: an event without entropy decodes as NaN, and
// a present one survives the wire.
func TestWireEventNaNEntropy(t *testing.T) {
	var w wireEvent
	if err := json.Unmarshal([]byte(`{"kind":0}`), &w); err != nil {
		t.Fatal(err)
	}
	if back := fromWireEvent(w); !math.IsNaN(back.Entropy) {
		t.Fatal("absent entropy should deserialize as NaN")
	}
	if err := json.Unmarshal([]byte(fmt.Sprintf(`{"kind":%d,"entropy":0.87}`, tde.KindPlanUpgrade)), &w); err != nil {
		t.Fatal(err)
	}
	back := fromWireEvent(w)
	if back.Entropy != 0.87 || back.Kind != tde.KindPlanUpgrade {
		t.Fatalf("round trip lost data: %+v", back)
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
	dir, _, _ := setupDirector(t)
	srv := NewDirectorServer(dir)

	// Maintenance on a fresh instance is a no-op but must succeed.
	if rec := postJSON(t, srv, "/v1/maintenance", instanceRequest{InstanceID: "db-1"}); rec.Code != http.StatusOK {
		t.Fatalf("maintenance: %d %s", rec.Code, rec.Body)
	}
	if rec := postJSON(t, srv, "/v1/maintenance", instanceRequest{InstanceID: "ghost"}); rec.Code != http.StatusUnprocessableEntity {
		t.Fatalf("unknown instance accepted: %d %s", rec.Code, rec.Body)
	}
	// Upgrade queue starts empty, grows with plan-upgrade events.
	pending := func() int {
		t.Helper()
		var out map[string]int
		rec := call(t, srv, "GET", "/v1/upgrade-requests?instance_id=db-1", "")
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("upgrade-requests: %d %s", rec.Code, rec.Body)
		}
		return out["pending"]
	}
	if n := pending(); n != 0 {
		t.Fatalf("pending = %d", n)
	}
	entropy := 0.9
	ev := eventRequest{InstanceID: "db-1", Event: wireEvent{Kind: int(tde.KindPlanUpgrade), Class: int(knobs.Memory), Entropy: &entropy}}
	if rec := postJSON(t, srv, "/v1/events", ev); rec.Code != http.StatusAccepted {
		t.Fatalf("plan-upgrade event: %d %s", rec.Code, rec.Body)
	}
	if n := pending(); n != 1 {
		t.Fatalf("pending after event = %d", n)
	}
	if rec := call(t, srv, "GET", "/v1/upgrade-requests", ""); rec.Code != http.StatusBadRequest {
		t.Fatalf("upgrade-requests without instance_id = %d", rec.Code)
	}
}

// TestOversizeBodyRejected posts a body twice the cap to every route
// that decodes one; each must answer 413 without acting on it. The
// routes run in parallel because the server lingers before closing a
// connection whose body it left unread.
func TestOversizeBodyRejected(t *testing.T) {
	dir, _, _ := setupDirector(t)
	repo := repository.New()
	svc := newFleetService(t, 4)
	fleetSrv := NewFleetServer(svc)
	huge := `{"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	routes := []struct {
		h            http.Handler
		method, path string
	}{
		{NewRepositoryServer(repo), "POST", "/v1/samples"},
		{NewDirectorServer(dir), "POST", "/v1/events"},
		{NewDirectorServer(dir), "POST", "/v1/tuning-requests"},
		{NewDirectorServer(dir), "POST", "/v1/maintenance"},
		{fleetSrv, "POST", "/v1/tenants"},
		{fleetSrv, "POST", "/v1/tenants/t1/databases"},
		{fleetSrv, "PATCH", "/v1/tenants/t1/databases/d1"},
		{fleetSrv, "POST", "/v1/tenants/t1/databases/d1/rebalance"},
	}
	t.Run("routes", func(t *testing.T) {
		for _, tc := range routes {
			t.Run(tc.method+tc.path, func(t *testing.T) {
				t.Parallel()
				if rec := call(t, tc.h, tc.method, tc.path, huge); rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("2 MiB body = %d, want 413 (%.80s)", rec.Code, rec.Body)
				}
			})
		}
	})
	if repo.Len() != 0 || len(svc.ListTenants()) != 0 {
		t.Fatalf("oversize bodies mutated state: %d samples, %d tenants", repo.Len(), len(svc.ListTenants()))
	}
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
