package httpapi

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/fleet"
	"autodbaas/internal/knobs"
	"autodbaas/internal/shard"
	"autodbaas/internal/tenant"
	"autodbaas/internal/tuner"
	"autodbaas/internal/tuner/bo"
)

func newFleetService(t *testing.T, maxInstances int) *fleet.Service {
	t.Helper()
	tn, err := bo.New(bo.Options{Engine: knobs.Postgres, Candidates: 60, MaxSamplesPerFit: 60, UCBBeta: 0.5, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	svc, err := fleet.New(fleet.Config{
		Seed:   5,
		Tuners: []tuner.Tuner{tn},
		Tiers: map[string]tenant.Tier{
			"std": {Name: "std", MaxInstances: maxInstances, AllowedPlans: []string{"t2.medium", "t2.large"}, WarmupWindows: 1},
		},
		Blueprints: map[string]tenant.Blueprint{
			"oltp": {Name: "oltp", Engine: "postgres", Plan: "t2.medium",
				Workload: tenant.WorkloadSpec{Class: "tpcc", SizeGiB: 2, Rate: 1200}},
		},
		WarmStart: &fleet.WarmStartConfig{MinDonorSamples: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	return svc
}

// call drives one request through h over a real HTTP connection and
// records the response.
func call(t *testing.T, h http.Handler, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	srv := httptest.NewServer(h)
	defer srv.Close()
	req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := srv.Client().Do(req)
	if err != nil {
		t.Fatalf("%s %s: %v", method, path, err)
	}
	defer resp.Body.Close()
	rec := httptest.NewRecorder()
	rec.Code = resp.StatusCode
	if _, err := io.Copy(rec.Body, resp.Body); err != nil {
		t.Fatalf("%s %s: read body: %v", method, path, err)
	}
	return rec
}

// fleetSnapshot captures everything a rejected request must leave
// untouched.
type fleetSnapshot struct {
	Summary fleet.Summary
	Tenants []fleet.TenantStatus
}

func snapshotFleet(svc *fleet.Service) fleetSnapshot {
	return fleetSnapshot{Summary: svc.Summary(), Tenants: svc.ListTenants()}
}

// TestFleetAPIErrorPaths is the error-path table: malformed JSON,
// unknown IDs, duplicate creates, double deletes, plans outside the
// tier — each must answer the right status code and leave both desired
// state and the engine unmutated.
func TestFleetAPIErrorPaths(t *testing.T) {
	svc := newFleetService(t, 4)
	srv := NewFleetServer(svc)

	// Fixture: tenant t1 with database d1 provisioned and d2 already
	// marked for deletion (for the double-deprovision case).
	for _, r := range []struct{ method, path, body string }{
		{"POST", "/v1/tenants", `{"id":"t1","tier":"std"}`},
		{"POST", "/v1/tenants/t1/databases", `{"id":"d1","blueprint":"oltp"}`},
		{"POST", "/v1/tenants/t1/databases", `{"id":"d2","blueprint":"oltp"}`},
	} {
		if rec := call(t, srv, r.method, r.path, r.body); rec.Code >= 300 {
			t.Fatalf("fixture %s %s: %d %s", r.method, r.path, rec.Code, rec.Body)
		}
	}
	if _, err := svc.Step(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if rec := call(t, srv, "DELETE", "/v1/tenants/t1/databases/d2", ""); rec.Code != http.StatusAccepted {
		t.Fatalf("fixture delete d2: %d %s", rec.Code, rec.Body)
	}

	cases := []struct {
		name   string
		method string
		path   string
		body   string
		want   int
	}{
		{"tenant malformed JSON", "POST", "/v1/tenants", `{"id":`, http.StatusBadRequest},
		{"tenant bad ID", "POST", "/v1/tenants", `{"id":"Bad ID!","tier":"std"}`, http.StatusBadRequest},
		{"tenant unknown tier", "POST", "/v1/tenants", `{"id":"t9","tier":"gold"}`, http.StatusNotFound},
		{"tenant duplicate", "POST", "/v1/tenants", `{"id":"t1","tier":"std"}`, http.StatusConflict},
		{"tenant get unknown", "GET", "/v1/tenants/nope", "", http.StatusNotFound},
		{"tenant delete unknown", "DELETE", "/v1/tenants/nope", "", http.StatusNotFound},
		{"db under unknown tenant", "POST", "/v1/tenants/nope/databases", `{"id":"d","blueprint":"oltp"}`, http.StatusNotFound},
		{"db malformed JSON", "POST", "/v1/tenants/t1/databases", `not json`, http.StatusBadRequest},
		{"db bad ID", "POST", "/v1/tenants/t1/databases", `{"id":"/","blueprint":"oltp"}`, http.StatusBadRequest},
		{"db unknown blueprint", "POST", "/v1/tenants/t1/databases", `{"id":"d9","blueprint":"nope"}`, http.StatusNotFound},
		{"db plan outside tier", "POST", "/v1/tenants/t1/databases", `{"id":"d9","blueprint":"oltp","plan":"m4.xlarge"}`, http.StatusBadRequest},
		{"db double-provision", "POST", "/v1/tenants/t1/databases", `{"id":"d1","blueprint":"oltp"}`, http.StatusConflict},
		{"db get unknown", "GET", "/v1/tenants/t1/databases/nope", "", http.StatusNotFound},
		{"db delete unknown", "DELETE", "/v1/tenants/t1/databases/nope", "", http.StatusNotFound},
		{"db double-deprovision", "DELETE", "/v1/tenants/t1/databases/d2", "", http.StatusConflict},
		{"resize malformed JSON", "PATCH", "/v1/tenants/t1/databases/d1", `{`, http.StatusBadRequest},
		{"resize empty plan", "PATCH", "/v1/tenants/t1/databases/d1", `{}`, http.StatusBadRequest},
		{"resize unknown plan", "PATCH", "/v1/tenants/t1/databases/d1", `{"plan":"t2.galactic"}`, http.StatusBadRequest},
		{"resize plan outside tier", "PATCH", "/v1/tenants/t1/databases/d1", `{"plan":"m4.xlarge"}`, http.StatusBadRequest},
		{"resize onto current plan", "PATCH", "/v1/tenants/t1/databases/d1", `{"plan":"t2.medium"}`, http.StatusConflict},
		{"resize unknown db", "PATCH", "/v1/tenants/t1/databases/nope", `{"plan":"t2.large"}`, http.StatusNotFound},
		{"resize while draining", "PATCH", "/v1/tenants/t1/databases/d2", `{"plan":"t2.large"}`, http.StatusConflict},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := snapshotFleet(svc)
			rec := call(t, srv, tc.method, tc.path, tc.body)
			if rec.Code != tc.want {
				t.Fatalf("%s %s: status %d, want %d (%s)", tc.method, tc.path, rec.Code, tc.want, rec.Body)
			}
			var er errorResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &er); err != nil || er.Error == "" {
				t.Fatalf("rejection carries no error body: %q", rec.Body)
			}
			if after := snapshotFleet(svc); !reflect.DeepEqual(before, after) {
				t.Fatalf("rejected request mutated fleet state:\n before %+v\n after  %+v", before, after)
			}
		})
	}
}

// TestFleetAPIGrowth drives the fleet from zero to 100+ instances
// across 12 tenants and back down to zero purely through the HTTP API,
// with the gauges on /metrics tracking every move.
func TestFleetAPIGrowth(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet growth soak")
	}
	svc := newFleetService(t, 9)
	srv := NewFleetServer(svc)

	const tenants, dbs = 12, 9 // 108 instances
	createTenant := func(ti int) {
		tid := fmt.Sprintf("tenant-%02d", ti)
		if rec := call(t, srv, "POST", "/v1/tenants", fmt.Sprintf(`{"id":%q,"tier":"std"}`, tid)); rec.Code != http.StatusCreated {
			t.Fatalf("create %s: %d %s", tid, rec.Code, rec.Body)
		}
		for di := 0; di < dbs; di++ {
			body := fmt.Sprintf(`{"id":"db-%02d","blueprint":"oltp"}`, di)
			if rec := call(t, srv, "POST", "/v1/tenants/"+tid+"/databases", body); rec.Code != http.StatusCreated {
				t.Fatalf("create %s/db-%02d: %d %s", tid, di, rec.Code, rec.Body)
			}
		}
	}
	// Wave 1: one anchor tenant provisions cold and runs long enough to
	// bank donor history; wave 2 joins against those donors, so every
	// later provision warm-starts.
	createTenant(0)
	for i := 0; i < 5; i++ {
		if _, err := svc.Step(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	for ti := 1; ti < tenants; ti++ {
		createTenant(ti)
	}
	if _, err := svc.Step(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	var sum fleet.Summary
	rec := call(t, srv, "GET", "/v1/fleet", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Instances != tenants*dbs || sum.Tenants != tenants || sum.Provisions != tenants*dbs {
		t.Fatalf("grown summary = %+v", sum)
	}

	metrics := call(t, srv2(svc), "GET", "/metrics", "").Body.String()
	if !strings.Contains(metrics, fmt.Sprintf("autodbaas_fleet_instances %d", tenants*dbs)) {
		t.Fatalf("/metrics missing grown instance gauge")
	}
	if !strings.Contains(metrics, fmt.Sprintf("autodbaas_fleet_tenants %d", tenants)) {
		t.Fatalf("/metrics missing tenant gauge")
	}

	// Warm-start accounting: the anchor's 9 databases started cold, the
	// 99 that followed all found donors, and the seeded-sample counter
	// moved. The /metrics families must carry (at least) this service's
	// totals — the registry is process-global, so other tests may have
	// added on top.
	hits, misses, seeded := svc.WarmStartCounts()
	if misses != dbs || hits != (tenants-1)*dbs || seeded <= 0 {
		t.Fatalf("warm-start counts hits=%d misses=%d seeded=%d, want %d/%d/>0", hits, misses, seeded, (tenants-1)*dbs, dbs)
	}
	for name, min := range map[string]float64{
		"autodbaas_tuner_warmstart_hits":           float64(hits),
		"autodbaas_tuner_warmstart_misses":         float64(misses),
		"autodbaas_tuner_warmstart_samples_seeded": float64(seeded),
	} {
		if v := metricValue(t, metrics, name); v < min {
			t.Fatalf("/metrics %s = %v, want >= %v", name, v, min)
		}
	}

	// Tear everything back down through the API.
	for ti := 0; ti < tenants; ti++ {
		tid := fmt.Sprintf("tenant-%02d", ti)
		if rec := call(t, srv, "DELETE", "/v1/tenants/"+tid, ""); rec.Code != http.StatusAccepted {
			t.Fatalf("delete %s: %d %s", tid, rec.Code, rec.Body)
		}
	}
	for i := 0; i < 2; i++ {
		if _, err := svc.Step(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	rec = call(t, srv, "GET", "/v1/fleet", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &sum); err != nil {
		t.Fatal(err)
	}
	if sum.Instances != 0 || sum.Tenants != 0 || sum.Deprovisions != tenants*dbs {
		t.Fatalf("drained summary = %+v", sum)
	}
	metrics = call(t, srv2(svc), "GET", "/metrics", "").Body.String()
	if !strings.Contains(metrics, "autodbaas_fleet_instances 0") {
		t.Fatalf("/metrics missing drained instance gauge")
	}
}

// metricValue pulls one unlabelled family's value out of Prometheus
// text exposition.
func metricValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(strings.TrimSpace(rest), 64)
			if err != nil {
				t.Fatalf("/metrics %s: unparsable value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("/metrics missing %s", name)
	return 0
}

// srv2 mounts the fleet API next to /metrics the way the CLI's fleet service does.
func srv2(svc *fleet.Service) http.Handler {
	mux := http.NewServeMux()
	mux.Handle("/v1/", NewFleetServer(svc))
	mux.Handle("/metrics", NewObsHandler(nil, nil))
	return mux
}

// TestFleetAPICatalogue smoke-tests the read-only catalogue routes.
func TestFleetAPICatalogue(t *testing.T) {
	srv := NewFleetServer(newFleetService(t, 4))
	var tiers []tenant.Tier
	if rec := call(t, srv, "GET", "/v1/tiers", ""); rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &tiers) != nil || len(tiers) != 1 {
		t.Fatalf("tiers: %d %s", rec.Code, rec.Body)
	}
	var bps []tenant.Blueprint
	if rec := call(t, srv, "GET", "/v1/blueprints", ""); rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &bps) != nil || len(bps) != 1 {
		t.Fatalf("blueprints: %d %s", rec.Code, rec.Body)
	}
	var list []fleet.TenantStatus
	if rec := call(t, srv, "GET", "/v1/tenants", ""); rec.Code != 200 || json.Unmarshal(rec.Body.Bytes(), &list) != nil || len(list) != 0 {
		t.Fatalf("tenants: %d %s", rec.Code, rec.Body)
	}
}

// TestFleetAPIRebalance drives the rebalance route end to end on a
// two-shard fleet, plus its error paths on flat and sharded layouts.
func TestFleetAPIRebalance(t *testing.T) {
	svc, err := fleet.New(fleet.Config{
		Seed: 5,
		Tiers: map[string]tenant.Tier{
			"std": {Name: "std", MaxInstances: 4, AllowedPlans: []string{"t2.medium", "t2.large"}, WarmupWindows: 1},
		},
		Blueprints: map[string]tenant.Blueprint{
			"oltp": {Name: "oltp", Engine: "postgres", Plan: "t2.medium",
				Workload: tenant.WorkloadSpec{Class: "tpcc", SizeGiB: 2, Rate: 1000}},
		},
		Shards: []shard.Config{
			{Name: "s0", Seed: 100, Parallelism: 1},
			{Name: "s1", Seed: 200, Parallelism: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := NewFleetServer(svc)

	if rec := call(t, srv, "POST", "/v1/tenants", `{"id":"acme","tier":"std"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create tenant: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, srv, "POST", "/v1/tenants/acme/databases", `{"id":"orders","blueprint":"oltp"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create database: %d %s", rec.Code, rec.Body)
	}

	// Pending databases have no live state to move yet.
	if rec := call(t, srv, "POST", "/v1/tenants/acme/databases/orders/rebalance", `{"shard":"s1"}`); rec.Code != http.StatusConflict {
		t.Fatalf("rebalance before provisioning: %d %s", rec.Code, rec.Body)
	}
	for i := 0; i < 3; i++ {
		if _, err := svc.Step(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}

	var db fleet.DatabaseStatus
	rec := call(t, srv, "GET", "/v1/tenants/acme/databases/orders", "")
	if err := json.Unmarshal(rec.Body.Bytes(), &db); err != nil {
		t.Fatal(err)
	}
	if db.Shard == "" {
		t.Fatalf("no hosting shard in status: %s", rec.Body)
	}
	to := "s0"
	if db.Shard == "s0" {
		to = "s1"
	}

	rec = call(t, srv, "POST", "/v1/tenants/acme/databases/orders/rebalance", fmt.Sprintf(`{"shard":%q}`, to))
	if rec.Code != http.StatusOK {
		t.Fatalf("rebalance: %d %s", rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &db); err != nil {
		t.Fatal(err)
	}
	if db.Shard != to {
		t.Fatalf("rebalance response shard = %q, want %q", db.Shard, to)
	}
	if _, err := svc.Step(5 * time.Minute); err != nil {
		t.Fatal(err)
	}

	// Error paths: body, unknown target, unknown database.
	if rec := call(t, srv, "POST", "/v1/tenants/acme/databases/orders/rebalance", `{}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("shardless rebalance: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, srv, "POST", "/v1/tenants/acme/databases/orders/rebalance", `{"shard":"ghost"}`); rec.Code >= 200 && rec.Code < 300 {
		t.Fatalf("rebalance to unknown shard accepted: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, srv, "POST", "/v1/tenants/acme/databases/ghost/rebalance", `{"shard":"s0"}`); rec.Code != http.StatusNotFound {
		t.Fatalf("rebalance of unknown database: %d %s", rec.Code, rec.Body)
	}

	// A flat fleet rejects the route as invalid.
	flat := newFleetService(t, 4)
	flatSrv := NewFleetServer(flat)
	if rec := call(t, flatSrv, "POST", "/v1/tenants", `{"id":"acme","tier":"std"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create tenant: %d %s", rec.Code, rec.Body)
	}
	if rec := call(t, flatSrv, "POST", "/v1/tenants/acme/databases", `{"id":"orders","blueprint":"oltp"}`); rec.Code != http.StatusCreated {
		t.Fatalf("create database: %d %s", rec.Code, rec.Body)
	}
	if _, err := flat.Step(5 * time.Minute); err != nil {
		t.Fatal(err)
	}
	if rec := call(t, flatSrv, "POST", "/v1/tenants/acme/databases/orders/rebalance", `{"shard":"s0"}`); rec.Code != http.StatusBadRequest {
		t.Fatalf("rebalance on flat fleet: %d %s", rec.Code, rec.Body)
	}
}
