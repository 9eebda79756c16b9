package scenario

import (
	"strings"
	"testing"

	"autodbaas/internal/fleet"
	"autodbaas/internal/tenant"
	"autodbaas/internal/workload"
)

// validDoc is the smallest scenario every invalid-case test mutates.
const validDoc = `name: t
seed: 1
window: 30m
duration: 2h
tenants:
  - id: a
    tier: dev
    databases:
      - id: db
        blueprint: pg-oltp-small
`

func TestParseValid(t *testing.T) {
	sc, err := Parse(validDoc)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if sc.Name != "t" || sc.Seed != 1 || len(sc.Tenants) != 1 {
		t.Fatalf("Parse: unexpected scenario %+v", sc)
	}
	p, err := sc.Compile()
	if err != nil {
		t.Fatalf("Compile: %v", err)
	}
	if p.Windows != 4 || p.TotalProvisions != 1 || p.PeakInstances != 1 {
		t.Fatalf("Compile: windows=%d provisions=%d peak=%d", p.Windows, p.TotalProvisions, p.PeakInstances)
	}
}

// TestInvalidScenarios is the schema-error table: every case must be
// rejected by Parse or Compile with a message mentioning wantErr — and
// because all validation happens before a fleet exists, a rejected
// scenario can never have mutated one.
func TestInvalidScenarios(t *testing.T) {
	cases := []struct {
		name    string
		src     string
		wantErr string
	}{
		{"empty document", "", "empty"},
		{"unknown root key", validDoc + "bogus: 1\n", `unknown key "bogus"`},
		{"bad name", strings.Replace(validDoc, "name: t", "name: Bad Name!", 1), "identifier"},
		{"window too small", strings.Replace(validDoc, "window: 30m", "window: 30s", 1), "at least 1m"},
		{"window not whole minutes", strings.Replace(validDoc, "window: 30m", "window: 90s", 1), "whole minutes"},
		{"duration shorter than window", strings.Replace(validDoc, "duration: 2h", "duration: 10m", 1), "shorter than one window"},
		{"duration not whole windows", strings.Replace(validDoc, "duration: 2h", "duration: 100m", 1), "whole number"},
		{"negative slo", validDoc + "slo:\n  p99-ms: -1\n", "negative"},
		{"unknown fault profile", validDoc + "faults:\n  profile: catastrophic\n", "profile"},
		{"no tenants or events", "name: t\nseed: 1\nwindow: 30m\nduration: 2h\n", "no tenants"},
		{"duplicate tenant", strings.Replace(validDoc, "  - id: a\n", "  - id: a\n    tier: dev\n  - id: a\n", 1), "twice"},
		{"tenant missing tier", strings.Replace(validDoc, "    tier: dev\n", "", 1), "tier"},
		{"bad database id", strings.Replace(validDoc, "id: db", "id: UPPER", 1), "identifier"},
		{"duplicate database", strings.Replace(validDoc,
			"      - id: db\n", "      - id: db\n        blueprint: pg-oltp-small\n      - id: db\n", 1), "twice"},
		{"database missing blueprint", strings.Replace(validDoc, "        blueprint: pg-oltp-small\n", "", 1), "blueprint"},
		{"unknown blueprint", strings.Replace(validDoc, "pg-oltp-small", "no-such-bp", 1), "unknown blueprint"},
		{"unknown tier", strings.Replace(validDoc, "tier: dev", "tier: platinum", 1), "unknown tier"},
		{"plan not in tier", strings.Replace(validDoc,
			"        blueprint: pg-oltp-small\n", "        blueprint: pg-oltp-small\n        plan: m4.xlarge\n", 1), "does not allow"},
		{"unknown plan", strings.Replace(validDoc,
			"        blueprint: pg-oltp-small\n", "        blueprint: pg-oltp-small\n        plan: t9.mega\n", 1), "t9.mega"},
		{"diurnal zero trough", validDoc + `        load:
          - diurnal: {peak: 1.2, trough: 0, peak-at: 10h}
`, "trough"},
		{"diurnal negative peak", validDoc + `        load:
          - diurnal: {peak: -2, trough: 0.5, peak-at: 10h}
`, "factor"},
		{"diurnal peak-at out of range", validDoc + `        load:
          - diurnal: {peak: 1.2, trough: 0.5, peak-at: 25h}
`, "peak"},
		{"spike zero duration", validDoc + `        load:
          - spike: {at: 1h, for: 0m, x: 2}
`, "duration"},
		{"spike negative start", validDoc + `        load:
          - spike: {at: -1h, for: 30m, x: 2}
`, ""},
		{"batch period shorter than burst", validDoc + `        load:
          - batch: {start: 0m, every: 1h, for: 2h, x: 2}
`, "period"},
		{"unknown load term", validDoc + `        load:
          - sawtooth: {x: 2}
`, "sawtooth"},
		{"load not whole minutes", validDoc + `        load:
          - spike: {at: 90s, for: 30m, x: 2}
`, "whole minutes"},
		{"event off window boundary", validDoc + `events:
  - at: 45m
    delete-database:
      tenant: a
      id: db
`, "window boundary"},
		{"event past scenario end", validDoc + `events:
  - at: 2h
    delete-database:
      tenant: a
      id: db
`, "past the scenario end"},
		{"event with two actions", validDoc + `events:
  - at: 30m
    delete-database:
      tenant: a
      id: db
    delete-tenant:
      id: a
`, "exactly one action"},
		{"event missing at", validDoc + `events:
  - delete-tenant:
      id: a
`, `"at"`},
		{"unknown event kind", validDoc + `events:
  - at: 30m
    explode:
      id: a
`, "unknown event kind"},
		{"delete unknown database", validDoc + `events:
  - at: 30m
    delete-database:
      tenant: a
      id: nope
`, "unknown database"},
		{"double delete conflicts", validDoc + `events:
  - at: 30m
    delete-database:
      tenant: a
      id: db
  - at: 30m
    delete-database:
      tenant: a
      id: db
`, "already being deprovisioned"},
		{"create on deleted tenant", validDoc + `events:
  - at: 30m
    delete-tenant:
      id: a
  - at: 30m
    create-database:
      tenant: a
      id: late
      blueprint: pg-oltp-small
`, "deprovisioned"},
		{"resize to same plan", validDoc + `events:
  - at: 30m
    resize:
      tenant: a
      id: db
      plan: t2.medium
`, "already on plan"},
		{"resize unknown tenant", validDoc + `events:
  - at: 30m
    resize:
      tenant: ghost
      id: db
      plan: t2.small
`, "unknown tenant"},
		{"quota exceeded", validDoc + `events:
  - at: 30m
    onboard-wave:
      prefix: w
      count: 1
      tier: dev
      blueprint: pg-oltp-small
      databases: 5
`, "quota"},
		{"wave count out of range", validDoc + `events:
  - at: 30m
    onboard-wave:
      prefix: w
      count: 200
      every: 30m
      tier: dev
      blueprint: pg-oltp-small
`, "count"},
		{"wave needs stagger", validDoc + `events:
  - at: 30m
    onboard-wave:
      prefix: w
      count: 2
      tier: dev
      blueprint: pg-oltp-small
`, "stagger"},
		{"wave stagger off windows", validDoc + `events:
  - at: 30m
    onboard-wave:
      prefix: w
      count: 2
      every: 45m
      tier: dev
      blueprint: pg-oltp-small
`, "whole number"},
		{"wave offboard past end", validDoc + `events:
  - at: 30m
    onboard-wave:
      prefix: w
      count: 1
      tier: dev
      blueprint: pg-oltp-small
      offboard-after: 4h
`, "past the scenario end"},
		{"event tenant id not an identifier", validDoc + `events:
  - at: 30m
    create-tenant:
      id: Bad_Tenant
      tier: dev
`, "tenant ID"},
		{"wave tenant id too long", validDoc + `events:
  - at: 30m
    onboard-wave:
      prefix: ` + strings.Repeat("w", 62) + `
      count: 1
      tier: dev
      blueprint: pg-oltp-small
`, "tenant ID"},
		{"tab indentation", "name: t\n\tseed: 1\n", "tab"},
		{"non-integer seed", strings.Replace(validDoc, "seed: 1", "seed: one", 1), "integer"},
		{"never provisions", `name: t
seed: 1
window: 30m
duration: 1h
events:
  - at: 30m
    create-tenant:
      id: a
      tier: dev
`, "never provisions"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sc, err := Parse(tc.src)
			if err == nil {
				_, err = sc.Compile()
			}
			if err == nil {
				t.Fatalf("scenario accepted:\n%s", tc.src)
			}
			if tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestRejectedActionsLeaveFleetUnmutated drives the same mutations the
// compiler rejects against a live fleet and proves failed applies are
// no-ops: the fleet's summary and fingerprint are unchanged.
func TestRejectedActionsLeaveFleetUnmutated(t *testing.T) {
	sc, err := Parse(validDoc)
	if err != nil {
		t.Fatal(err)
	}
	p, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	r, err := NewRunner(p, RunConfig{Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	svc := r.Service()
	for _, a := range p.Actions {
		if err := a.apply(svc); err != nil {
			t.Fatalf("apply %s: %v", a.Kind, err)
		}
	}
	if _, err := svc.Step(sc.Window); err != nil {
		t.Fatal(err)
	}
	before, err := svc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	beforeSum := svc.Summary()

	bad := []Action{
		{Kind: ActCreateTenant, Tenant: "a", Tier: "dev"},                                                         // duplicate tenant
		{Kind: ActCreateTenant, Tenant: "b", Tier: "platinum"},                                                    // unknown tier
		{Kind: ActCreateDatabase, Tenant: "ghost", Spec: fleet.DatabaseSpec{ID: "x", Blueprint: "pg-oltp-small"}}, // unknown tenant
		{Kind: ActCreateDatabase, Tenant: "a", Spec: fleet.DatabaseSpec{ID: "db", Blueprint: "pg-oltp-small"}},    // duplicate db
		{Kind: ActCreateDatabase, Tenant: "a", Spec: fleet.DatabaseSpec{ID: "y", Blueprint: "nope"}},              // unknown blueprint
		{Kind: ActCreateDatabase, Tenant: "a", Spec: fleet.DatabaseSpec{ID: "z", Blueprint: "pg-analytics"}},      // plan outside tier
		{Kind: ActDeleteDatabase, Tenant: "a", Database: "nope"},                                                  // unknown db
		{Kind: ActResize, Tenant: "a", Database: "db", Plan: "t2.medium"},                                         // same plan
		{Kind: ActResize, Tenant: "a", Database: "db", Plan: "m4.xlarge"},                                         // plan outside tier
	}
	for _, a := range bad {
		if err := a.apply(svc); err == nil {
			t.Fatalf("bad action %s %s unexpectedly succeeded", a.Kind, a.Tenant)
		}
	}

	after, err := svc.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if fingerprintHash(before) != fingerprintHash(after) {
		t.Fatalf("fingerprint changed after rejected actions: %s -> %s",
			fingerprintHash(before), fingerprintHash(after))
	}
	if beforeSum != svc.Summary() {
		t.Fatalf("summary changed after rejected actions: %+v -> %+v", beforeSum, svc.Summary())
	}
}

// TestShapePlumbing checks a shaped spec survives the
// WorkloadSpec.Build seam: the shape multiplies the base rate.
func TestShapePlumbing(t *testing.T) {
	src := validDoc + `        load:
          - scale: {x: 0.25}
`
	sc, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	decl := sc.Tenants[0].Databases[0]
	if len(decl.Load.Terms) != 1 || decl.Load.Terms[0].Factor != 0.25 {
		t.Fatalf("load terms not decoded: %+v", decl.Load)
	}
	spec := tenant.WorkloadSpec{Class: "ycsb", SizeGiB: 1, Rate: 1000, Mix: 0.5, Shape: &decl.Load}
	gen, err := spec.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := gen.RequestRate(workload.SimEpoch); got != 250 {
		t.Fatalf("shaped rate = %v, want 250", got)
	}
}
