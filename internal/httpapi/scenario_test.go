package httpapi

import (
	"encoding/json"
	"testing"

	"autodbaas/internal/scenario"
)

func TestScenarioServerStatus(t *testing.T) {
	st := scenario.Status{
		Scenario: "diurnal", Window: 7, Windows: 48, VirtualMin: 210,
		Tenants: 2, Instances: 3, Throttles: 11, SLOViolations: 1,
		ActionsDone: 4, ActionsTotal: 6,
	}
	srv := NewScenarioServer(func() scenario.Status { return st })

	rec := call(t, srv, "GET", "/v1/scenario", "")
	if rec.Code != 200 {
		t.Fatalf("GET /v1/scenario = %d, want 200", rec.Code)
	}
	var got scenario.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if got != st {
		t.Fatalf("status round-trip: got %+v, want %+v", got, st)
	}

	rec = call(t, srv, "POST", "/v1/scenario", "")
	if rec.Code != 405 {
		t.Fatalf("POST /v1/scenario = %d, want 405", rec.Code)
	}
}
