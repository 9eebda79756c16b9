package httpapi

import (
	"errors"
	"fmt"
	"net/http"

	"autodbaas/internal/fleet"
	"autodbaas/internal/tenant"
)

// FleetServer serves the multi-tenant fleet control-plane API:
//
//	POST   /v1/tenants                          declare a tenant
//	GET    /v1/tenants                          list tenants
//	GET    /v1/tenants/{id}                     one tenant
//	DELETE /v1/tenants/{id}                     drain + remove a tenant
//	POST   /v1/tenants/{id}/databases           declare a database
//	GET    /v1/tenants/{id}/databases/{db}      one database
//	PATCH  /v1/tenants/{id}/databases/{db}      resize (move plans)
//	DELETE /v1/tenants/{id}/databases/{db}      drain + deprovision
//	POST   /v1/tenants/{id}/databases/{db}/rebalance   move between shards
//	GET    /v1/fleet                            fleet-wide summary
//	GET    /v1/tiers                            tier catalogue
//	GET    /v1/blueprints                       blueprint catalogue
//
// Mutations edit desired state only; the reconcile loop applies them at
// the next virtual-time tick, so a rejected request (4xx) never has
// engine side effects.
type FleetServer struct {
	svc *fleet.Service
	mux *http.ServeMux
}

// NewFleetServer wraps a fleet service.
func NewFleetServer(svc *fleet.Service) *FleetServer {
	s := &FleetServer{svc: svc, mux: http.NewServeMux()}
	s.mux.HandleFunc("POST /v1/tenants", s.createTenant)
	s.mux.HandleFunc("GET /v1/tenants", s.listTenants)
	s.mux.HandleFunc("GET /v1/tenants/{id}", s.getTenant)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}", s.deleteTenant)
	s.mux.HandleFunc("POST /v1/tenants/{id}/databases", s.createDatabase)
	s.mux.HandleFunc("GET /v1/tenants/{id}/databases/{db}", s.getDatabase)
	s.mux.HandleFunc("PATCH /v1/tenants/{id}/databases/{db}", s.resizeDatabase)
	s.mux.HandleFunc("DELETE /v1/tenants/{id}/databases/{db}", s.deleteDatabase)
	s.mux.HandleFunc("POST /v1/tenants/{id}/databases/{db}/rebalance", s.rebalanceDatabase)
	s.mux.HandleFunc("GET /v1/fleet", s.summary)
	s.mux.HandleFunc("GET /v1/tiers", s.tiers)
	s.mux.HandleFunc("GET /v1/blueprints", s.blueprints)
	return s
}

// ServeHTTP implements http.Handler.
func (s *FleetServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// writeFleetError maps the service's typed errors onto status codes.
func writeFleetError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, fleet.ErrNotFound):
		writeError(w, http.StatusNotFound, err)
	case errors.Is(err, fleet.ErrConflict):
		writeError(w, http.StatusConflict, err)
	case errors.Is(err, fleet.ErrInvalid):
		writeError(w, http.StatusBadRequest, err)
	default:
		writeError(w, http.StatusInternalServerError, err)
	}
}

func (s *FleetServer) createTenant(w http.ResponseWriter, r *http.Request) {
	var t tenant.Tenant
	if !decodeBody(w, r, &t, "tenant") {
		return
	}
	if err := s.svc.CreateTenant(t); err != nil {
		writeFleetError(w, err)
		return
	}
	st, _ := s.svc.GetTenant(t.ID)
	writeJSON(w, http.StatusCreated, st)
}

func (s *FleetServer) listTenants(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.ListTenants())
}

func (s *FleetServer) getTenant(w http.ResponseWriter, r *http.Request) {
	st, ok := s.svc.GetTenant(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("tenant %q not found", r.PathValue("id")))
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *FleetServer) deleteTenant(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.DeleteTenant(r.PathValue("id")); err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]bool{"deleting": true})
}

func (s *FleetServer) createDatabase(w http.ResponseWriter, r *http.Request) {
	var spec fleet.DatabaseSpec
	if !decodeBody(w, r, &spec, "database spec") {
		return
	}
	tid := r.PathValue("id")
	if err := s.svc.CreateDatabase(tid, spec); err != nil {
		writeFleetError(w, err)
		return
	}
	db, _ := s.svc.GetDatabase(tid, spec.ID)
	writeJSON(w, http.StatusCreated, db)
}

func (s *FleetServer) getDatabase(w http.ResponseWriter, r *http.Request) {
	db, ok := s.svc.GetDatabase(r.PathValue("id"), r.PathValue("db"))
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("database %q/%q not found", r.PathValue("id"), r.PathValue("db")))
		return
	}
	writeJSON(w, http.StatusOK, db)
}

// resizeRequest is the PATCH body: the plan to move the database onto.
type resizeRequest struct {
	Plan string `json:"plan"`
}

func (s *FleetServer) resizeDatabase(w http.ResponseWriter, r *http.Request) {
	var req resizeRequest
	if !decodeBody(w, r, &req, "resize request") {
		return
	}
	if req.Plan == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("resize request needs a plan"))
		return
	}
	tid, did := r.PathValue("id"), r.PathValue("db")
	if err := s.svc.ResizeDatabase(tid, did, req.Plan); err != nil {
		writeFleetError(w, err)
		return
	}
	db, _ := s.svc.GetDatabase(tid, did)
	writeJSON(w, http.StatusAccepted, db)
}

// rebalanceRequest is the POST body: the shard to move the database to.
type rebalanceRequest struct {
	Shard string `json:"shard"`
}

// rebalanceDatabase moves a database's live state onto another shard.
// Unlike the other mutations this acts on the engine immediately — the
// instance's tuned config, monitor series and tuner history migrate
// via the checkpoint codec, and desired state is untouched.
func (s *FleetServer) rebalanceDatabase(w http.ResponseWriter, r *http.Request) {
	var req rebalanceRequest
	if !decodeBody(w, r, &req, "rebalance request") {
		return
	}
	if req.Shard == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("rebalance request needs a shard"))
		return
	}
	tid, did := r.PathValue("id"), r.PathValue("db")
	if err := s.svc.Rebalance(tid, did, req.Shard); err != nil {
		writeFleetError(w, err)
		return
	}
	db, _ := s.svc.GetDatabase(tid, did)
	writeJSON(w, http.StatusOK, db)
}

func (s *FleetServer) deleteDatabase(w http.ResponseWriter, r *http.Request) {
	if err := s.svc.DeleteDatabase(r.PathValue("id"), r.PathValue("db")); err != nil {
		writeFleetError(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]bool{"deleting": true})
}

func (s *FleetServer) summary(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Summary())
}

func (s *FleetServer) tiers(w http.ResponseWriter, r *http.Request) {
	cat := s.svc.Tiers()
	out := make([]tenant.Tier, 0, len(cat))
	for _, name := range tenant.Names(cat) {
		out = append(out, cat[name])
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *FleetServer) blueprints(w http.ResponseWriter, r *http.Request) {
	cat := s.svc.Blueprints()
	out := make([]tenant.Blueprint, 0, len(cat))
	for _, name := range tenant.Names(cat) {
		out = append(out, cat[name])
	}
	writeJSON(w, http.StatusOK, out)
}
