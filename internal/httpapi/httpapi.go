// Package httpapi exposes the AutoDBaaS control-plane services over
// HTTP: the central data repository (sample upload) and the config
// director (TDE events, periodic tuning requests, counters). Servers
// bind any net.Listener, so agents on the database VM can reach their
// local endpoints over unix domain sockets while cross-IaaS traffic uses
// TCP — mirroring the paper's deployment.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"time"

	"autodbaas/internal/director"
	"autodbaas/internal/knobs"
	"autodbaas/internal/repository"
	"autodbaas/internal/tde"
	"autodbaas/internal/tuner"
)

// ---- wire types ----

// wireEvent is tde.Event on the wire; an absent Entropy decodes as NaN.
type wireEvent struct {
	At         time.Time `json:"at"`
	Kind       int       `json:"kind"`
	Class      int       `json:"class"`
	Knob       string    `json:"knob"`
	Entropy    *float64  `json:"entropy,omitempty"`
	WorkingSet float64   `json:"working_set"`
	Reason     string    `json:"reason"`
}

func fromWireEvent(w wireEvent) tde.Event {
	ev := tde.Event{
		At: w.At, Kind: tde.EventKind(w.Kind), Class: knobs.Class(w.Class),
		Knob: w.Knob, WorkingSet: w.WorkingSet, Reason: w.Reason,
		Entropy: math.NaN(),
	}
	if w.Entropy != nil {
		ev.Entropy = *w.Entropy
	}
	return ev
}

// eventRequest is the director's event-intake payload.
type eventRequest struct {
	InstanceID string        `json:"instance_id"`
	Event      wireEvent     `json:"event"`
	Request    tuner.Request `json:"request"`
}

// tuningRequest is the periodic-mode intake payload.
type tuningRequest struct {
	InstanceID string        `json:"instance_id"`
	Request    tuner.Request `json:"request"`
}

// countersResponse reports director counters.
type countersResponse struct {
	TuningRequests  int `json:"tuning_requests"`
	Recommendations int `json:"recommendations"`
	ApplyFailures   int `json:"apply_failures"`
	PlanUpgrades    int `json:"plan_upgrades"`
}

type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

// maxBodyBytes caps every request body a handler decodes, so one client
// cannot make the server buffer a JSON value of any size.
const maxBodyBytes = 1 << 20

// decodeBody decodes r's JSON body into v, reading at most maxBodyBytes.
// On failure it answers the request itself — 413 past the cap, 400 for
// malformed JSON, what naming the payload — and returns false.
func decodeBody(w http.ResponseWriter, r *http.Request, v interface{}, what string) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(v)
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("decode %s: body exceeds %d bytes", what, maxBodyBytes))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("decode %s: %w", what, err))
	}
	return false
}

// ---- repository service ----

// RepositoryServer serves the central data repository API.
type RepositoryServer struct {
	repo *repository.Repository
	mux  *http.ServeMux
}

// NewRepositoryServer wraps a repository.
func NewRepositoryServer(repo *repository.Repository) *RepositoryServer {
	s := &RepositoryServer{repo: repo, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/samples", s.handleSamples)
	s.mux.HandleFunc("/v1/stats", s.handleStats)
	return s
}

// ServeHTTP implements http.Handler.
func (s *RepositoryServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *RepositoryServer) handleSamples(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var sm tuner.Sample
	if !decodeBody(w, r, &sm, "sample") {
		return
	}
	if err := s.repo.Observe(sm); err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]int{"stored": s.repo.Len()})
}

func (s *RepositoryServer) handleStats(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	writeJSON(w, http.StatusOK, map[string]interface{}{
		"samples":        s.repo.Len(),
		"workloads":      s.repo.Store().Workloads(),
		"pending_fanout": s.repo.Pending(),
	})
}

// ---- director service ----

// DirectorServer serves the config-director API.
type DirectorServer struct {
	dir *director.Director
	mux *http.ServeMux
}

// NewDirectorServer wraps a director.
func NewDirectorServer(dir *director.Director) *DirectorServer {
	s := &DirectorServer{dir: dir, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/events", s.handleEvents)
	s.mux.HandleFunc("/v1/tuning-requests", s.handleTuning)
	s.mux.HandleFunc("/v1/counters", s.handleCounters)
	s.mux.HandleFunc("/v1/maintenance", s.handleMaintenance)
	s.mux.HandleFunc("/v1/upgrade-requests", s.handleUpgrades)
	return s
}

// ServeHTTP implements http.Handler.
func (s *DirectorServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *DirectorServer) handleEvents(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req eventRequest
	if !decodeBody(w, r, &req, "event") {
		return
	}
	if err := s.dir.HandleEvent(req.InstanceID, fromWireEvent(req.Event), req.Request); err != nil {
		if errors.Is(err, tuner.ErrNotTrained) {
			// Bootstrap condition, not a failure: the request was
			// accepted and counted; there is just no model yet.
			writeJSON(w, http.StatusAccepted, map[string]interface{}{"accepted": false, "reason": err.Error()})
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]bool{"accepted": true})
}

func (s *DirectorServer) handleTuning(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req tuningRequest
	if !decodeBody(w, r, &req, "tuning request") {
		return
	}
	if err := s.dir.RequestTuning(req.InstanceID, req.Request); err != nil {
		if errors.Is(err, tuner.ErrNotTrained) {
			writeJSON(w, http.StatusAccepted, map[string]interface{}{"accepted": false, "reason": err.Error()})
			return
		}
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusAccepted, map[string]bool{"accepted": true})
}

func (s *DirectorServer) handleCounters(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	tr, rec, fail, up := s.dir.Counters()
	writeJSON(w, http.StatusOK, countersResponse{
		TuningRequests: tr, Recommendations: rec, ApplyFailures: fail, PlanUpgrades: up,
	})
}

// instanceRequest addresses one instance.
type instanceRequest struct {
	InstanceID string `json:"instance_id"`
}

func (s *DirectorServer) handleMaintenance(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	var req instanceRequest
	if !decodeBody(w, r, &req, "maintenance request") {
		return
	}
	if err := s.dir.MaintenanceWindowByID(req.InstanceID); err != nil {
		writeError(w, http.StatusUnprocessableEntity, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]bool{"done": true})
}

func (s *DirectorServer) handleUpgrades(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	id := r.URL.Query().Get("instance_id")
	if id == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("missing instance_id"))
		return
	}
	writeJSON(w, http.StatusOK, map[string]int{"pending": s.dir.PendingUpgradeRequests(id)})
}

// newServer builds the http.Server every autodbaas endpoint runs on.
// The read and idle deadlines ensure a client that dribbles header
// bytes (slow loris) or parks an open connection cannot pin a server
// goroutine forever. Handlers stream nothing long-lived, so a bounded
// ReadTimeout is safe for every route.
func newServer(h http.Handler) *http.Server {
	return &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		IdleTimeout:       2 * time.Minute,
	}
}

// Serve runs an http.Handler on a listener until the context ends.
func Serve(ctx context.Context, l net.Listener, h http.Handler) error {
	srv := newServer(h)
	done := make(chan struct{})
	go func() {
		<-ctx.Done()
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = srv.Shutdown(shutdownCtx)
		close(done)
	}()
	err := srv.Serve(l)
	<-done
	if err == http.ErrServerClosed {
		return nil
	}
	return err
}
