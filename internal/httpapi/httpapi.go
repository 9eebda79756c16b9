// Package httpapi exposes the AutoDBaaS control plane over HTTP: the
// fleet service's tenant REST API (FleetServer), its snapshots
// (CheckpointServer), a scenario replay's progress (ScenarioServer) and
// the process's metrics, spans and pprof (ObsHandler). The director and
// repository are reached through the fleet, and report through
// /metrics, on every shard layout. Serve binds any net.Listener, so the
// same handlers answer over TCP or a unix domain socket.
package httpapi

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"time"
)

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
