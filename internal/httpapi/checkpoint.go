package httpapi

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"autodbaas/internal/checkpoint"
)

// Checkpointer is what the checkpoint endpoints need; fleet.Service
// implements it on every shard layout.
type Checkpointer interface {
	// CheckpointNow writes a snapshot into dir and returns its path,
	// named as checkpoint.SaveFile names it.
	CheckpointNow(dir string) (string, error)
	// LastCheckpoint returns the newest snapshot's path and window.
	LastCheckpoint() (string, int)
}

// CheckpointServer exposes on-demand snapshots over HTTP:
//
//	POST /v1/checkpoint        — write a snapshot now, return its metadata
//	GET  /v1/checkpoint/latest — stream the newest snapshot file
//
// Snapshots must be taken between fleet steps: the fleet service's
// CheckpointNow waits for a running step, exactly as its auto-
// checkpoints do.
type CheckpointServer struct {
	sys Checkpointer
	dir string
	mux *http.ServeMux
}

// NewCheckpointServer wraps a checkpointing service; dir is where
// on-demand snapshots land (shared with -checkpoint-dir in the cmds).
func NewCheckpointServer(sys Checkpointer, dir string) *CheckpointServer {
	s := &CheckpointServer{sys: sys, dir: dir, mux: http.NewServeMux()}
	s.mux.HandleFunc("/v1/checkpoint", s.handleCheckpoint)
	s.mux.HandleFunc("/v1/checkpoint/latest", s.handleLatest)
	return s
}

// ServeHTTP implements http.Handler.
func (s *CheckpointServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

func (s *CheckpointServer) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	path, err := s.sys.CheckpointNow(s.dir)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	// The window comes from the snapshot itself: a step may land
	// between CheckpointNow returning and this reply.
	window, err := checkpoint.SnapshotWindow(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	fi, err := os.Stat(path)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]interface{}{
		"path":   path,
		"window": window,
		"bytes":  fi.Size(),
	})
}

func (s *CheckpointServer) handleLatest(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet && r.Method != http.MethodHead {
		writeError(w, http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method))
		return
	}
	path, window := s.sys.LastCheckpoint()
	if path == "" {
		// Fall back to latest.ckpt so a restarted server can still serve
		// snapshots written by a previous process.
		path = filepath.Join(s.dir, "latest.ckpt")
		window = -1
	}
	f, err := os.Open(path)
	if err != nil {
		writeError(w, http.StatusNotFound, fmt.Errorf("no checkpoint available: %w", err))
		return
	}
	defer f.Close()
	w.Header().Set("Content-Type", "application/octet-stream")
	if window >= 0 {
		w.Header().Set("X-Checkpoint-Window", fmt.Sprint(window))
	}
	http.ServeContent(w, r, filepath.Base(path), fileModTime(f), f)
}

func fileModTime(f *os.File) time.Time {
	if fi, err := f.Stat(); err == nil {
		return fi.ModTime()
	}
	return time.Time{}
}
