package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/fleet"
	"autodbaas/internal/tenant"
)

// fakeCheckpointer writes a fixed snapshot blob of window 7, standing
// in for a fleet service so the handler test needs no fleet. Its
// Windows can run ahead of that snapshot, as a fleet's does when a step
// lands right after CheckpointNow returns.
type fakeCheckpointer struct {
	window  int
	last    string
	lastWin int
}

func (f *fakeCheckpointer) CheckpointNow(dir string) (string, error) {
	path, err := checkpoint.SaveFile(dir, 7, func(w io.Writer) error {
		_, err := io.WriteString(w, "ADBC-snapshot-bytes")
		return err
	})
	if err != nil {
		return "", err
	}
	f.last, f.lastWin = path, 7
	return path, nil
}
func (f *fakeCheckpointer) LastCheckpoint() (string, int) { return f.last, f.lastWin }
func (f *fakeCheckpointer) Windows() int                  { return f.window }

func TestCheckpointServerRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name    string
		windows int
	}{
		{"at the snapshot window", 7},
		{"a step past the snapshot", 8},
	} {
		t.Run(tc.name, func(t *testing.T) {
			checkCheckpointServerRoundTrip(t, &fakeCheckpointer{window: tc.windows})
		})
	}
}

// checkCheckpointServerRoundTrip posts a snapshot and streams it back:
// both the reply and the header name window 7, the snapshot's own.
func checkCheckpointServerRoundTrip(t *testing.T, fc *fakeCheckpointer) {
	dir := t.TempDir()
	srv := httptest.NewServer(NewCheckpointServer(fc, dir))
	defer srv.Close()

	// No snapshot yet: latest is a 404.
	resp, err := http.Get(srv.URL + "/v1/checkpoint/latest")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("latest before any snapshot: %s", resp.Status)
	}

	// POST writes one and reports its metadata.
	resp, err = http.Post(srv.URL+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("checkpoint: %s", resp.Status)
	}
	var meta struct {
		Path   string `json:"path"`
		Window int    `json:"window"`
		Bytes  int64  `json:"bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	if meta.Window != 7 || meta.Bytes != int64(len("ADBC-snapshot-bytes")) {
		t.Fatalf("metadata = %+v", meta)
	}

	// GET streams the snapshot back with its window in a header.
	resp, err = http.Get(srv.URL + "/v1/checkpoint/latest")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("latest: %s", resp.Status)
	}
	if got := resp.Header.Get("X-Checkpoint-Window"); got != "7" {
		t.Fatalf("window header = %q", got)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if string(body) != "ADBC-snapshot-bytes" {
		t.Fatalf("body = %q", body)
	}

	// Wrong methods are rejected.
	resp, err = http.Get(srv.URL + "/v1/checkpoint")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/checkpoint: %s", resp.Status)
	}
}

// steppedFleet is a small fleet service with two databases provisioned
// and stepped to window n.
func steppedFleet(t *testing.T, n int) *fleet.Service {
	t.Helper()
	svc := newFleetService(t, 4)
	if err := svc.CreateTenant(tenant.Tenant{ID: "acme", Tier: "std"}); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"orders", "users"} {
		if err := svc.CreateDatabase("acme", fleet.DatabaseSpec{ID: id, Blueprint: "oltp"}); err != nil {
			t.Fatal(err)
		}
	}
	for svc.Windows() < n {
		if _, err := svc.Step(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
	}
	return svc
}

// postCheckpoint takes one snapshot over HTTP and returns its path.
func postCheckpoint(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url+"/v1/checkpoint", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("checkpoint: %s %s", resp.Status, body)
	}
	var meta struct {
		Path string `json:"path"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&meta); err != nil {
		t.Fatal(err)
	}
	return meta.Path
}

// restoresLikeUninterrupted restores the snapshot at path into a fresh
// service and checks it matches a service stepped straight to the
// snapshot's window.
func restoresLikeUninterrupted(t *testing.T, path string) {
	t.Helper()
	resumed := newFleetService(t, 4)
	if err := resumed.RestoreLatest(filepath.Dir(path)); err != nil {
		t.Fatal(err)
	}
	got, err := resumed.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	want, err := steppedFleet(t, resumed.Windows()).Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("restored snapshot of window %d differs from the uninterrupted run:\n want %+v\n got  %+v", resumed.Windows(), want, got)
	}
}

// TestCheckpointServerFleetSnapshotRestores: a snapshot taken over HTTP
// from a fleet service is a whole fleet snapshot, so RestoreLatest
// resumes a fresh service from it.
func TestCheckpointServerFleetSnapshotRestores(t *testing.T) {
	dir := t.TempDir()
	srv := httptest.NewServer(NewCheckpointServer(steppedFleet(t, 3), dir))
	defer srv.Close()
	restoresLikeUninterrupted(t, postCheckpoint(t, srv.URL))
}

// TestCheckpointServerConcurrentWithSteps is the CLI fleet loop's shape:
// POST /v1/checkpoint while another goroutine steps the fleet. Every
// snapshot must wait for the running window (the race detector sees a
// snapshot that does not), and the last one restores to exactly the
// state of its window.
func TestCheckpointServerConcurrentWithSteps(t *testing.T) {
	dir := t.TempDir()
	svc := steppedFleet(t, 2)
	srv := httptest.NewServer(NewCheckpointServer(svc, dir))
	defer srv.Close()
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 10; i++ {
			if _, err := svc.Step(5 * time.Minute); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	var path string
	for i := 0; i < 5; i++ {
		path = postCheckpoint(t, srv.URL)
	}
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	restoresLikeUninterrupted(t, path)
}
