package httpapi

import (
	"context"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// TestRepositoryOverUnixSocket: Serve answers on a unix domain socket as
// it does on TCP — a tenant declared over the socket reaches the fleet —
// and shuts down cleanly when its context ends.
func TestRepositoryOverUnixSocket(t *testing.T) {
	svc := newFleetService(t, 4)
	sock := filepath.Join(t.TempDir(), "fleet.sock")
	l, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- Serve(ctx, l, NewFleetServer(svc)) }()

	hc := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, _, _ string) (net.Conn, error) {
			var d net.Dialer
			return d.DialContext(ctx, "unix", sock)
		},
	}}
	resp, err := hc.Post("http://unix/v1/tenants", "application/json", strings.NewReader(`{"id":"acme","tier":"std"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated || len(svc.ListTenants()) != 1 {
		t.Fatalf("POST over unix socket = %d, tenants = %d", resp.StatusCode, len(svc.ListTenants()))
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

// TestHTTPMethodValidation: a route answers 405 to a method it does not
// serve and 200 to one it does.
func TestHTTPMethodValidation(t *testing.T) {
	srv := NewFleetServer(newFleetService(t, 4))
	if rec := call(t, srv, "GET", "/v1/tenants/t1/databases", ""); rec.Code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/tenants/t1/databases = %d, want 405", rec.Code)
	}
	if rec := call(t, srv, "GET", "/v1/fleet", ""); rec.Code != http.StatusOK {
		t.Fatalf("GET /v1/fleet = %d", rec.Code)
	}
}

// TestOversizeBodyRejected posts a body twice the cap to every route
// that decodes one; each must answer 413 without acting on it. The
// routes run in parallel because the server lingers before closing a
// connection whose body it left unread.
func TestOversizeBodyRejected(t *testing.T) {
	svc := newFleetService(t, 4)
	fleetSrv := NewFleetServer(svc)
	huge := `{"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	routes := []struct{ method, path string }{
		{"POST", "/v1/tenants"},
		{"POST", "/v1/tenants/t1/databases"},
		{"PATCH", "/v1/tenants/t1/databases/d1"},
		{"POST", "/v1/tenants/t1/databases/d1/rebalance"},
	}
	t.Run("routes", func(t *testing.T) {
		for _, tc := range routes {
			t.Run(tc.method+tc.path, func(t *testing.T) {
				t.Parallel()
				if rec := call(t, fleetSrv, tc.method, tc.path, huge); rec.Code != http.StatusRequestEntityTooLarge {
					t.Errorf("2 MiB body = %d, want 413 (%.80s)", rec.Code, rec.Body)
				}
			})
		}
	})
	if len(svc.ListTenants()) != 0 {
		t.Fatalf("oversize bodies mutated state: %d tenants", len(svc.ListTenants()))
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
	loris := newServer(NewFleetServer(newFleetService(t, 4)))
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
	if _, err := conn.Write([]byte("GET /v1/ten")); err != nil {
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
