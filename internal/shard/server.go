package shard

import (
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Server hosts one Local shard behind the wire protocol — the body of
// a cmd/autodbaas -worker process. The worker starts empty; the
// coordinator's "init" RPC supplies the shard Config (and, after a
// crash, a "restore" follows with the shard's snapshot), so worker
// processes are fungible: nothing about the shard lives in worker
// flags.
type Server struct {
	mu    sync.Mutex
	local *Local
}

// NewServer returns an uninitialized worker server.
func NewServer() *Server { return &Server{} }

// Local returns the hosted shard (nil before "init").
func (s *Server) Local() *Local {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.local
}

// Serve accepts coordinator connections until the listener closes.
// Each connection is a strict request/response stream; connections are
// served concurrently but requests against the shard serialize, so a
// coordinator reconnecting after a network blip cannot interleave with
// a stale connection mid-call.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handleConn(conn)
	}
}

// handleConn runs one connection's request loop. A malformed frame —
// including a "restore" request not followed by a blob — kills the
// connection (the framing is unrecoverable once desynced); an
// application error travels back in the response envelope.
func (s *Server) handleConn(conn net.Conn) {
	defer conn.Close()
	for {
		typ, payload, err := ReadFrame(conn)
		if err != nil || typ != FrameRequest {
			return
		}
		var req rpcRequest
		if err := json.Unmarshal(payload, &req); err != nil {
			return
		}
		var blob []byte
		if blobAfterRequest(req.Method) {
			if typ, blob, err = ReadFrame(conn); err != nil || typ != FrameBlob {
				return
			}
		}
		resp := rpcResponse{ID: req.ID}
		var out []byte
		result, err := s.dispatch(req.Method, req.Params, blob)
		switch {
		case err != nil:
			resp.Err = err.Error()
		case blobAfterResponse(req.Method):
			out = result.([]byte)
		case result != nil:
			raw, err := json.Marshal(result)
			if err != nil {
				resp.Err = fmt.Sprintf("shard: encode %s result: %v", req.Method, err)
			} else {
				resp.Result = raw
			}
		}
		raw, err := json.Marshal(resp)
		if err != nil {
			return
		}
		if err := WriteFrame(conn, FrameResponse, raw); err != nil {
			return
		}
		if blobAfterResponse(req.Method) {
			if err := WriteFrame(conn, FrameBlob, out); err != nil {
				return
			}
		}
	}
}

// shard returns the hosted Local, or an error for pre-init calls.
func (s *Server) shard() (*Local, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.local == nil {
		return nil, errors.New("shard: worker not initialized (no init call yet)")
	}
	return s.local, nil
}

// RPC parameter envelopes.
type idParams struct {
	ID string `json:"id"`
}

type resizeParams struct {
	ID    string      `json:"id"`
	Plan  string      `json:"plan"`
	Seed  int64       `json:"seed"`
	Agent AgentConfig `json:"agent"`
}

type stepParams struct {
	DurNS int64 `json:"dur_ns"`
}

// dispatch executes one RPC. Every method the Shard interface exposes
// has a wire twin; "init" and "ping" are worker lifecycle. blob is the
// snapshot a "restore" request carries; a "checkpoint" result is the
// snapshot bytes its response blob carries.
func (s *Server) dispatch(method string, params json.RawMessage, blob []byte) (any, error) {
	switch method {
	case "ping":
		return struct{}{}, nil

	case "init":
		var cfg Config
		if err := json.Unmarshal(params, &cfg); err != nil {
			return nil, fmt.Errorf("shard: init params: %w", err)
		}
		l, err := NewLocal(cfg)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		s.local = l
		s.mu.Unlock()
		return struct{}{}, nil

	case "add":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		var spec InstanceSpec
		if err := json.Unmarshal(params, &spec); err != nil {
			return nil, fmt.Errorf("shard: add params: %w", err)
		}
		return struct{}{}, l.AddInstance(spec)

	case "remove":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		var p idParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("shard: remove params: %w", err)
		}
		return struct{}{}, l.RemoveInstance(p.ID)

	case "resize":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		var p resizeParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("shard: resize params: %w", err)
		}
		return struct{}{}, l.ResizeInstance(p.ID, p.Plan, p.Seed, p.Agent)

	case "members":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		members, err := l.Members()
		if err != nil {
			return nil, err
		}
		return members, nil

	case "step":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		var p stepParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("shard: step params: %w", err)
		}
		return l.Step(time.Duration(p.DurNS))

	case "counters":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		return l.Counters()

	case "fingerprint":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		return l.Fingerprint()

	case "checkpoint":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		return l.Checkpoint()

	case "restore":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		return struct{}{}, l.Restore(blob)

	case "export":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		var p idParams
		if err := json.Unmarshal(params, &p); err != nil {
			return nil, fmt.Errorf("shard: export params: %w", err)
		}
		return l.ExportInstance(p.ID)

	case "import":
		l, err := s.shard()
		if err != nil {
			return nil, err
		}
		var exp InstanceExport
		if err := json.Unmarshal(params, &exp); err != nil {
			return nil, fmt.Errorf("shard: import params: %w", err)
		}
		return struct{}{}, l.ImportInstance(exp)

	default:
		return nil, fmt.Errorf("shard: unknown method %q", method)
	}
}
