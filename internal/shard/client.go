package shard

import (
	"encoding/json"
	"fmt"
	"net"
	"sync"
	"time"

	"autodbaas/internal/core"
)

// Remote is the RPC-backed Shard: a thin proxy over one connection to a
// worker process hosting a Local. Every Shard method maps to exactly
// one request/response exchange; calls serialize on the connection.
type Remote struct {
	mu   sync.Mutex
	conn net.Conn
	name string
	next uint64
}

// Dial connects to a worker and verifies it speaks the protocol; Init
// then gives the worker its shard.
func Dial(network, addr string) (*Remote, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("shard: dial worker %s: %w", addr, err)
	}
	r := &Remote{conn: conn}
	if err := r.call("ping", nil, nil); err != nil {
		conn.Close()
		return nil, fmt.Errorf("shard: worker %s handshake: %w", addr, err)
	}
	return r, nil
}

// Init builds the worker's shard from cfg (replacing any previous one)
// and names this proxy after it.
func (r *Remote) Init(cfg Config) error {
	if err := r.call("init", cfg, nil); err != nil {
		return err
	}
	r.mu.Lock()
	r.name = cfg.Name
	r.mu.Unlock()
	return nil
}

// call performs one request/response exchange.
func (r *Remote) call(method string, params, result any) error {
	_, err := r.exchange(method, params, nil, result)
	return err
}

// exchange performs one call: the request frame, then blob as a
// FrameBlob if the method sends one, then the response frame and the
// FrameBlob the method returns, if any. The returned blob is read
// before the response's error is surfaced, so a failed call leaves the
// connection on a frame boundary.
func (r *Remote) exchange(method string, params any, blob []byte, result any) ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	req := rpcRequest{ID: r.next, Method: method}
	r.next++
	if params != nil {
		raw, err := json.Marshal(params)
		if err != nil {
			return nil, fmt.Errorf("shard: encode %s params: %w", method, err)
		}
		req.Params = raw
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return nil, fmt.Errorf("shard: encode %s request: %w", method, err)
	}
	if err := WriteFrame(r.conn, FrameRequest, payload); err != nil {
		return nil, fmt.Errorf("shard: send %s to worker: %w", method, err)
	}
	if blobAfterRequest(method) {
		if err := WriteFrame(r.conn, FrameBlob, blob); err != nil {
			return nil, fmt.Errorf("shard: send %s snapshot to worker: %w", method, err)
		}
	}
	typ, raw, err := ReadFrame(r.conn)
	if err != nil {
		return nil, fmt.Errorf("shard: %s response from worker: %w", method, err)
	}
	if typ != FrameResponse {
		return nil, fmt.Errorf("shard: %s: worker sent frame type %d, want response", method, typ)
	}
	var resp rpcResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("shard: decode %s response: %w", method, err)
	}
	if resp.ID != req.ID {
		return nil, fmt.Errorf("shard: %s: response id %d for request %d (protocol desync)", method, resp.ID, req.ID)
	}
	var out []byte
	if blobAfterResponse(method) {
		if typ, out, err = ReadFrame(r.conn); err != nil {
			return nil, fmt.Errorf("shard: %s snapshot from worker: %w", method, err)
		}
		if typ != FrameBlob {
			return nil, fmt.Errorf("shard: %s: worker sent frame type %d, want blob", method, typ)
		}
	}
	if resp.Err != "" {
		return nil, fmt.Errorf("shard worker: %s", resp.Err)
	}
	if result != nil {
		if err := json.Unmarshal(resp.Result, result); err != nil {
			return nil, fmt.Errorf("shard: decode %s result: %w", method, err)
		}
	}
	return out, nil
}

// Name implements Shard.
func (r *Remote) Name() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.name
}

// AddInstance implements Shard.
func (r *Remote) AddInstance(spec InstanceSpec) error {
	return r.call("add", spec, nil)
}

// RemoveInstance implements Shard.
func (r *Remote) RemoveInstance(id string) error {
	return r.call("remove", idParams{ID: id}, nil)
}

// ResizeInstance implements Shard.
func (r *Remote) ResizeInstance(id, plan string, seed int64, agentCfg AgentConfig) error {
	return r.call("resize", resizeParams{ID: id, Plan: plan, Seed: seed, Agent: agentCfg}, nil)
}

// Members implements Shard.
func (r *Remote) Members() ([]core.Member, error) {
	var members []core.Member
	if err := r.call("members", nil, &members); err != nil {
		return nil, err
	}
	return members, nil
}

// Step implements Shard.
func (r *Remote) Step(dur time.Duration) (StepResult, error) {
	var res StepResult
	if err := r.call("step", stepParams{DurNS: int64(dur)}, &res); err != nil {
		return StepResult{}, err
	}
	return res, nil
}

// Counters implements Shard.
func (r *Remote) Counters() (Counters, error) {
	var c Counters
	if err := r.call("counters", nil, &c); err != nil {
		return Counters{}, err
	}
	return c, nil
}

// Fingerprint implements Shard.
func (r *Remote) Fingerprint() (Fingerprint, error) {
	var fp Fingerprint
	if err := r.call("fingerprint", nil, &fp); err != nil {
		return Fingerprint{}, err
	}
	return fp, nil
}

// Checkpoint implements Shard.
func (r *Remote) Checkpoint() ([]byte, error) {
	return r.exchange("checkpoint", nil, nil, nil)
}

// Restore implements Shard.
func (r *Remote) Restore(snapshot []byte) error {
	_, err := r.exchange("restore", nil, snapshot, nil)
	return err
}

// ExportInstance implements Shard.
func (r *Remote) ExportInstance(id string) (InstanceExport, error) {
	var exp InstanceExport
	if err := r.call("export", idParams{ID: id}, &exp); err != nil {
		return InstanceExport{}, err
	}
	return exp, nil
}

// ImportInstance implements Shard.
func (r *Remote) ImportInstance(exp InstanceExport) error {
	return r.call("import", exp, nil)
}

// Close implements Shard: it drops the connection. The worker process
// survives for the next coordinator.
func (r *Remote) Close() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.conn.Close()
}

var _ Shard = (*Remote)(nil)
