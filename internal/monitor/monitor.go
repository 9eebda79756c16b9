// Package monitor is the external monitoring substitute for the
// Dynatrace agents the paper relies on. Each database service instance
// has one agent, scraped once per observation window. The bgwriter
// detector reads engine statistics instead of the monitor's peaks
// (EXPERIMENTS.md, divergence 1), and the fleet reads only how many
// scrapes were accepted, so that count is all an agent keeps.
package monitor

import (
	"errors"
	"sync"
	"time"
)

// ErrOutOfOrder rejects an append older than the last accepted one
// (monitoring agents sample monotonically).
var ErrOutOfOrder = errors.New("monitor: out-of-order append")

// Series counts accepted samples, safe for concurrent use.
type Series struct {
	mu   sync.Mutex
	max  int // retention bound (0 = unbounded)
	n    int
	last time.Time
}

// Append accepts one sample; timestamps must be non-decreasing. Only
// the acceptance is recorded: nothing reads a sample's value.
func (s *Series) Append(at time.Time, _ float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at.Before(s.last) {
		return ErrOutOfOrder
	}
	s.last = at
	if s.max == 0 || s.n < s.max {
		s.n++
	}
	return nil
}

// Len returns how many accepted samples the retention bound would keep.
func (s *Series) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.n
}

// Agent is one monitoring endpoint per database service instance. Its
// metrics (disk latency, IOPS, throughput, p99 latency) are scraped
// together, so it keeps one series and every name reads it.
type Agent struct {
	s Series
}

// NewAgent returns an agent whose series retains max samples.
func NewAgent(max int) *Agent { return &Agent{s: Series{max: max}} }

// Series returns the agent's series; every name shares it.
func (a *Agent) Series(string) *Series { return &a.s }
