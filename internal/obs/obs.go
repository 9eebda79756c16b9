// Package obs is the control-plane observability subsystem: a
// concurrency-safe metrics registry (counters, gauges, fixed-bucket
// histograms with labels, Prometheus-style text exposition and a JSON
// snapshot), a lightweight span tracer keyed to explicit virtual instants,
// and a small leveled logger. It is stdlib-only and cheap enough for
// the control plane's hot paths: instrument handles are resolved once
// (sharded map) and updated with atomics thereafter.
//
// The AutoDBaaS reproduction simulates a fleet at virtual-time speed,
// so the tracer records span start/end instants in the *simulated*
// timeline (a simulated day of traces stays coherent) while wall-clock
// costs ride along as attributes.
package obs

import (
	"os"
	"strings"
)

// defaultRegistry is the process-wide registry the control-plane
// components publish into; cmd/autodbaas serves it at /metrics.
var defaultRegistry = NewRegistry()

// Default returns the process-wide registry.
func Default() *Registry { return defaultRegistry }

// defaultTracer is the process-wide tracer. Components record spans at
// explicit instants on their own virtual timeline (StartAt/EndAt).
var defaultTracer = NewTracer(256)

// DefaultTracer returns the process-wide tracer.
func DefaultTracer() *Tracer { return defaultTracer }

func init() {
	// AUTODBAAS_LOG=debug|info|warn|error|off raises or lowers the
	// default logger without code changes (quiet by default so test
	// output stays clean).
	switch strings.ToLower(os.Getenv("AUTODBAAS_LOG")) {
	case "debug":
		SetLevel(LevelDebug)
	case "info":
		SetLevel(LevelInfo)
	case "warn":
		SetLevel(LevelWarn)
	case "error":
		SetLevel(LevelError)
	case "off":
		SetLevel(LevelOff)
	}
}
