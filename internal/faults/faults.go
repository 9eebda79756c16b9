// Package faults is a deterministic, seeded fault-injection subsystem
// for chaos-testing the AutoDBaaS control plane. It wraps the existing
// seams — simdb config application and restarts, per-node disk latency
// and crash/recover, the repository's sample fan-out, tuner
// recommendations and external monitoring — with injectable failures
// drawn from per-site PRNG streams.
//
// Determinism is the design center: every fault site (one node's apply
// path, one tuner, the repository fan-out, ...) owns its own PRNG stream
// seeded from (injector seed, site name). A site's k-th draw therefore
// depends only on how often that site was consulted, never on goroutine
// interleaving, so a chaos run is bit-for-bit reproducible from
// (seed, profile) at every fleet-step parallelism level.
//
// All methods are safe on a nil *Injector (no faults), so call sites
// never branch on whether chaos is enabled.
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"autodbaas/internal/obs"
	"autodbaas/internal/prng"
)

// ErrInjected marks every failure manufactured by this package, so
// tests and log readers can tell injected faults from organic ones.
var ErrInjected = errors.New("faults: injected failure")

// Profile is the per-fault-kind intensity of a chaos run. Probabilities
// are per consultation of the corresponding site (per node apply, per
// observation window, per enqueued sample, ...).
type Profile struct {
	Name string

	// ApplyError fails a config application (any method) on one node.
	ApplyError float64
	// StuckRestart makes a restart fail and leave the process down.
	StuckRestart float64

	// DiskSpike multiplies one window's disk latency by DiskSpikeFactor.
	DiskSpike       float64
	DiskSpikeFactor float64
	// NodeCrash takes a node down at a window boundary; it recovers
	// (supervisor-style) after CrashDownWindows windows.
	NodeCrash        float64
	CrashDownWindows int

	// SampleDrop loses the first delivery attempt of an uploaded sample
	// (the repository redelivers). SampleDup delivers it twice (the
	// repository dedups). SampleReorder delays it past 1–3 later uploads.
	SampleDrop    float64
	SampleDup     float64
	SampleReorder float64

	// TunerTimeout fails a Recommend call; TunerGarbage answers it with
	// a maxed-out configuration (the DFA's dry-run must reject it).
	TunerTimeout float64
	TunerGarbage float64

	// MonitorLoss drops one instance's external-monitoring sample for a
	// window (the Dynatrace substitute missing a scrape).
	MonitorLoss float64
}

// Zero is the no-fault profile: behaviour is bit-for-bit identical to
// running without an injector.
func Zero() Profile { return Profile{Name: "zero"} }

// Light is a background-noise profile: rare, isolated failures.
func Light() Profile {
	return Profile{
		Name:       "light",
		ApplyError: 0.02, StuckRestart: 0.01,
		DiskSpike: 0.02, DiskSpikeFactor: 4, NodeCrash: 0.002, CrashDownWindows: 2,
		SampleDrop: 0.02, SampleDup: 0.01, SampleReorder: 0.01,
		TunerTimeout: 0.02, TunerGarbage: 0.01,
		MonitorLoss: 0.02,
	}
}

// Medium is the soak-test profile: every fault kind fires regularly.
func Medium() Profile {
	return Profile{
		Name:       "medium",
		ApplyError: 0.08, StuckRestart: 0.05,
		DiskSpike: 0.05, DiskSpikeFactor: 8, NodeCrash: 0.01, CrashDownWindows: 2,
		SampleDrop: 0.08, SampleDup: 0.05, SampleReorder: 0.05,
		TunerTimeout: 0.08, TunerGarbage: 0.05,
		MonitorLoss: 0.05,
	}
}

// Heavy is an adversarial profile for hardening work, not CI.
func Heavy() Profile {
	return Profile{
		Name:       "heavy",
		ApplyError: 0.2, StuckRestart: 0.15,
		DiskSpike: 0.12, DiskSpikeFactor: 16, NodeCrash: 0.03, CrashDownWindows: 3,
		SampleDrop: 0.2, SampleDup: 0.12, SampleReorder: 0.12,
		TunerTimeout: 0.2, TunerGarbage: 0.12,
		MonitorLoss: 0.12,
	}
}

// ParseProfile resolves a profile by name ("", "zero", "none", "light",
// "medium", "heavy") — the -faults flag syntax.
func ParseProfile(name string) (Profile, error) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "", "zero", "none", "off":
		return Zero(), nil
	case "light":
		return Light(), nil
	case "medium":
		return Medium(), nil
	case "heavy":
		return Heavy(), nil
	default:
		return Profile{}, fmt.Errorf("faults: unknown profile %q (want zero|light|medium|heavy)", name)
	}
}

// Fault kinds, the label values of autodbaas_faults_injected_total.
const (
	KindApplyError   = "apply_error"
	KindStuckRestart = "stuck_restart"
	KindDiskSpike    = "disk_spike"
	KindNodeCrash    = "node_crash"
	KindSampleDrop   = "sample_drop"
	KindSampleDup    = "sample_dup"
	KindSampleDelay  = "sample_reorder"
	KindTunerTimeout = "tuner_timeout"
	KindTunerGarbage = "tuner_garbage"
	KindMonitorLoss  = "monitor_loss"
)

// Injector draws fault decisions from per-site seeded streams.
type Injector struct {
	seed int64
	prof Profile

	mu       sync.Mutex
	disabled bool
	streams  map[string]*rand.Rand
	// sources holds the counting source behind each stream so stream
	// positions can be checkpointed (same keys as streams).
	sources map[string]*prng.Source
	// nodeDown tracks nodes this injector crashed, by site, with the
	// number of windows left until supervisor-style recovery.
	nodeDown map[string]int
	counts   map[string]int64
	total    int64
	counters map[string]*obs.Counter
}

// New returns an injector for (seed, profile).
func New(seed int64, prof Profile) *Injector {
	return &Injector{
		seed:     seed,
		prof:     prof,
		streams:  make(map[string]*rand.Rand),
		sources:  make(map[string]*prng.Source),
		nodeDown: make(map[string]int),
		counts:   make(map[string]int64),
		counters: make(map[string]*obs.Counter),
	}
}

// Seed returns the injector's seed.
func (in *Injector) Seed() int64 {
	if in == nil {
		return 0
	}
	return in.seed
}

// Profile returns the injector's profile.
func (in *Injector) Profile() Profile {
	if in == nil {
		return Zero()
	}
	return in.prof
}

// Disable stops all further injection — the quiesce phase of a chaos
// run, after which the fleet must converge back to health. Already-down
// nodes still recover on their schedule.
func (in *Injector) Disable() {
	if in == nil {
		return
	}
	in.mu.Lock()
	in.disabled = true
	in.mu.Unlock()
}

// InjectedTotal returns how many faults this injector has fired.
func (in *Injector) InjectedTotal() int64 {
	if in == nil {
		return 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.total
}

// Counts returns per-kind injected-fault counts.
func (in *Injector) Counts() map[string]int64 {
	out := make(map[string]int64)
	if in == nil {
		return out
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for k, v := range in.counts {
		out[k] = v
	}
	return out
}

// String renders the per-kind counts, sorted, for run reports.
func (in *Injector) String() string {
	counts := in.Counts()
	kinds := make([]string, 0, len(counts))
	for k := range counts {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	parts := make([]string, 0, len(kinds))
	for _, k := range kinds {
		parts = append(parts, fmt.Sprintf("%s=%d", k, counts[k]))
	}
	if len(parts) == 0 {
		return "no faults injected"
	}
	return strings.Join(parts, " ")
}

// streamLocked returns the site's PRNG stream, creating it on first use
// from (seed, fnv64a(site)) so the stream depends only on the site name.
func (in *Injector) streamLocked(site string) *rand.Rand {
	s, ok := in.streams[site]
	if !ok {
		h := fnv.New64a()
		h.Write([]byte(site))
		var src *prng.Source
		s, src = prng.New(in.seed ^ int64(h.Sum64()))
		in.streams[site] = s
		in.sources[site] = src
	}
	return s
}

// hitLocked draws one decision from the site's stream and records the
// fault when it fires. Zero-probability kinds consume no randomness, so
// the zero profile perturbs nothing.
func (in *Injector) hitLocked(site, kind string, prob float64) bool {
	if in.disabled || prob <= 0 {
		return false
	}
	if in.streamLocked(site).Float64() >= prob {
		return false
	}
	in.recordLocked(kind)
	return true
}

func (in *Injector) recordLocked(kind string) {
	in.counts[kind]++
	in.total++
	c, ok := in.counters[kind]
	if !ok {
		c = obs.Default().Counter("autodbaas_faults_injected_total",
			"Faults injected by the chaos subsystem, by kind.", obs.L("kind", kind))
		in.counters[kind] = c
	}
	c.Inc()
}

// hit is the locked wrapper used by single-draw sites.
func (in *Injector) hit(site, kind string, prob float64) bool {
	if in == nil {
		return false
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.hitLocked(site, kind, prob)
}

// ForgetInstance discards every per-site stream owned by one instance —
// the engine seams ("<id>/node<i>/...") and its monitor site — plus any
// crashed-node recovery countdowns. The fleet service calls it on
// deprovision so a later instance reusing the ID reseeds fresh streams
// and behaves exactly like a first-time onboarding. Safe on nil.
func (in *Injector) ForgetInstance(id string) {
	if in == nil {
		return
	}
	owned := func(site string) bool {
		return strings.HasPrefix(site, id+"/") || site == "monitor/"+id
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	for site := range in.streams {
		if owned(site) {
			delete(in.streams, site)
			delete(in.sources, site)
		}
	}
	for site := range in.nodeDown {
		if owned(site) {
			delete(in.nodeDown, site)
		}
	}
}

// DropMonitorSample reports whether this window's external-monitoring
// sample for the instance is lost.
func (in *Injector) DropMonitorSample(instanceID string) bool {
	if in == nil {
		return false
	}
	return in.hit("monitor/"+instanceID, KindMonitorLoss, in.prof.MonitorLoss)
}

// SampleFault implements repository.FaultSource: the fate of one
// uploaded training sample in the repository's fan-out. Drawn once per
// upload (the merge phase uploads in onboarding order, so the sequence
// of draws is parallelism-independent).
func (in *Injector) SampleFault() (dropFirst, dup bool, delay int) {
	if in == nil {
		return false, false, 0
	}
	in.mu.Lock()
	defer in.mu.Unlock()
	const site = "repository/fanout"
	dropFirst = in.hitLocked(site, KindSampleDrop, in.prof.SampleDrop)
	dup = in.hitLocked(site, KindSampleDup, in.prof.SampleDup)
	if in.hitLocked(site, KindSampleDelay, in.prof.SampleReorder) {
		delay = 1 + in.streamLocked(site).Intn(3)
	}
	return dropFirst, dup, delay
}
