package shard

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"sort"
	"strings"
	"sync"
	"time"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/core"
	"autodbaas/internal/knobs"
)

// coordinatorSection is the coordinator's own control-plane section in
// a fleet snapshot; per-shard snapshots ride as "shard/<name>".
const (
	coordinatorSection = "coordinator"
	shardSectionPrefix = "shard/"
)

// FleetFingerprint is the determinism contract at fleet scope: the
// coordinator's window and cumulative throttle count plus every shard's
// full fingerprint, keyed by shard name. A fixed (seed, topology, shard
// map) must produce bit-for-bit the same value whether the shards are
// in-process or worker processes, clean or under fault injection,
// across worker kill/restore and coordinator checkpoint/restore.
type FleetFingerprint struct {
	Window    int                    `json:"window"`
	Throttles int                    `json:"throttles"`
	Shards    map[string]Fingerprint `json:"shards"`
}

// Merged flattens the fleet fingerprint into one shard-shaped
// fingerprint: counters accumulate, and the per-instance configs,
// monitor series lengths and members union (cohorts are disjoint).
// Members sort by ID, so the merge is independent of shard iteration
// order. Counters.Windows sums across shards — use Window for the
// fleet's step count.
func (f FleetFingerprint) Merged() Fingerprint {
	out := Fingerprint{
		Plans:         make(map[string]string),
		Configs:       make(map[string]knobs.Config),
		MonitorPoints: make(map[string]int),
	}
	names := make([]string, 0, len(f.Shards))
	for name := range f.Shards {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		sfp := f.Shards[name]
		out.Counters.Accumulate(sfp.Counters)
		out.Members = append(out.Members, sfp.Members...)
		for id, plan := range sfp.Plans {
			out.Plans[id] = plan
		}
		for id, cfg := range sfp.Configs {
			out.Configs[id] = cfg
		}
		for id, n := range sfp.MonitorPoints {
			out.MonitorPoints[id] = n
		}
	}
	sort.Slice(out.Members, func(i, j int) bool { return out.Members[i].ID < out.Members[j].ID })
	return out
}

// Coordinator drives a fixed set of named shards as one fleet: instance
// placement, the fan-out/merge of every window step, rebalancing and
// nested fleet snapshots. A lost worker is recovered by restoring the
// fleet snapshot into a coordinator over its replacement. Shards are fully
// independent vertical slices — each owns its orchestrator, director,
// repository and tuner pool for its cohort — so the cross-shard merge
// has no ordering hazards and the fleet result is the deterministic
// union of per-shard results.
type Coordinator struct {
	mu     sync.Mutex
	shards []Shard // shard-map order; fixed for the coordinator's life
	byName map[string]Shard
	assign map[string]string // instance ID -> shard name
	order  []string          // fleet-wide onboarding order

	windows   int
	throttles int // cumulative across all windows
}

// NewCoordinator assembles a coordinator over the given shards. The
// slice order is the shard map order — merge order, placement order and
// snapshot section order all derive from it, so it must be the same on
// every run for the determinism contract to hold.
func NewCoordinator(shards ...Shard) (*Coordinator, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("shard: coordinator needs at least one shard")
	}
	c := &Coordinator{
		byName: make(map[string]Shard, len(shards)),
		assign: make(map[string]string),
	}
	for _, sh := range shards {
		name := sh.Name()
		if name == "" {
			return nil, fmt.Errorf("shard: coordinator given an unnamed shard")
		}
		if _, dup := c.byName[name]; dup {
			return nil, fmt.Errorf("shard: duplicate shard name %q", name)
		}
		c.byName[name] = sh
		c.shards = append(c.shards, sh)
	}
	return c, nil
}

// ShardNames returns the shard map in order.
func (c *Coordinator) ShardNames() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	names := make([]string, 0, len(c.shards))
	for _, sh := range c.shards {
		names = append(names, sh.Name())
	}
	return names
}

// Shard returns a shard by name.
func (c *Coordinator) Shard(name string) (Shard, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	sh, ok := c.byName[name]
	return sh, ok
}

// Assignment returns the shard an instance lives on.
func (c *Coordinator) Assignment(id string) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	name, ok := c.assign[id]
	return name, ok
}

// Window returns the number of completed fleet steps.
func (c *Coordinator) Window() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.windows
}

// Instances returns the fleet-wide cohort in onboarding order.
func (c *Coordinator) Instances() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.order...)
}

// Members returns every shard's members merged into fleet onboarding
// order.
func (c *Coordinator) Members() ([]core.Member, error) {
	c.mu.Lock()
	shards := append([]Shard(nil), c.shards...)
	order := append([]string(nil), c.order...)
	c.mu.Unlock()
	byID := make(map[string]core.Member)
	for _, sh := range shards {
		members, err := sh.Members()
		if err != nil {
			return nil, fmt.Errorf("shard %q: members: %w", sh.Name(), err)
		}
		for _, m := range members {
			byID[m.ID] = m
		}
	}
	out := make([]core.Member, 0, len(order))
	for _, id := range order {
		if m, ok := byID[id]; ok {
			out = append(out, m)
		}
	}
	return out, nil
}

// Place picks the shard for an instance by rendezvous hashing over the
// shard map — deterministic in (id, shard names), independent of shard
// order and of what else is placed, and stable under shard-map growth
// in the usual rendezvous sense.
func (c *Coordinator) Place(id string) string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return placeRendezvous(id, c.shards)
}

func placeRendezvous(id string, shards []Shard) string {
	var best string
	var bestScore uint64
	for _, sh := range shards {
		h := fnv.New64a()
		io.WriteString(h, sh.Name())
		h.Write([]byte{0})
		io.WriteString(h, id)
		score := h.Sum64()
		if best == "" || score > bestScore || (score == bestScore && sh.Name() < best) {
			best, bestScore = sh.Name(), score
		}
	}
	return best
}

// AddInstance places the instance by rendezvous hash and provisions it
// there.
func (c *Coordinator) AddInstance(spec InstanceSpec) error {
	return c.AddInstanceTo(c.Place(spec.ID), spec)
}

// AddInstanceTo provisions the instance on an explicit shard.
func (c *Coordinator) AddInstanceTo(shardName string, spec InstanceSpec) error {
	c.mu.Lock()
	sh, ok := c.byName[shardName]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("shard: no shard %q in the map", shardName)
	}
	if owner, dup := c.assign[spec.ID]; dup {
		c.mu.Unlock()
		return fmt.Errorf("shard: instance %q already lives on shard %q", spec.ID, owner)
	}
	c.mu.Unlock()
	if err := sh.AddInstance(spec); err != nil {
		return err
	}
	c.mu.Lock()
	c.assign[spec.ID] = shardName
	c.order = append(c.order, spec.ID)
	c.mu.Unlock()
	return nil
}

// RemoveInstance deprovisions an instance wherever it lives.
func (c *Coordinator) RemoveInstance(id string) error {
	c.mu.Lock()
	name, ok := c.assign[id]
	sh := c.byName[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: no instance %q in the fleet", id)
	}
	if err := sh.RemoveInstance(id); err != nil {
		return err
	}
	c.mu.Lock()
	delete(c.assign, id)
	for i, oid := range c.order {
		if oid == id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.mu.Unlock()
	return nil
}

// ResizeInstance re-provisions an instance onto a new plan in place.
func (c *Coordinator) ResizeInstance(id, plan string, seed int64, agentCfg AgentConfig) error {
	c.mu.Lock()
	name, ok := c.assign[id]
	sh := c.byName[name]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: no instance %q in the fleet", id)
	}
	return sh.ResizeInstance(id, plan, seed, agentCfg)
}

// Step advances the whole fleet one observation window: every shard
// steps concurrently (they share no state), then results merge in shard
// map order. After the merge all shards must agree on the window index
// — a skewed shard means a worker missed or replayed a step, and the
// error names it rather than letting the fleets silently diverge.
func (c *Coordinator) Step(dur time.Duration) (StepResult, error) {
	c.mu.Lock()
	shards := append([]Shard(nil), c.shards...)
	want := c.windows + 1
	c.mu.Unlock()

	results := make([]StepResult, len(shards))
	err := fanOut(shards, "step", func(i int, sh Shard) (err error) {
		results[i], err = sh.Step(dur)
		return err
	})
	out := StepResult{Window: want}
	if err != nil {
		return out, err
	}
	for i, sh := range shards {
		if results[i].Window != want {
			return out, fmt.Errorf("shard %q is at window %d, coordinator expects %d (missed or replayed step)",
				sh.Name(), results[i].Window, want)
		}
		out.Throttles += results[i].Throttles
		for kind, n := range results[i].Events {
			if out.Events == nil {
				out.Events = make(map[string]int)
			}
			out.Events[kind] += n
		}
		for id, p99 := range results[i].P99Ms {
			if out.P99Ms == nil {
				out.P99Ms = make(map[string]float64)
			}
			out.P99Ms[id] = p99
		}
		for id, msg := range results[i].Errors {
			if out.Errors == nil {
				out.Errors = make(map[string]string)
			}
			out.Errors[id] = msg
		}
	}
	c.mu.Lock()
	c.windows = want
	c.throttles += out.Throttles
	c.mu.Unlock()
	return out, nil
}

// fanOut runs fn on every shard at once and waits for all of them. When
// several fail, the error names the first failing shard in shard-map
// order, not the one that happened to fail first.
func fanOut(shards []Shard, op string, fn func(i int, sh Shard) error) error {
	errs := make([]error, len(shards))
	var wg sync.WaitGroup
	for i, sh := range shards {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = fn(i, sh)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("shard %q: %s: %w", shards[i].Name(), op, err)
		}
	}
	return nil
}

// Counters aggregates every shard's counters into fleet totals.
func (c *Coordinator) Counters() (Counters, error) {
	c.mu.Lock()
	shards := append([]Shard(nil), c.shards...)
	c.mu.Unlock()
	var total Counters
	for _, sh := range shards {
		sc, err := sh.Counters()
		if err != nil {
			return Counters{}, fmt.Errorf("shard %q: counters: %w", sh.Name(), err)
		}
		total.Accumulate(sc)
	}
	return total, nil
}

// Fingerprint captures the fleet's determinism fingerprint: the
// coordinator's own counters plus every shard's, keyed by name.
func (c *Coordinator) Fingerprint() (FleetFingerprint, error) {
	c.mu.Lock()
	shards := append([]Shard(nil), c.shards...)
	fp := FleetFingerprint{
		Window:    c.windows,
		Throttles: c.throttles,
		Shards:    make(map[string]Fingerprint, len(shards)),
	}
	c.mu.Unlock()
	for _, sh := range shards {
		sfp, err := sh.Fingerprint()
		if err != nil {
			return FleetFingerprint{}, fmt.Errorf("shard %q: fingerprint: %w", sh.Name(), err)
		}
		fp.Shards[sh.Name()] = sfp
	}
	return fp, nil
}

// Rebalance migrates an instance to another shard: checkpoint out of
// the source (the "instance/<id>" section format — the snapshot wire
// format is the migration wire format), restore into the destination,
// then drop the source copy. The destination import rolls itself back
// on failure, so an interrupted rebalance never splits an instance
// across shards; the training history the instance contributed stays
// with the source shard's tuners, exactly as a remove does.
func (c *Coordinator) Rebalance(id, toShard string) error {
	c.mu.Lock()
	fromName, ok := c.assign[id]
	src := c.byName[fromName]
	dst, dstOK := c.byName[toShard]
	c.mu.Unlock()
	if !ok {
		return fmt.Errorf("shard: no instance %q in the fleet", id)
	}
	if !dstOK {
		return fmt.Errorf("shard: no shard %q in the map", toShard)
	}
	if fromName == toShard {
		return nil
	}
	exp, err := src.ExportInstance(id)
	if err != nil {
		return fmt.Errorf("shard: export %q from %q: %w", id, fromName, err)
	}
	if err := dst.ImportInstance(exp); err != nil {
		return fmt.Errorf("shard: import %q into %q: %w", id, toShard, err)
	}
	if err := src.RemoveInstance(id); err != nil {
		// The destination copy is live; surface the stranded source
		// copy rather than guessing which side to keep.
		return fmt.Errorf("shard: %q migrated to %q but the source copy on %q failed to drop: %w",
			id, toShard, fromName, err)
	}
	c.mu.Lock()
	c.assign[id] = toShard
	c.mu.Unlock()
	return nil
}

// coordinatorState is the "coordinator" section of a fleet snapshot.
type coordinatorState struct {
	Windows   int               `json:"windows"`
	Throttles int               `json:"throttles"`
	Order     []string          `json:"order"`
	Assign    map[string]string `json:"assign"`
	Shards    []string          `json:"shards"` // shard map, in order
}

// Checkpoint writes a fleet snapshot to w: an outer ADBC container whose
// sections are the coordinator's control state plus every shard's full
// snapshot ("shard/<name>") — each itself a complete inner container,
// so every byte gets two layers of CRC verification — then the caller's
// extra sections in order (the fleet service's control plane).
func (c *Coordinator) Checkpoint(w io.Writer, extra ...checkpoint.RawSection) error {
	snap, err := c.snapshot(extra)
	if err != nil {
		return err
	}
	_, err = snap.WriteTo(w)
	return err
}

// snapshot stages the fleet snapshot, fetching every shard's section at
// once; sections still land in shard-map order. An in-process shard's
// container is nested as staged, never copied; a remote shard's
// arrives as one blob frame and is nested as such.
func (c *Coordinator) snapshot(extra []checkpoint.RawSection) (*checkpoint.Container, error) {
	c.mu.Lock()
	shards := append([]Shard(nil), c.shards...)
	st := coordinatorState{
		Windows:   c.windows,
		Throttles: c.throttles,
		Order:     append([]string(nil), c.order...),
		Assign:    make(map[string]string, len(c.assign)),
	}
	for id, name := range c.assign {
		st.Assign[id] = name
	}
	c.mu.Unlock()

	for _, sh := range shards {
		st.Shards = append(st.Shards, sh.Name())
	}
	ctl, err := json.Marshal(st)
	if err != nil {
		return nil, fmt.Errorf("shard: encode coordinator state: %w", err)
	}
	secs := make([]checkpoint.RawSection, 1+len(shards), 1+len(shards)+len(extra))
	secs[0] = checkpoint.RawSection{Name: coordinatorSection, Payload: ctl}
	err = fanOut(shards, "checkpoint", func(i int, sh Shard) (err error) {
		sec := &secs[1+i]
		sec.Name = shardSectionPrefix + sh.Name()
		if l, ok := sh.(*Local); ok {
			sec.Nested, err = l.snapshot()
		} else {
			sec.Payload, err = sh.Checkpoint()
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	secs = append(secs, extra...)
	return checkpoint.NewContainer(checkpoint.Manifest{Window: st.Windows}, secs)
}

// Restore reads a fleet snapshot from r and loads it (see
// RestoreSections).
func (c *Coordinator) Restore(r io.Reader) error {
	_, sections, err := checkpoint.Inspect(r)
	if err != nil {
		return err
	}
	return c.RestoreSections(sections)
}

// RestoreSections loads the sections of a fleet snapshot, already
// verified by checkpoint.Parse or Inspect, into this coordinator, whose
// shard map must cover every shard the snapshot was taken over. A stale
// map — the snapshot names a shard this coordinator does not have —
// fails before any shard state mutates, with an error naming the
// missing shards and every instance stranded on them.
func (c *Coordinator) RestoreSections(sections map[string][]byte) error {
	ctl, ok := sections[coordinatorSection]
	if !ok {
		return fmt.Errorf("%w: snapshot lacks the %q section (not a fleet snapshot)", checkpoint.ErrManifest, coordinatorSection)
	}
	var st coordinatorState
	if err := json.Unmarshal(ctl, &st); err != nil {
		return fmt.Errorf("shard: decode coordinator state: %w", err)
	}

	c.mu.Lock()
	var missing []string
	for _, name := range st.Shards {
		if _, ok := c.byName[name]; !ok {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		stranded := make(map[string][]string)
		for id, name := range st.Assign {
			for _, m := range missing {
				if name == m {
					stranded[name] = append(stranded[name], id)
				}
			}
		}
		var parts []string
		for _, m := range missing {
			ids := stranded[m]
			sort.Strings(ids)
			parts = append(parts, fmt.Sprintf("%q (instances [%s])", m, strings.Join(ids, " ")))
		}
		have := namesOf(c.shards)
		c.mu.Unlock()
		return fmt.Errorf("%w: snapshot was taken over shard(s) %s absent from this coordinator's shard map %v — stale shard map",
			checkpoint.ErrManifest, strings.Join(parts, ", "), have)
	}
	targets := make([]Shard, len(st.Shards))
	for i, name := range st.Shards {
		targets[i] = c.byName[name]
	}
	c.mu.Unlock()

	// Every section is checked before any shard restores, so a missing
	// one fails before any shard state mutates.
	snaps := make([][]byte, len(st.Shards))
	for i, name := range st.Shards {
		snap, ok := sections[shardSectionPrefix+name]
		if !ok {
			return fmt.Errorf("%w: snapshot lists shard %q but lacks its %q section",
				checkpoint.ErrManifest, name, shardSectionPrefix+name)
		}
		snaps[i] = snap
	}
	if err := fanOut(targets, "restore", func(i int, sh Shard) error {
		return sh.Restore(snaps[i])
	}); err != nil {
		return err
	}
	c.mu.Lock()
	c.windows = st.Windows
	c.throttles = st.Throttles
	c.order = append([]string(nil), st.Order...)
	c.assign = make(map[string]string, len(st.Assign))
	for id, name := range st.Assign {
		c.assign[id] = name
	}
	c.mu.Unlock()
	return nil
}

func namesOf(shards []Shard) []string {
	out := make([]string, 0, len(shards))
	for _, sh := range shards {
		out = append(out, sh.Name())
	}
	return out
}

// Close releases every shard.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	shards := append([]Shard(nil), c.shards...)
	c.mu.Unlock()
	var first error
	for _, sh := range shards {
		if err := sh.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
