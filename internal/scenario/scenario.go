// Package scenario is the declarative campaign layer of AutoDBaaS: a
// YAML DSL describing multi-day service traffic — diurnal load curves,
// flash crowds, batch and maintenance windows, long-horizon drift,
// tenant onboarding/offboarding waves, resizes and fault profiles —
// compiled into a deterministic virtual-time event schedule and
// replayed against the fleet service on any shard layout, one shard or
// several. One file reproduces one evaluation campaign
// bit-for-bit: the schedule is a pure function of the document, every
// engine seed derives from the scenario seed, and the timeline the
// runner emits (throttles, SLO violations, retries, escalations,
// provision latency per window) is byte-stable across runs and
// parallelism levels.
package scenario

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"

	"autodbaas/internal/faults"
	"autodbaas/internal/tenant"
	"autodbaas/internal/workload"
)

// Scenario is one parsed scenario document, still declarative: Compile
// turns it into a windowed action schedule.
type Scenario struct {
	Name        string
	Description string
	Seed        int64
	Window      time.Duration
	Duration    time.Duration

	// SLOP99Ms scores per-window SLO violations: every instance whose
	// window P99 exceeds it counts one violation. 0 disables scoring.
	SLOP99Ms float64

	// FaultProfile/FaultSeed select deterministic chaos for the whole
	// run ("" runs clean; the runner can override for sweeps).
	FaultProfile string
	FaultSeed    int64

	// Blueprints are scenario-local templates, merged over (and
	// allowed to shadow) the built-in catalogue.
	Blueprints []tenant.Blueprint

	// Tenants are declared before the first window.
	Tenants []TenantDecl

	// Events mutate the fleet at later windows.
	Events []Event
}

// TenantDecl declares a tenant and its initial databases.
type TenantDecl struct {
	ID        string
	Tier      string
	Databases []DatabaseDecl
}

// DatabaseDecl declares one database: the blueprint it is stamped
// from, an optional plan override, and an optional load shape.
type DatabaseDecl struct {
	ID        string
	Blueprint string
	Plan      string
	Load      workload.Shape
}

// Event kinds.
const (
	EvCreateTenant   = "create-tenant"
	EvDeleteTenant   = "delete-tenant"
	EvCreateDatabase = "create-database"
	EvDeleteDatabase = "delete-database"
	EvResize         = "resize"
	EvOnboardWave    = "onboard-wave"
)

// Event is one scheduled mutation. Exactly one kind per event; the
// fields used depend on the kind.
type Event struct {
	At   time.Duration
	Kind string

	Tenant   string
	Database string
	Tier     string

	Blueprint string
	Plan      string
	Load      workload.Shape

	// Wave fields (EvOnboardWave): Count tenants named Prefix-00…,
	// staggered Every apart, each with Databases databases; a non-zero
	// OffboardAfter deletes each wave tenant that long after it joined.
	Prefix        string
	Count         int
	Every         time.Duration
	Databases     int
	OffboardAfter time.Duration
}

// Parse decodes and validates one scenario document. The returned
// scenario is structurally sound (all names, durations, curves and
// profiles check out); Compile additionally proves the schedule is
// runnable (quotas, conflicts, lifecycle ordering).
func Parse(src string) (*Scenario, error) {
	root, err := parseYAML(src)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	m, ok := root.(map[string]any)
	if !ok {
		return nil, fmt.Errorf("scenario: document is not a mapping")
	}
	d := &decoder{}
	sc := d.scenario(m)
	if d.err != nil {
		return nil, fmt.Errorf("scenario: %w", d.err)
	}
	if err := sc.validate(); err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	return sc, nil
}

// validate checks everything local to the document.
func (sc *Scenario) validate() error {
	if !tenant.ValidID(sc.Name) {
		return fmt.Errorf("name %q is not a valid identifier (lowercase alphanumeric with ._-)", sc.Name)
	}
	if sc.Window < time.Minute {
		return fmt.Errorf("window %s must be at least 1m", sc.Window)
	}
	if sc.Window%time.Minute != 0 {
		return fmt.Errorf("window %s must be whole minutes", sc.Window)
	}
	if sc.Duration < sc.Window {
		return fmt.Errorf("duration %s is shorter than one window (%s)", sc.Duration, sc.Window)
	}
	if sc.Duration%sc.Window != 0 {
		return fmt.Errorf("duration %s is not a whole number of %s windows", sc.Duration, sc.Window)
	}
	if sc.SLOP99Ms < 0 {
		return fmt.Errorf("slo p99-ms %v cannot be negative", sc.SLOP99Ms)
	}
	if sc.FaultProfile != "" {
		if _, err := faults.ParseProfile(sc.FaultProfile); err != nil {
			return err
		}
	}
	for _, bp := range sc.Blueprints {
		if err := bp.Validate(); err != nil {
			return err
		}
	}
	if len(sc.Tenants)+len(sc.Events) == 0 {
		return fmt.Errorf("scenario declares no tenants and no events")
	}
	seen := map[string]bool{}
	for _, t := range sc.Tenants {
		if !tenant.ValidID(t.ID) {
			return fmt.Errorf("tenant ID %q is not a valid identifier", t.ID)
		}
		if seen[t.ID] {
			return fmt.Errorf("tenant %q declared twice", t.ID)
		}
		seen[t.ID] = true
		if t.Tier == "" {
			return fmt.Errorf("tenant %q needs a tier", t.ID)
		}
		dbSeen := map[string]bool{}
		for _, db := range t.Databases {
			if !tenant.ValidID(db.ID) {
				return fmt.Errorf("tenant %q: database ID %q is not a valid identifier", t.ID, db.ID)
			}
			if dbSeen[db.ID] {
				return fmt.Errorf("tenant %q: database %q declared twice", t.ID, db.ID)
			}
			dbSeen[db.ID] = true
			if db.Blueprint == "" {
				return fmt.Errorf("database %s/%s needs a blueprint", t.ID, db.ID)
			}
			if err := db.Load.Validate(); err != nil {
				return fmt.Errorf("database %s/%s: %w", t.ID, db.ID, err)
			}
		}
	}
	for i, ev := range sc.Events {
		if err := ev.validate(); err != nil {
			return fmt.Errorf("event %d (%s at %s): %w", i+1, ev.Kind, ev.At, err)
		}
	}
	return nil
}

// validate checks one event's own fields.
func (ev Event) validate() error {
	if ev.At < 0 {
		return fmt.Errorf("negative time %s", ev.At)
	}
	needTenant := func() error {
		if ev.Tenant == "" {
			return fmt.Errorf("needs a tenant")
		}
		return nil
	}
	switch ev.Kind {
	case EvCreateTenant:
		if err := needTenant(); err != nil {
			return err
		}
		if ev.Tier == "" {
			return fmt.Errorf("needs a tier")
		}
	case EvDeleteTenant:
		return needTenant()
	case EvCreateDatabase:
		if err := needTenant(); err != nil {
			return err
		}
		if !tenant.ValidID(ev.Database) {
			return fmt.Errorf("database ID %q is not a valid identifier", ev.Database)
		}
		if ev.Blueprint == "" {
			return fmt.Errorf("needs a blueprint")
		}
		if err := ev.Load.Validate(); err != nil {
			return err
		}
	case EvDeleteDatabase:
		if err := needTenant(); err != nil {
			return err
		}
		if ev.Database == "" {
			return fmt.Errorf("needs a database")
		}
	case EvResize:
		if err := needTenant(); err != nil {
			return err
		}
		if ev.Database == "" {
			return fmt.Errorf("needs a database")
		}
		if ev.Plan == "" {
			return fmt.Errorf("needs a plan")
		}
	case EvOnboardWave:
		if !tenant.ValidID(ev.Prefix) {
			return fmt.Errorf("wave prefix %q is not a valid identifier", ev.Prefix)
		}
		if ev.Tier == "" {
			return fmt.Errorf("needs a tier")
		}
		if ev.Blueprint == "" {
			return fmt.Errorf("needs a blueprint")
		}
		if ev.Count < 1 || ev.Count > 128 {
			return fmt.Errorf("wave count %d outside [1,128]", ev.Count)
		}
		if ev.Databases < 0 || ev.Databases > 16 {
			return fmt.Errorf("wave databases %d outside [0,16]", ev.Databases)
		}
		if ev.Count > 1 && ev.Every <= 0 {
			return fmt.Errorf("wave of %d tenants needs a positive stagger (every)", ev.Count)
		}
		if ev.Every < 0 || ev.OffboardAfter < 0 {
			return fmt.Errorf("negative wave interval")
		}
		if err := ev.Load.Validate(); err != nil {
			return err
		}
	default:
		return fmt.Errorf("unknown event kind %q", ev.Kind)
	}
	return nil
}

// decoder walks the generic YAML tree with strict field sets: unknown
// keys are errors, so a typo'd scenario fails loudly instead of
// silently dropping a curve. The first error sticks.
type decoder struct {
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

// obj asserts a mapping and rejects keys outside the allowed set.
func (d *decoder) obj(v any, ctx string, allowed ...string) map[string]any {
	if d.err != nil {
		return nil
	}
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("%s: expected a mapping", ctx)
		return nil
	}
	for k := range m {
		found := false
		for _, a := range allowed {
			if k == a {
				found = true
				break
			}
		}
		if !found {
			d.fail("%s: unknown key %q (allowed: %s)", ctx, k, strings.Join(allowed, ", "))
			return nil
		}
	}
	return m
}

func (d *decoder) list(v any, ctx string) []any {
	if d.err != nil {
		return nil
	}
	if v == nil {
		return nil
	}
	l, ok := v.([]any)
	if !ok {
		d.fail("%s: expected a list", ctx)
		return nil
	}
	return l
}

func (d *decoder) str(m map[string]any, key, ctx string) string {
	if d.err != nil || m[key] == nil {
		return ""
	}
	s, ok := m[key].(string)
	if !ok {
		d.fail("%s: %s must be a scalar", ctx, key)
		return ""
	}
	return s
}

func (d *decoder) float(m map[string]any, key, ctx string) float64 {
	s := d.str(m, key, ctx)
	if d.err != nil || s == "" {
		return 0
	}
	f, err := strconv.ParseFloat(s, 64)
	if err != nil {
		d.fail("%s: %s: %q is not a number", ctx, key, s)
		return 0
	}
	return f
}

func (d *decoder) int(m map[string]any, key, ctx string) int {
	s := d.str(m, key, ctx)
	if d.err != nil || s == "" {
		return 0
	}
	n, err := strconv.Atoi(s)
	if err != nil {
		d.fail("%s: %s: %q is not an integer", ctx, key, s)
		return 0
	}
	return n
}

func (d *decoder) int64(m map[string]any, key, ctx string) int64 {
	s := d.str(m, key, ctx)
	if d.err != nil || s == "" {
		return 0
	}
	n, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		d.fail("%s: %s: %q is not an integer", ctx, key, s)
		return 0
	}
	return n
}

func (d *decoder) bool(m map[string]any, key, ctx string) bool {
	s := d.str(m, key, ctx)
	if d.err != nil || s == "" {
		return false
	}
	switch s {
	case "true":
		return true
	case "false":
		return false
	}
	d.fail("%s: %s: %q is not a boolean", ctx, key, s)
	return false
}

// dur parses durations, additionally accepting a whole-day suffix
// ("2d", "1d12h") that time.ParseDuration lacks — multi-day drift is
// the DSL's bread and butter.
func (d *decoder) dur(m map[string]any, key, ctx string) time.Duration {
	s := d.str(m, key, ctx)
	if d.err != nil || s == "" {
		return 0
	}
	v, err := parseDuration(s)
	if err != nil {
		d.fail("%s: %s: %v", ctx, key, err)
		return 0
	}
	return v
}

// parseDuration is time.ParseDuration plus a leading "<n>d" day part.
func parseDuration(s string) (time.Duration, error) {
	rest := s
	var days int64
	if i := strings.IndexByte(s, 'd'); i > 0 {
		if n, err := strconv.ParseInt(s[:i], 10, 64); err == nil {
			days = n
			rest = s[i+1:]
		}
	}
	if days < 0 {
		return 0, fmt.Errorf("duration %q is negative", s)
	}
	var tail time.Duration
	if rest != "" {
		var err error
		tail, err = time.ParseDuration(rest)
		if err != nil {
			return 0, fmt.Errorf("duration %q: %v", s, err)
		}
	}
	return time.Duration(days)*24*time.Hour + tail, nil
}

// minutes converts a duration field to whole virtual minutes.
func (d *decoder) minutes(m map[string]any, key, ctx string) int {
	v := d.dur(m, key, ctx)
	if d.err != nil {
		return 0
	}
	if v%time.Minute != 0 {
		d.fail("%s: %s: %s must be whole minutes", ctx, key, v)
		return 0
	}
	return int(v / time.Minute)
}

// scenario decodes the document root.
func (d *decoder) scenario(m map[string]any) *Scenario {
	root := d.obj(m, "scenario",
		"name", "description", "seed", "window", "duration", "slo", "faults",
		"blueprints", "tenants", "events")
	if d.err != nil {
		return nil
	}
	sc := &Scenario{
		Name:        d.str(root, "name", "scenario"),
		Description: d.str(root, "description", "scenario"),
		Seed:        d.int64(root, "seed", "scenario"),
		Window:      d.dur(root, "window", "scenario"),
		Duration:    d.dur(root, "duration", "scenario"),
	}
	if v, ok := root["slo"]; ok {
		slo := d.obj(v, "slo", "p99-ms")
		sc.SLOP99Ms = d.float(slo, "p99-ms", "slo")
	}
	if v, ok := root["faults"]; ok {
		f := d.obj(v, "faults", "profile", "seed")
		sc.FaultProfile = d.str(f, "profile", "faults")
		sc.FaultSeed = d.int64(f, "seed", "faults")
	}
	for i, v := range d.list(root["blueprints"], "blueprints") {
		sc.Blueprints = append(sc.Blueprints, d.blueprint(v, fmt.Sprintf("blueprint %d", i+1)))
	}
	for i, v := range d.list(root["tenants"], "tenants") {
		sc.Tenants = append(sc.Tenants, d.tenant(v, fmt.Sprintf("tenant %d", i+1)))
	}
	for i, v := range d.list(root["events"], "events") {
		sc.Events = append(sc.Events, d.event(v, fmt.Sprintf("event %d", i+1)))
	}
	return sc
}

func (d *decoder) blueprint(v any, ctx string) tenant.Blueprint {
	m := d.obj(v, ctx, "name", "engine", "plan", "slaves", "workload",
		"tick-every", "mode", "gate-samples")
	if d.err != nil {
		return tenant.Blueprint{}
	}
	bp := tenant.Blueprint{
		Name:        d.str(m, "name", ctx),
		Engine:      d.str(m, "engine", ctx),
		Plan:        d.str(m, "plan", ctx),
		Slaves:      d.int(m, "slaves", ctx),
		Mode:        d.str(m, "mode", ctx),
		GateSamples: d.bool(m, "gate-samples", ctx),
	}
	if _, ok := m["tick-every"]; ok {
		bp.TickEveryMin = d.minutes(m, "tick-every", ctx)
	}
	if wv, ok := m["workload"]; ok {
		w := d.obj(wv, ctx+" workload", "class", "size-gib", "rate", "mix")
		bp.Workload = tenant.WorkloadSpec{
			Class:   d.str(w, "class", ctx),
			SizeGiB: d.float(w, "size-gib", ctx),
			Rate:    d.float(w, "rate", ctx),
			Mix:     d.float(w, "mix", ctx),
		}
	}
	return bp
}

func (d *decoder) tenant(v any, ctx string) TenantDecl {
	m := d.obj(v, ctx, "id", "tier", "databases")
	if d.err != nil {
		return TenantDecl{}
	}
	t := TenantDecl{
		ID:   d.str(m, "id", ctx),
		Tier: d.str(m, "tier", ctx),
	}
	for i, dv := range d.list(m["databases"], ctx+" databases") {
		t.Databases = append(t.Databases, d.database(dv, fmt.Sprintf("%s database %d", ctx, i+1)))
	}
	return t
}

func (d *decoder) database(v any, ctx string) DatabaseDecl {
	m := d.obj(v, ctx, "id", "blueprint", "plan", "load")
	if d.err != nil {
		return DatabaseDecl{}
	}
	return DatabaseDecl{
		ID:        d.str(m, "id", ctx),
		Blueprint: d.str(m, "blueprint", ctx),
		Plan:      d.str(m, "plan", ctx),
		Load:      d.shape(m["load"], ctx),
	}
}

// event decodes "- at: 6h\n  <kind>: {...}": exactly one action key
// besides "at".
func (d *decoder) event(v any, ctx string) Event {
	m, ok := v.(map[string]any)
	if !ok {
		d.fail("%s: expected a mapping", ctx)
		return Event{}
	}
	ev := Event{}
	if _, ok := m["at"]; !ok {
		d.fail("%s: needs an \"at\" time", ctx)
		return Event{}
	}
	ev.At = d.dur(m, "at", ctx)
	var kinds []string
	for k := range m {
		if k != "at" {
			kinds = append(kinds, k)
		}
	}
	if len(kinds) != 1 {
		sort.Strings(kinds)
		d.fail("%s: needs exactly one action, got %d (%s)", ctx, len(kinds), strings.Join(kinds, ", "))
		return Event{}
	}
	ev.Kind = kinds[0]
	body := m[ev.Kind]
	switch ev.Kind {
	case EvCreateTenant:
		b := d.obj(body, ctx, "id", "tier")
		ev.Tenant = d.str(b, "id", ctx)
		ev.Tier = d.str(b, "tier", ctx)
	case EvDeleteTenant:
		b := d.obj(body, ctx, "id")
		ev.Tenant = d.str(b, "id", ctx)
	case EvCreateDatabase:
		b := d.obj(body, ctx, "tenant", "id", "blueprint", "plan", "load")
		ev.Tenant = d.str(b, "tenant", ctx)
		ev.Database = d.str(b, "id", ctx)
		ev.Blueprint = d.str(b, "blueprint", ctx)
		ev.Plan = d.str(b, "plan", ctx)
		ev.Load = d.shape(b["load"], ctx)
	case EvDeleteDatabase:
		b := d.obj(body, ctx, "tenant", "id")
		ev.Tenant = d.str(b, "tenant", ctx)
		ev.Database = d.str(b, "id", ctx)
	case EvResize:
		b := d.obj(body, ctx, "tenant", "id", "plan")
		ev.Tenant = d.str(b, "tenant", ctx)
		ev.Database = d.str(b, "id", ctx)
		ev.Plan = d.str(b, "plan", ctx)
	case EvOnboardWave:
		b := d.obj(body, ctx, "prefix", "count", "every", "tier", "blueprint",
			"plan", "databases", "offboard-after", "load")
		ev.Prefix = d.str(b, "prefix", ctx)
		ev.Count = d.int(b, "count", ctx)
		ev.Every = d.dur(b, "every", ctx)
		ev.Tier = d.str(b, "tier", ctx)
		ev.Blueprint = d.str(b, "blueprint", ctx)
		ev.Plan = d.str(b, "plan", ctx)
		ev.Databases = 1
		if _, ok := b["databases"]; ok {
			ev.Databases = d.int(b, "databases", ctx)
		}
		ev.OffboardAfter = d.dur(b, "offboard-after", ctx)
		ev.Load = d.shape(b["load"], ctx)
	default:
		d.fail("%s: unknown event kind %q", ctx, ev.Kind)
	}
	return ev
}

// shape decodes a load list: "- <kind>: {params}" per term.
func (d *decoder) shape(v any, ctx string) workload.Shape {
	var sh workload.Shape
	for i, tv := range d.list(v, ctx+" load") {
		tctx := fmt.Sprintf("%s load term %d", ctx, i+1)
		m, ok := tv.(map[string]any)
		if !ok || len(m) != 1 {
			d.fail("%s: expected one \"- kind: {...}\" entry", tctx)
			return sh
		}
		var kind string
		for k := range m {
			kind = k
		}
		sh.Terms = append(sh.Terms, d.term(kind, m[kind], tctx))
	}
	return sh
}

func (d *decoder) term(kind string, v any, ctx string) workload.Term {
	t := workload.Term{Kind: kind}
	switch kind {
	case workload.TermDiurnal:
		b := d.obj(v, ctx, "peak", "trough", "peak-at")
		t.Factor = d.float(b, "peak", ctx)
		t.Trough = d.float(b, "trough", ctx)
		t.PeakMin = d.minutes(b, "peak-at", ctx)
	case workload.TermSpike:
		b := d.obj(v, ctx, "at", "for", "x")
		t.AtMin = d.minutes(b, "at", ctx)
		t.DurMin = d.minutes(b, "for", ctx)
		t.Factor = d.float(b, "x", ctx)
	case workload.TermBatch:
		b := d.obj(v, ctx, "start", "every", "for", "x")
		t.AtMin = d.minutes(b, "start", ctx)
		t.EveryMin = d.minutes(b, "every", ctx)
		t.DurMin = d.minutes(b, "for", ctx)
		t.Factor = d.float(b, "x", ctx)
	case workload.TermDrift:
		b := d.obj(v, ctx, "after", "over", "x")
		t.AtMin = d.minutes(b, "after", ctx)
		t.DurMin = d.minutes(b, "over", ctx)
		t.Factor = d.float(b, "x", ctx)
	case workload.TermScale:
		b := d.obj(v, ctx, "x")
		t.Factor = d.float(b, "x", ctx)
	default:
		d.fail("%s: unknown load term kind %q (want diurnal|spike|batch|drift|scale)", ctx, kind)
	}
	return t
}
