package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/bincodec"
	"autodbaas/internal/knobs"
	"autodbaas/internal/mdp"
	"autodbaas/internal/metrics"
	"autodbaas/internal/monitor"
	"autodbaas/internal/simdb"
	"autodbaas/internal/sqlparse"
)

// An "instance/<id>" section is binary (layout in DESIGN.md,
// "Checkpoint & resume"): a name header of every map key, then the
// nodes, the agent with its TDE and the monitor, each field in the
// order the coder visits it. Map keys and profiles go in a fixed order,
// so the bytes depend neither on map iteration nor on GOMAXPROCS.

// InstanceState is one decoded "instance/<id>" section: the agent (TDE
// embedded), the node engines (master first) and the monitor.
type InstanceState struct {
	Agent   agent.State
	Nodes   []simdb.EngineState
	Monitor monitor.State
}

// InstanceBytes is an instance section's bytes per part; Engine is the
// name header and the nodes' state outside their logs and profiles.
type InstanceBytes struct{ Agent, Monitor, Log, Profiles, Engine int }

const mapNil, mapSparse = 1, 2 // map flag bits
const minNodeBytes = 100       // a lower bound, against allocation bombs

// coder walks the layout both ways: with d nil it appends each field to
// b, else it reads each field from d.
type coder struct {
	b      []byte
	d      *bincodec.Decoder
	header []string
	mark   int
	sz     InstanceBytes
}

// part adds the bytes walked since the last part to n.
func (c *coder) part(n *int) {
	pos := len(c.b)
	if c.d != nil {
		pos = -c.d.Len()
	}
	*n += pos - c.mark
	c.mark = pos
}

// scalar codes one field: put appends it, get reads it.
func scalar[T any](c *coder, v *T, put func([]byte, T) []byte, get func(*bincodec.Decoder) T) {
	if c.d == nil {
		c.b = put(c.b, *v)
	} else {
		*v = get(c.d)
	}
}

func (c *coder) u8(v *byte)        { scalar(c, v, appendU8, (*bincodec.Decoder).U8) }
func (c *coder) int(v *int)        { scalar(c, v, bincodec.AppendInt, (*bincodec.Decoder).Int) }
func (c *coder) u64(v *uint64)     { scalar(c, v, binary.AppendUvarint, (*bincodec.Decoder).Uvarint) }
func (c *coder) i64(v *int64)      { scalar(c, v, binary.AppendVarint, (*bincodec.Decoder).Varint) }
func (c *coder) bool(v *bool)      { scalar(c, v, bincodec.AppendBool, (*bincodec.Decoder).Bool) }
func (c *coder) str(v *string)     { scalar(c, v, bincodec.AppendString, (*bincodec.Decoder).Str) }
func (c *coder) names(v *[]string) { scalar(c, v, bincodec.AppendStrings, (*bincodec.Decoder).Names) }
func (c *coder) time(v *time.Time) { scalar(c, v, appendTime, decodeTime) }

func (c *coder) f64(vs ...*float64) {
	for _, v := range vs {
		scalar(c, v, bincodec.AppendF64, (*bincodec.Decoder).F64)
	}
}

// count codes a count of items at least per bytes long each.
func (c *coder) count(v *int, per int) {
	scalar(c, v, bincodec.AppendInt, func(d *bincodec.Decoder) int { return d.Count(per) })
}

func appendU8(b []byte, v byte) []byte { return append(b, v) }

// An instance section's times always carry their zone offset.
func appendTime(b []byte, t time.Time) []byte  { return bincodec.AppendTime(b, t, true) }
func decodeTime(d *bincodec.Decoder) time.Time { return d.Time(true) }

// list codes a slice of items of at least per bytes; nil when empty.
func list[T any](c *coder, s *[]T, per int, each func(*T)) {
	n := len(*s)
	if c.count(&n, per); c.d != nil && n > 0 {
		*s = make([]T, n)
	}
	for i := range *s {
		each(&(*s)[i])
	}
}

// bytes codes n raw bytes; simdb.Engine.CheckState checks them.
func (c *coder) bytes(v *[]byte, n int) {
	scalar(c, v, func(b, v []byte) []byte { return append(b, v...) },
		func(d *bincodec.Decoder) []byte { return append([]byte(nil), d.Take(n)...) })
}

func (c *coder) values(m *map[string]float64) {
	if c.d != nil {
		flags := c.d.U8()
		if flags&^(mapNil|mapSparse) != 0 {
			c.d.Fail(fmt.Errorf("map has unknown flags %#x", flags))
		}
		*m = c.d.Values(c.header, flags&mapNil != 0, flags&mapSparse != 0)
		return
	}
	flags := bincodec.ValuesFlag(*m, c.header, mapNil, mapSparse)
	c.b = bincodec.AppendValues(append(c.b, flags), *m, c.header, flags&mapSparse != 0)
}

func (c *coder) instance(st *InstanceState) {
	c.names(&c.header)
	c.part(&c.sz.Engine)
	list(c, &st.Nodes, minNodeBytes, c.node)
	c.agent(&st.Agent)
	c.part(&c.sz.Agent)
	c.int(&st.Monitor.Count)
	c.time(&st.Monitor.Last)
	c.part(&c.sz.Monitor)
}

func (c *coder) node(n *simdb.EngineState) {
	c.values((*map[string]float64)(&n.Cfg))
	c.values((*map[string]float64)(&n.PendingRestart))
	c.values(&n.Counters)
	c.time(&n.Now)
	c.f64(&n.WorkingSet, &n.DirtyBytes, &n.WalSinceCkpt)
	c.time(&n.LastCkpt)
	c.time(&n.LastVacuum)
	c.i64((*int64)(&n.CkptSurgeLeft))
	c.f64(&n.CkptSurgeRate, &n.DiskLatency, &n.DiskWriteLatency, &n.IOPS, &n.LastQPS, &n.LastP99, &n.ActiveConns)
	c.time(&n.JitterUntil)
	c.f64(&n.JitterFactor)
	c.bool(&n.Down)
	c.int(&n.Restarts)
	c.part(&c.sz.Engine)

	c.count(&n.QueryLogSlots, 2)
	c.int(&n.QueryLogNext)
	c.bool(&n.QueryLogFull)
	c.names(&n.QueryLogTemplates)
	width := 2
	if len(n.QueryLogTemplates) > 1<<16 {
		width = 4
	}
	c.bytes(&n.QueryLogClasses, len(n.QueryLogTemplates))
	c.bytes(&n.QueryLogTemplateIdx, width*n.QueryLogSlots)
	c.part(&c.sz.Log)

	c.profiles(&n.Profiles)
	c.part(&c.sz.Profiles)
	c.u64(&n.CfgEpoch)
	c.i64(&n.RNG.Seed)
	c.u64(&n.RNG.Steps)
	c.part(&c.sz.Engine)
}

func (c *coder) profiles(m *map[string]simdb.TemplateProfile) {
	ids := make([]string, 0, len(*m))
	for id := range *m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	count := len(ids)
	if c.count(&count, 3); c.d != nil && count > 0 {
		ids, *m = make([]string, count), make(map[string]simdb.TemplateProfile, count)
	}
	for i := 0; i < count && (c.d == nil || c.d.Err() == nil); i++ {
		c.str(&ids[i])
		if c.d != nil && i > 0 && ids[i] <= ids[i-1] {
			c.d.Fail(fmt.Errorf("profile %q listed after %q", ids[i], ids[i-1]))
		}
		p := (*m)[ids[i]]
		pr := &p.Profile
		fields := [5]*float64{&pr.MemDemand, &pr.MaintMem, &pr.TempBytes, &pr.ReadBytes, &pr.WriteBytes}
		bools := [2]*bool{&pr.Parallelizable, &pr.IndexFriendly}
		cls, flags := byte(p.Class), byte(0)
		for j, f := range fields {
			if math.Float64bits(*f) != 0 {
				flags |= 1 << j
			}
		}
		for j, b := range bools {
			if *b {
				flags |= 1 << (len(fields) + j)
			}
		}
		c.u8(&cls)
		if c.u8(&flags); c.d != nil && (int(cls) >= sqlparse.NumClasses || flags>>(len(fields)+len(bools)) != 0) {
			c.d.Fail(fmt.Errorf("profile %q has class %d and flags %#x", ids[i], cls, flags))
		}
		p.Class = sqlparse.Class(cls)
		for j, b := range bools {
			*b = flags&(1<<(len(fields)+j)) != 0
		}
		for j, f := range fields {
			if flags&(1<<j) != 0 {
				c.f64(f)
			}
		}
		if c.d != nil {
			(*m)[ids[i]] = p
		}
	}
}

func (c *coder) agent(a *agent.State) {
	c.time(&a.LastTick)
	c.time(&a.LastPeriodic)
	c.int(&a.Uploaded)
	c.int(&a.Suppressed)

	t := &a.TDE
	c.i64(&t.RNG.Seed)
	c.u64(&t.RNG.Steps)
	c.int(&t.Filter.Consecutive)
	c.int(&t.Filter.Evaluations)
	c.int(&t.Filter.Upgrades)
	for i := range t.Classes {
		c.int(&t.Classes[i])
	}
	c.int(&t.Reservoir.Seen)
	list(c, &t.Reservoir.Items, 1, c.str)
	list(c, &t.Automata, 25, func(as *mdp.AutomatonState) {
		c.str(&as.Knob)
		c.f64(&as.Value, &as.Probs[0], &as.Probs[1])
	})
	c.values((*map[string]float64)(&t.LastSnap))
	c.time(&t.LastSnapAt)
	if c.d != nil {
		t.Throttles = make(map[knobs.Class]int)
	}
	for _, cls := range knobs.Classes() {
		n := t.Throttles[cls]
		if c.int(&n); c.d != nil && n > 0 {
			t.Throttles[cls] = n
		}
	}
	c.int(&t.Upgrades)
	c.int(&t.Ticks)
}

// captureInstance reads one fleet member's state.
func captureInstance(fm FleetMember) (st InstanceState) {
	inst := fm.Agent.Instance()
	st.Agent = fm.Agent.CheckpointState()
	for _, node := range append([]*simdb.Engine{inst.Replica.Master()}, inst.Replica.Slaves()...) {
		st.Nodes = append(st.Nodes, node.CheckpointState())
	}
	if fm.Monitor != nil {
		st.Monitor = fm.Monitor.CheckpointState()
	}
	return st
}

// AppendInstance appends st as the instance section of an engine
// instance, whose catalogues order the name header.
func AppendInstance(b []byte, st *InstanceState, engine knobs.Engine) []byte {
	maps := []map[string]float64{st.Agent.TDE.LastSnap}
	for _, n := range st.Nodes {
		maps = append(maps, n.Cfg, n.PendingRestart, n.Counters)
	}
	set := make(map[string]bool, 128)
	for _, m := range maps {
		for k := range m {
			set[k] = true
		}
	}
	var catalogue []string
	if kc, err := knobs.CatalogFor(engine); err == nil {
		catalogue = kc.Names()
	}
	if mc, err := metrics.CatalogFor(string(engine)); err == nil {
		catalogue = append(catalogue, mc.Names()...)
	}
	c := &coder{b: b, header: bincodec.CatalogueOrder(set, catalogue), mark: len(b)}
	c.instance(st)
	return c.b
}

// ParseInstance decodes an instance section. It checks the bytes alone;
// a restore also checks the state against its member.
func ParseInstance(payload []byte) (InstanceState, InstanceBytes, error) {
	var st InstanceState
	c := &coder{d: bincodec.NewDecoder(payload), mark: -len(payload)}
	c.instance(&st)
	if c.d.Err() == nil && c.d.Len() > 0 {
		c.d.Fail(fmt.Errorf("%d bytes after the monitor", c.d.Len()))
	}
	if err := c.d.Err(); err != nil {
		return InstanceState{}, InstanceBytes{}, err
	}
	return st, c.sz, nil
}

// restoreInstance applies one "instance/<id>" payload onto a rebuilt
// member. Every node engine and the TDE accept their decoded state
// before the first is overwritten, so a rejected section changes nothing.
func restoreInstance(fm FleetMember, name string, payload []byte) error {
	st, _, err := ParseInstance(payload)
	if err != nil {
		return fmt.Errorf("checkpoint: decode section %q: %w", name, err)
	}
	inst := fm.Agent.Instance()
	nodes := append([]*simdb.Engine{inst.Replica.Master()}, inst.Replica.Slaves()...)
	if len(st.Nodes) != len(nodes) {
		return fmt.Errorf("%w: section %q holds %d nodes, instance has %d", ErrManifest, name, len(st.Nodes), len(nodes))
	}
	for i, node := range nodes {
		if err := node.CheckState(st.Nodes[i]); err != nil {
			return fmt.Errorf("checkpoint: section %q node %d: %w", name, i, err)
		}
	}
	if err := fm.Agent.TDE().CheckState(st.Agent.TDE); err != nil {
		return fmt.Errorf("checkpoint: section %q agent: %w", name, err)
	}
	for i, node := range nodes {
		if err := node.RestoreCheckpointState(st.Nodes[i]); err != nil {
			return fmt.Errorf("checkpoint: section %q node %d: %w", name, i, err)
		}
	}
	if err := fm.Agent.RestoreCheckpointState(st.Agent); err != nil {
		return fmt.Errorf("checkpoint: section %q agent: %w", name, err)
	}
	if fm.Monitor != nil {
		fm.Monitor.RestoreCheckpointState(st.Monitor)
	}
	return nil
}
