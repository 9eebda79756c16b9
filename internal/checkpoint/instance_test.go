package checkpoint

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"autodbaas/internal/agent"
	"autodbaas/internal/bincodec"
	"autodbaas/internal/cluster"
	"autodbaas/internal/knobs"
	"autodbaas/internal/monitor"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/workload"
)

// testMember provisions a Postgres member with one replica, runs it for
// windows five-minute windows under a spilling workload, and counts
// one monitor sample per window.
func testMember(t testing.TB, windows int) FleetMember {
	t.Helper()
	inst, err := cluster.NewProvisioner().Provision(cluster.ProvisionSpec{
		ID: "db-1", Plan: "m4.large", Engine: knobs.Postgres,
		DBSizeBytes: 21 * cluster.GiB, Slaves: 1, Seed: 7,
	})
	if err != nil {
		t.Fatal(err)
	}
	a, err := agent.New(inst, workload.NewAdulteratedTPCC(21*cluster.GiB, 3000, 0.8), nil, nil, agent.Options{TickEvery: 5 * time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	mon := monitor.NewAgent(100)
	for i := 0; i < windows; i++ {
		if _, _, err := a.RunWindow(5 * time.Minute); err != nil {
			t.Fatal(err)
		}
		if err := mon.Series("disk_latency_ms").Append(inst.Replica.Master().Now(), 1); err != nil {
			t.Fatal(err)
		}
	}
	return FleetMember{ID: "db-1", Agent: a, Monitor: mon}
}

func encodeMember(t testing.TB, fm FleetMember) []byte {
	t.Helper()
	raw, _ := EncodeInstance(fm)
	return raw
}

// TestInstanceRoundTrip: a section restored into a rebuilt member
// re-encodes to the same bytes, and the two members stay identical as
// they run on. The section carries every part its kind names.
func TestInstanceRoundTrip(t *testing.T) {
	live := testMember(t, 6)
	raw := encodeMember(t, live)
	st, sz, err := ParseInstance(raw)
	if err != nil {
		t.Fatal(err)
	}
	if sz.Agent+sz.Monitor+sz.Log+sz.Profiles+sz.Engine != len(raw) {
		t.Fatalf("parts %+v do not add up to the section's %d bytes", sz, len(raw))
	}
	if len(st.Nodes) != 2 || len(st.Nodes[0].Profiles) == 0 || st.Agent.TDE.Ticks != 6 || st.Monitor.Count != 6 {
		t.Fatalf("decoded %d nodes, %d master profiles, %d ticks, %d monitor samples", len(st.Nodes), len(st.Nodes[0].Profiles), st.Agent.TDE.Ticks, st.Monitor.Count)
	}
	restored := testMember(t, 0)
	if err := restoreInstance(restored, "instance/db-1", raw); err != nil {
		t.Fatal(err)
	}
	if again := encodeMember(t, restored); !bytes.Equal(again, raw) {
		t.Fatal("a restored member re-encodes to different bytes")
	}
	for i := 0; i < 3; i++ {
		for _, fm := range []FleetMember{live, restored} {
			if _, _, err := fm.Agent.RunWindow(5 * time.Minute); err != nil {
				t.Fatal(err)
			}
		}
	}
	if !bytes.Equal(encodeMember(t, live), encodeMember(t, restored)) {
		t.Fatal("the restored member diverged from the live one")
	}
}

// TestRestoreInstanceRejects: a section no CheckpointState could have
// written is refused with an error naming the problem, and the member
// it was meant for is left exactly as it was — node engines included,
// even when only the TDE's part is wrong.
func TestRestoreInstanceRejects(t *testing.T) {
	raw := encodeMember(t, testMember(t, 6))
	edit := func(f func(st *InstanceState)) []byte {
		st, _, err := ParseInstance(raw)
		if err != nil {
			t.Fatal(err)
		}
		f(&st)
		return AppendInstance(nil, &st, knobs.Postgres)
	}
	header := bincodec.AppendStrings(nil, nil)
	cases := []struct {
		name    string
		payload []byte
		want    string
	}{
		{"cut", raw[:len(raw)-1], "ends inside"},
		{"trailing byte", append(append([]byte(nil), raw...), 0), "bytes after the monitor"},
		{"node count past the end", binary.AppendUvarint(header, 1<<40), "ends inside"},
		{"log class past the last", edit(func(st *InstanceState) {
			st.Nodes[0].QueryLogClasses[0] = byte(sqlparse.NumClasses)
		}), "class"},
		{"profile class past the last", edit(func(st *InstanceState) {
			for id, p := range st.Nodes[0].Profiles {
				p.Class = sqlparse.Class(sqlparse.NumClasses)
				st.Nodes[0].Profiles[id] = p
				break
			}
		}), "class"},
		{"negative class count", edit(func(st *InstanceState) { st.Agent.TDE.Classes[sqlparse.ClassJoin] = -1 }), "overflows"},
		{"negative monitor count", edit(func(st *InstanceState) { st.Monitor.Count = -1 }), "overflows"},
		{"reservoir over capacity", edit(func(st *InstanceState) {
			r := &st.Agent.TDE.Reservoir
			r.Items = append(r.Items, r.Items...)
		}), "reservoir"},
		{"reservoir under its offers", edit(func(st *InstanceState) {
			r := &st.Agent.TDE.Reservoir
			r.Items = r.Items[:len(r.Items)-1]
		}), "reservoir"},
		{"automaton missing", edit(func(st *InstanceState) {
			st.Agent.TDE.Automata = st.Agent.TDE.Automata[1:]
		}), "automata"},
		{"automaton knob twice", edit(func(st *InstanceState) {
			st.Agent.TDE.Automata[1].Knob = st.Agent.TDE.Automata[0].Knob
		}), "automaton 1"},
		{"NaN probability", edit(func(st *InstanceState) { st.Agent.TDE.Automata[0].Probs[0] = math.NaN() }), "probabilities [NaN"},
		{"probability above 1", edit(func(st *InstanceState) { st.Agent.TDE.Automata[0].Probs[1] = 1.5 }), "1.5]"},
		{"short master log", edit(func(st *InstanceState) {
			n := &st.Nodes[0]
			n.QueryLogSlots--
			n.QueryLogTemplateIdx = n.QueryLogTemplateIdx[:len(n.QueryLogTemplateIdx)-2]
		}), "slots"},
		{"replica profiles", edit(func(st *InstanceState) { st.Nodes[1].Profiles = st.Nodes[0].Profiles }), "replica"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fm := testMember(t, 2)
			before := encodeMember(t, fm)
			err := restoreInstance(fm, "instance/db-1", tc.payload)
			if err == nil || !strings.Contains(err.Error(), tc.want) || !strings.Contains(err.Error(), "instance/db-1") {
				t.Fatalf("want an error naming the section and containing %q, got %v", tc.want, err)
			}
			if !bytes.Equal(encodeMember(t, fm), before) {
				t.Fatal("a rejected section changed the member")
			}
		})
	}
}

// maxFuzzSteps bounds the PRNG positions FuzzDecodeInstance restores:
// skipping costs time linear in the steps, and a mutated uvarint asks
// for up to 2^64.
const maxFuzzSteps = 1 << 24

// FuzzDecodeInstance: for any bytes, restoring an instance section
// either fails and leaves the member as it was, or succeeds, and then
// the member's own section restores into another member and re-encodes
// to the same bytes. It never panics.
func FuzzDecodeInstance(f *testing.F) {
	raw := encodeMember(f, testMember(f, 4))
	f.Add(raw)
	f.Add(raw[:len(raw)/2])
	f.Add(encodeMember(f, testMember(f, 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		if st, _, err := ParseInstance(data); err == nil {
			steps := st.Agent.TDE.RNG.Steps
			for _, n := range st.Nodes {
				steps = max(steps, n.RNG.Steps)
			}
			if steps > maxFuzzSteps {
				t.Skip("PRNG position too far to skip to")
			}
		}
		fm := testMember(t, 0)
		before := encodeMember(t, fm)
		if err := restoreInstance(fm, "instance/db-1", data); err != nil {
			if !bytes.Equal(encodeMember(t, fm), before) {
				t.Fatalf("a rejected section (%v) changed the member", err)
			}
			return
		}
		again := encodeMember(t, fm)
		other := testMember(t, 0)
		if err := restoreInstance(other, "instance/db-1", again); err != nil {
			t.Fatalf("a member's own section is rejected: %v", err)
		}
		if !bytes.Equal(encodeMember(t, other), again) {
			t.Fatal("a member's own section does not re-encode to itself")
		}
	})
}

// TestInstanceLogPastUint16Templates: a log with more distinct template
// IDs than a uint16 indexes travels with its 4-byte index intact.
func TestInstanceLogPastUint16Templates(t *testing.T) {
	st, _, err := ParseInstance(encodeMember(t, testMember(t, 1)))
	if err != nil {
		t.Fatal(err)
	}
	const slots = 1<<16 + 2
	n := &st.Nodes[0]
	n.QueryLogSlots, n.QueryLogNext, n.QueryLogFull = slots, 0, true
	n.QueryLogTemplates, n.QueryLogClasses, n.QueryLogTemplateIdx = nil, nil, nil
	for i := 0; i < slots; i++ {
		n.QueryLogTemplates = append(n.QueryLogTemplates, fmt.Sprintf("t%d", i))
		n.QueryLogClasses = append(n.QueryLogClasses, byte(i%sqlparse.NumClasses))
		n.QueryLogTemplateIdx = binary.LittleEndian.AppendUint32(n.QueryLogTemplateIdx, uint32(slots-1-i))
	}
	got, _, err := ParseInstance(AppendInstance(nil, &st, knobs.Postgres))
	if err != nil {
		t.Fatal(err)
	}
	if g := got.Nodes[0]; !reflect.DeepEqual(g.QueryLogTemplates, n.QueryLogTemplates) ||
		!bytes.Equal(g.QueryLogClasses, n.QueryLogClasses) || !bytes.Equal(g.QueryLogTemplateIdx, n.QueryLogTemplateIdx) {
		t.Fatal("the log changed on its way through the section")
	}
}
