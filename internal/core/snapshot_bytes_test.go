package core

import (
	"sort"
	"strings"
	"testing"

	"autodbaas/internal/checkpoint"
	"autodbaas/internal/faults"
)

// sectionCeilings are the committed byte ceilings per snapshot section
// kind for the fleet TestSnapshotSectionByteCeilings builds. Each is the
// measured size plus about 10%; lower one when a change shrinks its kind.
var sectionCeilings = map[string]int{
	"repository/store":         26_800,
	"tuners":                   230_000,
	"instance agent":           21_800,
	"instance engine log":      39_200,
	"instance engine profiles": 142_400,
	"instance engine other":    22_800,
	"instance monitor":         106,
	"other sections":           16_300,
}

// snapshotSectionBytes splits a snapshot's bytes by section kind. An
// instance section is read through the codec's own decoder, which
// reports the bytes of its agent, each node's query log, profiles and
// remaining engine state, and the monitor; the section's name header,
// mostly the engine's knob and counter names, counts as engine state.
// It also reports, per replica node, how many log slots and profiles it
// carries.
func snapshotSectionBytes(t *testing.T, data []byte) (sizes map[string]int, replicaLog, replicaProfiles map[string]int) {
	t.Helper()
	_, sections, err := checkpoint.Parse(data)
	if err != nil {
		t.Fatal(err)
	}
	sizes = make(map[string]int)
	replicaLog, replicaProfiles = make(map[string]int), make(map[string]int)
	for name, payload := range sections {
		switch {
		case name == "repository/store" || name == "tuners":
			sizes[name] += len(payload)
		case strings.HasPrefix(name, "instance/"):
			st, sz, err := checkpoint.ParseInstance(payload)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sizes["instance agent"] += sz.Agent
			sizes["instance monitor"] += sz.Monitor
			sizes["instance engine log"] += sz.Log
			sizes["instance engine profiles"] += sz.Profiles
			sizes["instance engine other"] += sz.Engine
			for _, node := range st.Nodes[1:] {
				replicaLog[name] += node.QueryLogSlots
				replicaProfiles[name] += len(node.Profiles)
			}
		default:
			sizes["other sections"] += len(payload)
		}
	}
	return sizes, replicaLog, replicaProfiles
}

// TestSnapshotSectionByteCeilings pins what a snapshot costs, section
// kind by section kind, for a fixed 12-instance fleet (every odd
// instance with a replica) stepped 12 windows under the medium fault
// profile. A kind that outgrows its ceiling is named. Every replica node
// must carry an empty query log and no profiles: nothing reads them.
func TestSnapshotSectionByteCeilings(t *testing.T) {
	if testing.Short() {
		t.Skip("builds fleets")
	}
	s := buildCkptFleetOf(t, 2, faults.New(99, faults.Medium()), 12)
	stepN(s, 12)
	c, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got, replicaLog, replicaProfiles := snapshotSectionBytes(t, containerBytes(t, c))

	kinds := make([]string, 0, len(got))
	for k := range got {
		kinds = append(kinds, k)
	}
	sort.Strings(kinds)
	for _, k := range kinds {
		t.Logf("%-26s %10d bytes (ceiling %d)", k, got[k], sectionCeilings[k])
		ceiling, ok := sectionCeilings[k]
		if !ok {
			t.Errorf("section kind %q has no committed ceiling", k)
		} else if got[k] > ceiling {
			t.Errorf("section kind %q grew: %d bytes, ceiling %d", k, got[k], ceiling)
		}
	}

	if len(replicaLog) == 0 {
		t.Fatal("the fleet has no replica nodes")
	}
	for name, n := range replicaLog {
		if n != 0 || replicaProfiles[name] != 0 {
			t.Errorf("%s: replica nodes carry %d log slots and %d profiles, want 0 and 0", name, n, replicaProfiles[name])
		}
	}
}
