package core

import (
	"encoding/json"
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
	"instance agent":           53_000,
	"instance engine log":      47_200,
	"instance engine profiles": 730_000,
	"instance engine other":    27_500,
	"instance monitor":         555,
	"other sections":           17_500,
}

// engineLogFields are the EngineState JSON fields that hold the query log.
var engineLogFields = map[string]bool{
	"query_log": true, "query_log_slots": true, "query_log_next": true, "query_log_full": true,
	"query_log_templates": true, "query_log_classes": true, "query_log_template_idx": true,
}

// snapshotSectionBytes splits a snapshot's bytes by section kind. Within
// an instance section it counts the JSON values of the agent, each
// node's query log, profiles and remaining engine state, and the monitor.
// It also reports, per replica node, how many log slots and profiles it
// carries. No node may write per-slot SQL text.
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
			var inst struct {
				Agent   json.RawMessage              `json:"agent"`
				Nodes   []map[string]json.RawMessage `json:"nodes"`
				Monitor json.RawMessage              `json:"monitor"`
			}
			if err := json.Unmarshal(payload, &inst); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			sizes["instance agent"] += len(inst.Agent)
			sizes["instance monitor"] += len(inst.Monitor)
			for i, node := range inst.Nodes {
				if _, ok := node["query_log"]; ok {
					t.Errorf("%s node %d writes its query log's SQL text", name, i)
				}
				for field, v := range node {
					switch {
					case engineLogFields[field]:
						sizes["instance engine log"] += len(v)
					case field == "profiles":
						sizes["instance engine profiles"] += len(v)
					default:
						sizes["instance engine other"] += len(v)
					}
				}
				if i == 0 {
					continue
				}
				var slots int
				var profiles map[string]json.RawMessage
				if v, ok := node["query_log_slots"]; ok {
					if err := json.Unmarshal(v, &slots); err != nil {
						t.Fatalf("%s node %d: %v", name, i, err)
					}
				}
				if p, ok := node["profiles"]; ok {
					if err := json.Unmarshal(p, &profiles); err != nil {
						t.Fatalf("%s node %d: %v", name, i, err)
					}
				}
				replicaLog[name] += slots
				replicaProfiles[name] += len(profiles)
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
	got, replicaLog, replicaProfiles := snapshotSectionBytes(t, c.Bytes())

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
