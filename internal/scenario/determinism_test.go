package scenario

import (
	"bytes"
	"context"
	"testing"

	"autodbaas/internal/shard"
	"autodbaas/scenarios"
)

func runLibrary(t *testing.T, name string, cfg RunConfig) *Result {
	t.Helper()
	r, err := NewRunner(compileLibrary(t, name), cfg)
	if err != nil {
		t.Fatalf("%s: runner: %v", name, err)
	}
	defer r.Close()
	res, err := r.Run(context.Background())
	if err != nil {
		t.Fatalf("%s: run: %v", name, err)
	}
	return res
}

// compileLibrary parses and compiles one library scenario.
func compileLibrary(t *testing.T, name string) *Plan {
	t.Helper()
	src, err := scenarios.Source(name)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := Parse(src)
	if err != nil {
		t.Fatalf("%s: parse: %v", name, err)
	}
	p, err := sc.Compile()
	if err != nil {
		t.Fatalf("%s: compile: %v", name, err)
	}
	return p
}

func timelineCSV(t *testing.T, res *Result) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := res.WriteCSV(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func requireIdentical(t *testing.T, name, whatA, whatB string, a, b *Result) {
	t.Helper()
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("%s: fingerprint diverged %s=%s %s=%s", name, whatA, a.Fingerprint, whatB, b.Fingerprint)
	}
	if a.Throttles != b.Throttles {
		t.Errorf("%s: throttles diverged %s=%d %s=%d", name, whatA, a.Throttles, whatB, b.Throttles)
	}
	ca, cb := timelineCSV(t, a), timelineCSV(t, b)
	if !bytes.Equal(ca, cb) {
		t.Errorf("%s: timeline CSV diverged between %s and %s", name, whatA, whatB)
	}
}

func testShards() []shard.Config {
	return []shard.Config{
		{Name: "s0", Seed: 1, Parallelism: 2},
		{Name: "s1", Seed: 2, Parallelism: 2},
		{Name: "s2", Seed: 3, Parallelism: 2},
	}
}

// TestLibraryDeterminism replays every library scenario and holds the
// determinism contract:
//
//   - flat runs are bit-identical across parallelism (P=1/4/16):
//     same fingerprint, same throttle counts, byte-identical timeline;
//   - the same holds under a medium fault-profile override;
//   - a sharded run is bit-identical run-over-run;
//   - flat and sharded agree on the control-plane projection (tenants,
//     instances, provisions, deprovisions, resizes per window).
//
// Flat and sharded data planes are NOT expected to produce identical
// fingerprints: a flat fleet shares one tuner pool while each shard
// owns its own (see DESIGN.md "Scenario DSL").
func TestLibraryDeterminism(t *testing.T) {
	for _, name := range scenarios.Names() {
		name := name
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			flat1 := runLibrary(t, name, RunConfig{Parallelism: 1})
			flat4 := runLibrary(t, name, RunConfig{Parallelism: 4})
			requireIdentical(t, name, "P=1", "P=4", flat1, flat4)

			if !testing.Short() {
				flat16 := runLibrary(t, name, RunConfig{Parallelism: 16})
				requireIdentical(t, name, "P=1", "P=16", flat1, flat16)

				f1 := runLibrary(t, name, RunConfig{Parallelism: 1, FaultProfile: "medium"})
				f4 := runLibrary(t, name, RunConfig{Parallelism: 4, FaultProfile: "medium"})
				requireIdentical(t, name, "medium/P=1", "medium/P=4", f1, f4)
			}

			shardA := runLibrary(t, name, RunConfig{Shards: testShards()})
			shardB := runLibrary(t, name, RunConfig{Shards: testShards()})
			requireIdentical(t, name, "shard/run-1", "shard/run-2", shardA, shardB)

			// Flat vs sharded: control-plane projection must agree even
			// though the data planes (tuner pools) differ.
			if len(flat1.Timeline) != len(shardA.Timeline) {
				t.Fatalf("%s: timeline lengths differ flat=%d shard=%d", name, len(flat1.Timeline), len(shardA.Timeline))
			}
			for i := range flat1.Timeline {
				f, s := flat1.Timeline[i], shardA.Timeline[i]
				if f.Tenants != s.Tenants || f.Instances != s.Instances ||
					f.Provisions != s.Provisions || f.Deprovisions != s.Deprovisions || f.Resizes != s.Resizes {
					t.Fatalf("%s window %d: control plane diverged flat={t:%d i:%d p:%d d:%d r:%d} shard={t:%d i:%d p:%d d:%d r:%d}",
						name, f.Window, f.Tenants, f.Instances, f.Provisions, f.Deprovisions, f.Resizes,
						s.Tenants, s.Instances, s.Provisions, s.Deprovisions, s.Resizes)
				}
			}
		})
	}
}

// TestLibraryCompiles pins cheap structural facts for every library
// scenario so a broken YAML fails fast with a readable message.
func TestLibraryCompiles(t *testing.T) {
	names := scenarios.Names()
	if len(names) < 10 {
		t.Fatalf("library has %d scenarios, want at least 10", len(names))
	}
	for _, name := range names {
		src, err := scenarios.Source(name)
		if err != nil {
			t.Fatal(err)
		}
		sc, err := Parse(src)
		if err != nil {
			t.Fatalf("%s: parse: %v", name, err)
		}
		if sc.Name != name {
			t.Errorf("%s: scenario name %q does not match its file", name, sc.Name)
		}
		p, err := sc.Compile()
		if err != nil {
			t.Fatalf("%s: compile: %v", name, err)
		}
		if p.TotalProvisions == 0 || p.PeakInstances == 0 {
			t.Errorf("%s: compiles to an empty campaign: %+v", name, p)
		}
	}
}
