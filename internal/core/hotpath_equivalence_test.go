package core

import (
	"reflect"
	"testing"

	"autodbaas/internal/faults"
	"autodbaas/internal/sqlparse"
	"autodbaas/internal/tuner/bo"
)

// setHotPathCaches flips every hot-path cache introduced by the perf
// pass (SQL template memoisation, incremental GPR refits) and returns
// the previous settings.
func setHotPathCaches(on bool) (tpl, inc bool) {
	tpl = sqlparse.SetTemplateCacheEnabled(on)
	inc = bo.SetIncrementalFit(on)
	return tpl, inc
}

// TestHotPathCachesAreTransparent is the acceptance criterion of the
// hot-path pass: with every cache disabled, the fleet produces exactly
// the same fingerprint as with them enabled — at every parallelism
// level, both clean and under the medium chaos profile. The caches are
// pure memoisations; a single diverging float anywhere in two simulated
// hours of a six-instance fleet would show up here.
func TestHotPathCachesAreTransparent(t *testing.T) {
	if testing.Short() {
		t.Skip("fleet sweep")
	}
	run := func(cached bool, par int, withFaults bool) (fleetFingerprint, map[string]int64) {
		tpl, inc := setHotPathCaches(cached)
		defer func() {
			sqlparse.SetTemplateCacheEnabled(tpl)
			bo.SetIncrementalFit(inc)
		}()
		sqlparse.ResetTemplateCache()
		var in *faults.Injector
		if withFaults {
			in = faults.New(99, faults.Medium())
		}
		fp := runFleetWith(t, par, in)
		if in != nil {
			return fp, in.Counts()
		}
		return fp, nil
	}

	for _, tc := range []struct {
		name       string
		par        int
		withFaults bool
	}{
		{"par=1/clean", 1, false},
		{"par=4/clean", 4, false},
		{"par=16/clean", 16, false},
		{"par=4/faults", 4, true},
		{"par=16/faults", 16, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			on, onCounts := run(true, tc.par, tc.withFaults)
			off, offCounts := run(false, tc.par, tc.withFaults)
			if !reflect.DeepEqual(on, off) {
				t.Errorf("caches changed the simulation:\n  cached:   %+v\n  uncached: %+v", on, off)
			}
			if !reflect.DeepEqual(onCounts, offCounts) {
				t.Errorf("caches changed injected faults:\n  cached:   %v\n  uncached: %v", onCounts, offCounts)
			}
		})
	}
}
