package shard

import (
	"strings"
	"testing"

	"autodbaas/internal/tenant"
)

// TestCoreSpecBuildsTheWorkloadOnce: materializing a spec validates it
// while it builds the workload generator, so it costs one build and a
// few allocations more, not the two builds that validating first and
// building after would cost.
func TestCoreSpecBuildsTheWorkloadOnce(t *testing.T) {
	for _, class := range []string{"tpcc", "production", "adulterated-tpcc"} {
		sp := InstanceSpec{ID: "db-1", Plan: "m4.large", Engine: "postgres", Seed: 1, Workload: tenant.WorkloadSpec{Class: class}}
		build := testing.AllocsPerRun(20, func() {
			if _, err := sp.Workload.Build(); err != nil {
				t.Fatal(err)
			}
		})
		spec := testing.AllocsPerRun(20, func() {
			if _, err := sp.CoreSpec(); err != nil {
				t.Fatal(err)
			}
		})
		if spec > build+4 {
			t.Fatalf("%s: CoreSpec allocates %.0f objects, one workload build %.0f", class, spec, build)
		}
	}
}

// TestCoreSpecRejectsWhatValidateRejects: CoreSpec's error for each
// malformed field is Validate's, and names the instance.
func TestCoreSpecRejectsWhatValidateRejects(t *testing.T) {
	tpcc := tenant.WorkloadSpec{Class: "tpcc"}
	for _, sp := range []InstanceSpec{
		{Engine: "postgres", Workload: tpcc},
		{ID: "db-1", Engine: "oracle", Workload: tpcc},
		{ID: "db-1", Engine: "postgres", Workload: tenant.WorkloadSpec{Class: "no-such-class"}},
	} {
		_, err := sp.CoreSpec()
		verr := sp.Validate()
		if err == nil || verr == nil || err.Error() != verr.Error() {
			t.Fatalf("%+v: CoreSpec error %v, Validate error %v", sp, err, verr)
		}
		if !strings.HasPrefix(err.Error(), "shard: instance") {
			t.Fatalf("%+v: error %q does not name the instance", sp, err)
		}
	}
}
