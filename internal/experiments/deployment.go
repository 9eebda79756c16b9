package experiments

import (
	"fmt"
	"time"

	"autodbaas/internal/faults"
	"autodbaas/internal/shard"
	"autodbaas/internal/tuner"
)

// deployment is one experiment's fleet: an in-process shard, built the
// way every fleet shard is. An experiment's wiring is fixed, so a
// wiring error is a bug, and the methods panic on one, naming the
// experiment.
type deployment struct {
	*shard.Local
}

// newDeployment builds the shard named name from cfg: around the given
// injector and tuners when tuners are passed, from cfg's declarative
// tuner pool and fault profile otherwise.
func newDeployment(name string, cfg shard.Config, injector *faults.Injector, tuners ...tuner.Tuner) deployment {
	cfg.Name = name
	var l *shard.Local
	var err error
	if len(tuners) == 0 {
		l, err = shard.NewLocal(cfg)
	} else {
		l, err = shard.NewLocalWith(cfg, injector, tuners...)
	}
	if err != nil {
		panic(fmt.Sprintf("%s: %v", name, err))
	}
	return deployment{l}
}

// add provisions one database.
func (d deployment) add(spec shard.InstanceSpec) {
	if err := d.AddInstance(spec); err != nil {
		panic(fmt.Sprintf("%s: %v", d.Name(), err))
	}
}

// run steps the fleet through n 5-minute windows and returns their
// throttles.
func (d deployment) run(n int) int {
	throttles := 0
	for i := 0; i < n; i++ {
		res, err := d.Step(5 * time.Minute)
		if err != nil {
			panic(fmt.Sprintf("%s: %v", d.Name(), err))
		}
		throttles += res.Throttles
	}
	return throttles
}

// counters reads the control-plane counters.
func (d deployment) counters() shard.Counters {
	k, err := d.Counters()
	if err != nil {
		panic(fmt.Sprintf("%s: %v", d.Name(), err))
	}
	return k
}
