// Command bench is the repository's benchmark: four fleet workloads,
// nine end-to-end metrics each, and a per-layer ledger from a second,
// traced pass — all timed from outside the program, through the public
// functions of fleet, shard, tuner and the layer packages.
//
//	go run ./bench                      # one full set, untraced
//	go run ./bench -trace               # plus the traced pass and ledger
//	go run ./bench -only tuning-storm   # one workload
//	go run ./bench -quick -trace        # smoke sizes, a few seconds
//	go run ./bench -agree 2             # two sets must agree within bounds
//
// The benchmark driver's form, one workload per invocation, prints the
// result object as the last line of stdout:
//
//	go run ./bench --workload steady-fleet --seed 3 --seconds 15 --trace 0
//
// See bench/README.md for the workloads, the metrics and how they are
// expected to interact.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// options are the command-line settings of one invocation.
type options struct {
	workload string
	seed     int64
	sizing   sizing
	trace    bool
	agree    int
	outDir   string
}

// childDeadline bounds one child process; the driver allows a whole
// invocation 180 seconds.
const childDeadline = 170 * time.Second

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	var o options
	var worker string
	var child, setupOnly bool
	fs.StringVar(&o.workload, "workload", "", "run one workload and print its result object as the last line")
	fs.StringVar(&o.workload, "only", "", "alias of -workload")
	fs.Int64Var(&o.seed, "seed", 1, "workload seed: blueprint assignment, load shapes, churn schedule")
	fs.IntVar(&o.sizing.Seconds, "seconds", referenceSeconds, "scales the measured windows; sizes are calibrated for the default")
	fs.BoolVar(&o.sizing.Quick, "quick", false, "smoke sizes: 8 instances, 20 windows, 1 worker")
	fs.BoolVar(&o.trace, "trace", false, "add the traced pass and print the per-layer ledger")
	fs.IntVar(&o.agree, "agree", 0, "run N full sets of the same seed and check they agree (try 2)")
	fs.StringVar(&o.outDir, "out", "bench/out", "directory for traces, per-run JSON and scratch files")
	fs.BoolVar(&child, "child", false, "internal: run one pass of -workload in this process")
	fs.BoolVar(&setupOnly, "setup-only", false, "internal: with -child, stop after set-up")
	fs.StringVar(&worker, "worker", "", "internal: serve one shard on this unix socket")
	if err := fs.Parse(joinBoolValue(args, "trace")); err != nil {
		return 2
	}

	switch {
	case worker != "":
		if err := runWorker(worker); err != nil {
			fmt.Fprintln(os.Stderr, "bench worker:", err)
			return 1
		}
		return 0
	case child:
		res, err := runChild(childConfig{Workload: o.workload, Seed: o.seed, Sizing: o.sizing,
			Traced: o.trace, SetupOnly: setupOnly, OutDir: o.outDir})
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		if err := json.NewEncoder(os.Stdout).Encode(res); err != nil {
			return 1
		}
		return 0
	}

	cl := &cleanup{}
	defer cl.run()
	cl.onSignal()
	if o.workload != "" {
		if _, ok := findWorkload(o.workload); !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", o.workload)
			return 2
		}
	}
	var err error
	if o.agree > 0 {
		err = runAgree(cl, o)
	} else {
		err = runSet(cl, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	return 0
}

// joinBoolValue rewrites "-name 0|1" to "-name=0|1". The driver passes
// "--trace 0"; Go's flag package only takes a boolean's value after an
// equals sign, and "-trace" alone must keep working.
func joinBoolValue(args []string, name string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-"+name || a == "--"+name) && i+1 < len(args) {
			if _, err := strconv.ParseBool(args[i+1]); err == nil {
				out = append(out, a+"="+args[i+1])
				i++
				continue
			}
		}
		out = append(out, a)
	}
	return out
}

// selected is the workloads an invocation runs, in set order.
func (o options) selected() []workloadDef {
	if o.workload == "" {
		return workloadDefs
	}
	d, _ := findWorkload(o.workload)
	return []workloadDef{d}
}

// setupRepeats is how many cold set-ups one run makes; setup_s is their
// median. Each is its own process, so each starts with cold caches.
func (o options) setupRepeats() int {
	if o.sizing.Quick {
		return 1
	}
	return 3
}

// runSet runs each selected workload once and prints the report; with a
// single workload the last line is the driver's result object.
func runSet(cl *cleanup, o options) error {
	var bad error
	for _, d := range o.selected() {
		rep, err := runWorkload(cl, o, d)
		if err != nil {
			return err
		}
		rep.print(os.Stdout, o.outDir)
		if err := writeJSON(fmt.Sprintf("%s/result-%s.json", o.outDir, d.Name), rep); err != nil {
			return err
		}
		if !rep.Correct {
			bad = fmt.Errorf("%w: %s: %v", errIncorrect, d.Name, rep.Problems)
		}
		if o.workload != "" {
			line, err := rep.contractLine(o.trace)
			if err != nil {
				return err
			}
			fmt.Println(line)
		}
	}
	return bad
}

// spawnChild runs one pass in a fresh process and decodes its result.
func spawnChild(cl *cleanup, o options, workload string, traced, setupOnly bool) (*runResult, error) {
	args := []string{"-child", "-workload", workload,
		"-seed", strconv.FormatInt(o.seed, 10),
		"-seconds", strconv.Itoa(o.sizing.Seconds),
		"-out", o.outDir}
	if o.sizing.Quick {
		args = append(args, "-quick")
	}
	if traced {
		args = append(args, "-trace")
	}
	if setupOnly {
		args = append(args, "-setup-only")
	}
	var stdout bytes.Buffer
	p, err := startSelf(&stdout, args...)
	if err != nil {
		return nil, err
	}
	cl.add(p.stop)
	defer p.stop()
	select {
	case <-p.exited:
	case <-time.After(childDeadline):
		p.stop()
		return nil, fmt.Errorf("%s: child exceeded %v; stderr:\n%s", workload, childDeadline, p.stderr.String())
	}
	if !p.cmd.ProcessState.Success() {
		return nil, fmt.Errorf("%s: child failed (%v); stderr:\n%s", workload, p.cmd.ProcessState, p.stderr.String())
	}
	var res runResult
	if err := json.Unmarshal(stdout.Bytes(), &res); err != nil {
		return nil, fmt.Errorf("%s: decode child result: %w", workload, err)
	}
	return &res, nil
}

// runWorkload measures one workload: the untraced pass, the extra cold
// set-ups, and (with -trace) the traced pass and its cross-checks.
func runWorkload(cl *cleanup, o options, d workloadDef) (*workloadReport, error) {
	untraced, err := spawnChild(cl, o, d.Name, false, false)
	if err != nil {
		return nil, err
	}
	setups := []float64{untraced.SetupS}
	for len(setups) < o.setupRepeats() {
		s, err := spawnChild(cl, o, d.Name, false, true)
		if err != nil {
			return nil, err
		}
		setups = append(setups, s.SetupS)
	}
	rep := &workloadReport{
		Workload:    d.Name,
		Why:         d.Why,
		Seed:        o.seed,
		NumCPU:      runtime.NumCPU(),
		Untraced:    untraced,
		SetupS:      setups,
		EndToEnd:    untraced.endToEnd(median(setups)),
		Attempted:   untraced.Attempted,
		Failed:      untraced.Failed,
		Fingerprint: untraced.Fingerprint,
	}
	rep.problem(untraced.check())
	if o.trace {
		traced, err := spawnChild(cl, o, d.Name, true, false)
		if err != nil {
			return nil, err
		}
		rep.Traced = traced
		rep.problem(traced.check())
		// The tracing must not change what the fleet computes.
		if traced.Throttles != untraced.Throttles || traced.Fingerprint != untraced.Fingerprint {
			rep.problem(fmt.Errorf("%w: traced pass saw %d throttles, fingerprint %s; untraced %d, %s",
				errIncorrect, traced.Throttles, traced.Fingerprint, untraced.Throttles, untraced.Fingerprint))
		}
		rep.Layer, traced.Layer = traced.Layer, nil
		u := ratio(float64(untraced.InstanceWindows), untraced.MeasuredWallS)
		t := ratio(float64(traced.InstanceWindows), traced.MeasuredWallS)
		rep.Layer["bench.trace_overhead_pct"] = layerValue{Value: 100 * ratio(u-t, u)}
	}
	rep.Correct = len(rep.Problems) == 0
	return rep, nil
}

func (r *workloadReport) problem(err error) {
	if err == nil {
		return
	}
	if !errors.Is(err, errIncorrect) {
		err = fmt.Errorf("%w: %v", errIncorrect, err)
	}
	r.Problems = append(r.Problems, err.Error())
}
