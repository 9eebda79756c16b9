package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"time"

	"autodbaas/internal/httpapi"
	"autodbaas/internal/scenario"
	"autodbaas/scenarios"
)

// loadScenario resolves -scenario: a path to a YAML file wins; anything
// that is not a readable file is looked up in the embedded library.
func loadScenario(arg string) (string, error) {
	if b, err := os.ReadFile(arg); err == nil {
		return string(b), nil
	} else if strings.ContainsAny(arg, "/\\.") {
		// Looks like a path — a library fallback would only mask the
		// real error.
		return "", fmt.Errorf("read scenario %s: %w", arg, err)
	}
	return scenarios.Source(arg)
}

// runScenario is the -scenario mode: parse, compile and replay one
// scenario against a dedicated fleet, optionally paced by -time-scale;
// with -serve the fleet and replay progress are also observable over
// HTTP while the schedule runs.
func runScenario(ctx context.Context, c cliConfig) error {
	src, err := loadScenario(c.Scenario)
	if err != nil {
		return err
	}
	sc, err := scenario.Parse(src)
	if err != nil {
		return err
	}
	plan, err := sc.Compile()
	if err != nil {
		return err
	}
	runner, err := scenario.NewRunner(plan, scenario.RunConfig{
		Parallelism:  c.Parallelism,
		Tuners:       c.Tuners,
		FaultProfile: c.FaultsProfile,
		TimeScale:    c.TimeScale,
		Safety:       c.Safety,
	})
	if err != nil {
		return err
	}
	defer runner.Close()

	fmt.Printf("scenario %q: %s\n", sc.Name, sc.Description)
	fmt.Printf("  %d windows of %s (%s of virtual time), %d actions, forecast: peak %d instances, %d provisions\n",
		plan.Windows, plan.Window, sc.Duration, len(plan.Actions), plan.PeakInstances, plan.TotalProvisions)
	if c.TimeScale > 0 {
		fmt.Printf("  paced at %gx: about %s of wall time\n", c.TimeScale,
			(time.Duration(float64(sc.Duration) / c.TimeScale)).Round(time.Second))
	}

	if c.Serve {
		mux := http.NewServeMux()
		mux.Handle("/", httpapi.NewFleetServer(runner.Service()))
		mux.Handle("/v1/scenario", httpapi.NewScenarioServer(runner.Status))
		obsHandler := httpapi.NewObsHandler(nil, nil)
		mux.Handle("/metrics", obsHandler)
		mux.Handle("/metrics.json", obsHandler)
		mux.Handle("/debug/", obsHandler)
		l, err := net.Listen("tcp", c.Listen)
		if err != nil {
			return err
		}
		go func() {
			if err := httpapi.Serve(ctx, l, mux); err != nil {
				fmt.Fprintf(os.Stderr, "autodbaas: http: %v\n", err)
			}
		}()
		fmt.Printf("watching on http://%s  (GET /v1/scenario, /v1/fleet, /metrics)\n", l.Addr())
	}

	res, err := runner.Run(ctx)
	if err != nil {
		return err
	}

	fmt.Printf("scenario %q complete: throttles=%d slo-violations=%d retries=%d escalations=%d provisions=%d deprovisions=%d resizes=%d peak-instances=%d mean-provision-latency=%.1f windows\n",
		res.Scenario, res.Throttles, res.SLOViolations, res.Retries, res.Escalations,
		res.Provisions, res.Deprovisions, res.Resizes, res.PeakInstances, res.MeanProvisionLatency())
	fmt.Printf("fleet fingerprint: %s\n", res.Fingerprint)

	if c.TimelineOut != "" {
		if err := os.MkdirAll(c.TimelineOut, 0o755); err != nil {
			return err
		}
		for ext, write := range map[string]func(*os.File) error{
			".csv":  func(f *os.File) error { return res.WriteCSV(f) },
			".json": func(f *os.File) error { return res.WriteJSON(f) },
		} {
			path := filepath.Join(c.TimelineOut, sc.Name+ext)
			f, err := os.Create(path)
			if err != nil {
				return err
			}
			if err := write(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			fmt.Printf("timeline written to %s\n", path)
		}
	}
	if c.Serve {
		fmt.Println("replay complete; ctrl-c to stop the HTTP endpoints")
		<-ctx.Done()
	}
	return nil
}
