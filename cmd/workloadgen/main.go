// Command workloadgen emits SQL workload traces and arrival-rate curves
// from the built-in generators — useful for inspecting what the
// simulated databases execute and for feeding external tools.
//
// Usage:
//
//	workloadgen -workload tpcc -n 20            # print 20 sampled queries
//	workloadgen -workload production -rate      # print the daily rate curve
//	workloadgen -workload tpcc -adulterate 0.8 -n 20
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"time"

	"autodbaas/internal/workload"
)

func main() {
	name := flag.String("workload", "tpcc", "workload name (tpcc|ycsb|wikipedia|twitter|tpch|chbench|production)")
	n := flag.Int("n", 10, "number of queries to sample")
	seed := flag.Int64("seed", 1, "PRNG seed")
	rate := flag.Bool("rate", false, "print the 24h arrival-rate curve instead of queries")
	adulterate := flag.Float64("adulterate", 0, "wrap TPCC with this adulteration probability (0 disables)")
	flag.Parse()

	var gen workload.Generator
	var err error
	if *adulterate > 0 {
		gen = workload.NewAdulteratedTPCC(21*workload.GiB, 3000, *adulterate)
	} else {
		gen, err = workload.Registry(*name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "workloadgen: %v\n", err)
			os.Exit(1)
		}
	}

	if *rate {
		day := time.Date(2021, 3, 23, 0, 0, 0, 0, time.UTC)
		fmt.Println("hour\tqps")
		for m := 0; m < 24*60; m += 15 {
			at := day.Add(time.Duration(m) * time.Minute)
			fmt.Printf("%.2f\t%.1f\n", float64(m)/60, gen.RequestRate(at))
		}
		return
	}

	rng := rand.New(rand.NewSource(*seed))
	fmt.Printf("-- %s: %d sampled queries (DB size %.1f GB)\n", gen.Name(), *n, gen.DBSizeBytes()/workload.GiB)
	for i := 0; i < *n; i++ {
		q := gen.Sample(rng)
		fmt.Printf("%s;  -- class=%s mem=%.1fMB read=%.1fMB write=%.1fMB\n",
			q.Text(), q.Class,
			q.Profile.MemDemand/workload.MiB,
			q.Profile.ReadBytes/workload.MiB,
			q.Profile.WriteBytes/workload.MiB)
	}
}
