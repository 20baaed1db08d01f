// Command interference runs the all-pairs co-run campaign and prints the
// per-class average slowdown matrix of Figure 3.4, optionally with every
// underlying pair measurement.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	pairs := flag.Bool("pairs", false, "also print every pair measurement")
	flag.Parse()

	// Init runs the solo profiles and the pair co-runs on one worker
	// pool, then classifies and folds the pairs into the class matrix.
	p := core.MustNew(config.GTX480())
	start := time.Now()
	if err := p.Init(workloads.All()); err != nil {
		log.Fatal(err)
	}
	m := p.Matrix()
	log.Printf("solo profiles and all-pairs campaign (%d co-runs) finished in %v", len(m.Pairs), time.Since(start).Round(time.Millisecond))
	fmt.Println(m)
	if *pairs {
		for _, pr := range m.Pairs {
			fmt.Printf("%-6s + %-6s  slowdownA=%.2f slowdownB=%.2f  (co %d vs solo %d / %d)\n",
				pr.A, pr.B, pr.SlowdownA, pr.SlowdownB, pr.CoRunCycles, pr.SoloCyclesA, pr.SoloCyclesB)
		}
	}
}
