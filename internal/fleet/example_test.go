package fleet_test

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/fleet"
	"repro/internal/sched"
	"repro/internal/testkit"
)

// ExampleFleet_Run dispatches a tiny explicit trace — including one
// latency-class job with a deadline — onto a single miniature device
// and reports the per-class accounting.
func ExampleFleet_Run() {
	p, err := core.New(testkit.Config())
	if err != nil {
		log.Fatal(err)
	}
	if err := p.Init(testkit.Universe()); err != nil {
		log.Fatal(err)
	}
	f, err := fleet.NewHomogeneous(p, 1, fleet.Config{
		NC:     2,
		Policy: sched.FCFS,
		SLO:    fleet.SLOConfig{Enabled: true},
	})
	if err != nil {
		log.Fatal(err)
	}
	res, err := f.Run([]fleet.Arrival{
		{Name: "miniC", Cycle: 0},
		{Name: "miniA", Cycle: 0},
		{Name: "miniMC", Cycle: 100, SLO: fleet.Latency, Deadline: 400_000},
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("jobs=%d groups=%d devices=%d\n", len(res.Jobs), res.Groups, res.Devices)
	st := res.Stats()
	fmt.Printf("latency jobs=%d misses=%d evictions=%d\n", st.Latency, st.Misses, len(res.Evictions))
	// Output:
	// jobs=3 groups=2 devices=1
	// latency jobs=1 misses=0 evictions=0
}
