// Command cosched schedules an arbitrary queue of benchmarks under a
// chosen policy and prints per-group and device-level results — the
// paper's full methodology applied to a user-supplied queue.
//
// Usage:
//
//	cosched -list
//	cosched -queue BLK,HS,GUPS,SAD -nc 2 -policy ilp-smra
//	cosched -queue BLK,HS,GUPS,SAD,SPMV,LUD -nc 3 -policy ilp
//	cosched -queue BLK,HS,GUPS,SAD -seed 7   # deterministic shuffle
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	queueFlag := flag.String("queue", "", "comma-separated benchmark names")
	nc := flag.Int("nc", 2, "concurrent applications per group")
	policyFlag := flag.String("policy", "ilp-smra", "serial | fcfs | profile | ilp | ilp-smra")
	seed := flag.Uint64("seed", 0, "shuffle the queue deterministically (0 keeps the given order)")
	list := flag.Bool("list", false, "print the available benchmark names and exit")
	flag.Parse()

	if *list {
		fmt.Println("available benchmarks (paper's expected class in parentheses):")
		for _, name := range workloads.Names {
			fmt.Printf("  %-5s (%s)\n", name, workloads.ExpectedClass[name])
		}
		return
	}
	if *queueFlag == "" {
		log.Fatal("need -queue (e.g. -queue BLK,HS,GUPS,SAD); run cosched -list for names")
	}
	names := strings.Split(*queueFlag, ",")
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if _, err := workloads.Params(names[i]); err != nil {
			log.Fatalf("%v (run cosched -list for the available names)", err)
		}
	}
	if *seed != 0 {
		rng.NewStream(*seed).Shuffle(len(names), func(i, j int) {
			names[i], names[j] = names[j], names[i]
		})
		log.Printf("queue shuffled with seed %d: %s", *seed, strings.Join(names, ","))
	}
	policy, err := sched.ParsePolicy(*policyFlag)
	if err != nil {
		log.Fatal(err)
	}

	cfg := config.GTX480()
	p := core.MustNew(cfg)
	log.Printf("initializing pipeline (profiles + interference) ...")
	start := time.Now()
	if err := p.Init(workloads.All()); err != nil {
		log.Fatal(err)
	}
	log.Printf("ready in %v", time.Since(start).Round(time.Millisecond))

	queue, err := p.Queue(names)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := p.Run(queue, *nc, policy)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("policy %v, %d groups:\n", rep.Policy, len(rep.Groups))
	for i, g := range rep.Groups {
		fmt.Printf("  group %d: %v (%v) — %d cycles", i+1, g.Apps, g.Classes, g.Cycles)
		if g.SMMoves > 0 {
			fmt.Printf(", %d SM moves", g.SMMoves)
		}
		fmt.Println()
		for _, st := range g.Stats {
			m := st.Derive(cfg)
			fmt.Printf("      %s\n", m)
		}
	}
	fmt.Printf("device throughput: %.1f instructions/cycle over %d cycles\n",
		rep.Throughput(), rep.TotalCycles)
}
