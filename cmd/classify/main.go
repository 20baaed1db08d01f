// Command classify profiles the full workload suite solo and prints the
// reproduction of Table 3.2: each benchmark's DRAM bandwidth, L2→L1
// bandwidth, IPC, memory-to-compute ratio and resulting class, beside
// its L1 hit rate, cycles and device utilization (the tuning aid for
// the synthetic suite).
package main

import (
	"fmt"
	"log"

	"repro/internal/classify"
	"repro/internal/config"
	"repro/internal/profile"
	"repro/internal/workloads"
)

func main() {
	log.SetFlags(0)
	cfg := config.GTX480()
	prof := profile.New(cfg)
	profiles, err := prof.RunAll(workloads.All(), 0)
	if err != nil {
		log.Fatal(err)
	}
	th := classify.CalibrateThresholds(cfg, profiles)
	fmt.Printf("thresholds: alpha=%.1f GB/s  beta=%.1f GB/s  gamma=%.1f GB/s  epsilon=%.0f IPC\n\n",
		th.AlphaGBps, th.BetaGBps, th.GammaGBps, th.EpsilonIPC)
	fmt.Printf("%-6s %12s %14s %10s %8s %6s %10s %6s  %-5s %s\n",
		"bench", "MB(GB/s)", "L2->L1(GB/s)", "IPC", "R", "L1hit", "cycles", "util%", "class", "paper")
	for i, c := range classify.Table(th, profiles) {
		note := ""
		if want := workloads.ExpectedClass[c.Name]; want != c.Class.String() {
			note = "  << MISMATCH"
		}
		fmt.Printf("%-6s %12.2f %14.2f %10.1f %8.3f %6.2f %10d %6.1f  %-5s %s%s\n",
			c.Name, c.Metrics.MemBandwidthGBps, c.Metrics.L2ToL1GBps,
			c.Metrics.IPC, c.Metrics.R, c.Metrics.L1HitRate, c.Metrics.Cycles,
			profiles[i].Utilization*100, c.Class, workloads.ExpectedClass[c.Name], note)
	}
}
