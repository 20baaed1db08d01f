// Command experiments regenerates the paper's tables and figures on the
// simulated GTX-480-class device.
//
// Usage:
//
//	experiments              # run everything (Fig 1.2 .. Appendix A)
//	experiments -only Fig4.3 # run one artifact
//	experiments -setup       # print the Table 4.1 configuration
//	experiments -seed 7      # change the deterministic queue shuffles
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"repro/internal/config"
	"repro/internal/experiments"
)

func main() {
	log.SetFlags(0)
	only := flag.String("only", "", "run a single artifact (e.g. Fig4.3, Table3.2, AppendixA)")
	seed := flag.Uint64("seed", experiments.DefaultSeed, "queue shuffle seed")
	setup := flag.Bool("setup", false, "print the experimental setup (Table 4.1) and exit")
	csvDir := flag.String("csv", "", "also write each artifact as CSV into this directory")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile at exit to this file")
	flag.Parse()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			log.Fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			log.Fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	// writeHeap snapshots the heap to -memprofile (no-op when unset); it
	// runs on both the normal and fatal exit paths, like the CPU profile
	// flush below.
	writeHeap := func() {
		if *memprofile == "" {
			return
		}
		f, err := os.Create(*memprofile)
		if err != nil {
			log.Print(err)
			return
		}
		runtime.GC() // flush unreached allocations so the profile shows live heap
		if err := pprof.WriteHeapProfile(f); err != nil {
			log.Print(err)
		}
		if err := f.Close(); err != nil {
			log.Print(err)
		}
	}
	if err := run(*only, *seed, *setup, *csvDir); err != nil {
		// Flush the profiles before exiting: log.Fatal's os.Exit would
		// skip the deferred StopCPUProfile and leave them unparsable.
		pprof.StopCPUProfile()
		writeHeap()
		log.Fatal(err)
	}
	writeHeap()
}

func run(only string, seed uint64, setup bool, csvDir string) error {
	cfg := config.GTX480()
	if setup {
		printSetup(cfg)
		return nil
	}

	start := time.Now()
	log.Printf("initializing pipeline (solo profiles + all-pairs interference) on %s ...", cfg.Name)
	suite, err := experiments.NewSuite(cfg)
	if err != nil {
		return err
	}
	suite.Seed = seed
	log.Printf("pipeline ready in %v", time.Since(start).Round(time.Millisecond))

	var arts []experiments.Artifact
	if only != "" {
		a, err := suite.Run(only)
		if err != nil {
			return err
		}
		arts = []experiments.Artifact{a}
	} else {
		arts, err = suite.All()
		if err != nil {
			return err
		}
	}
	for _, a := range arts {
		fmt.Println(a)
		if csvDir != "" {
			if err := writeCSV(csvDir, a); err != nil {
				return err
			}
		}
	}
	log.Printf("done in %v", time.Since(start).Round(time.Millisecond))
	_ = os.Stdout.Sync()
	return nil
}

func writeCSV(dir string, a experiments.Artifact) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	name := strings.ReplaceAll(a.ID, ".", "_") + ".csv"
	f, err := os.Create(filepath.Join(dir, name))
	if err != nil {
		return err
	}
	defer f.Close()
	return a.WriteCSV(f)
}

func printSetup(cfg config.GPUConfig) {
	fmt.Printf("Experimental setup (Table 4.1)\n")
	fmt.Printf("  GPU architecture    %s\n", cfg.Name)
	fmt.Printf("  # of SMs            %d\n", cfg.NumSMs)
	fmt.Printf("  Core frequency      %d MHz\n", cfg.CoreClockMHz)
	fmt.Printf("  Warps per SM        %d\n", cfg.MaxWarpsPerSM)
	fmt.Printf("  Blocks per SM       %d\n", cfg.MaxBlocksPerSM)
	fmt.Printf("  Shared memory       %d kB\n", cfg.SharedMemPerSM/1024)
	fmt.Printf("  L1 data cache       %d kB per SM\n", cfg.L1.SizeBytes/1024)
	fmt.Printf("  L2 cache            %d kB\n", cfg.L2.SizeBytes/1024)
	fmt.Printf("  Memory partitions   %d\n", cfg.NumMemPartitions)
	fmt.Println("  Warp scheduler      GTO")
	fmt.Printf("  Memory scheduler    %s\n", cfg.DRAM.Sched)
	fmt.Printf("  Peak DRAM bandwidth %.1f GB/s\n", cfg.PeakDRAMBandwidthGBps())
}
